package repro

import (
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// Observability: the telemetry registry (internal/metrics) and its HTTP
// surface, exposed through the facade. A command builds one registry,
// injects it via BenchConfig.Metrics, and serves it with TelemetryMux;
// the progress reporter reads the same registry, so the /metrics
// endpoint and the stderr progress line can never disagree. A nil
// registry everywhere means telemetry off at zero overhead.

// MetricsRegistry is the injectable telemetry registry. Nil = no-op.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty telemetry registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// TelemetryMux serves reg in Prometheus text-exposition format on
// /metrics, plus the standard runtime profiling endpoints under
// /debug/pprof/ — everything a scraper or `go tool pprof` needs to
// watch a live sweep.
func TelemetryMux(reg *MetricsRegistry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartBenchProgress starts the periodic one-line progress report
// (cells done/total, aggregate branches/sec, ETA) rendered from reg;
// interval <= 0 selects the default. The returned stop renders a final
// line and shuts the reporter down (idempotent).
func StartBenchProgress(w io.Writer, reg *MetricsRegistry, interval time.Duration) (stop func()) {
	return harness.StartProgress(w, reg, interval)
}
