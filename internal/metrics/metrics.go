// Package metrics is a dependency-free, concurrency-safe telemetry
// registry: counters, gauges and fixed-bucket histograms, with labelled
// (vector) variants, a callback gauge for derived rates, a deterministic
// Snapshot for tests and display layers, and a Prometheus text-exposition
// writer (see expose.go) for scrapers.
//
// It exists so the harness can export operational telemetry — jobs in
// flight, branches/sec, store append rates — without pulling an external
// client library into the module. The design follows the Prometheus data
// model closely enough that /metrics output scrapes cleanly.
//
// A nil *Registry is a first-class no-op: every Registry method on a nil
// receiver returns a nil handle, and every handle method on a nil
// receiver does nothing. Code can therefore be instrumented
// unconditionally and pay one predictable nil check when telemetry is
// off — the property that keeps the simulator hot path at 0
// allocs/branch whether or not a registry is attached.
//
// Registration is idempotent: asking for an existing family with the
// same schema (type, label names, buckets) returns the existing one, so
// layers resolve their handles independently without coordination.
// Re-registering a name with a different schema panics — that is a
// programming error, not an operational condition.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// --- handles ---

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use and on a nil receiver (no-op).
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use and on a nil receiver (no-op).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative
// less-than-or-equal semantics on export, like Prometheus). All methods
// are safe for concurrent use and on a nil receiver (no-op).
type Histogram struct {
	upper  []float64 // ascending bucket upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    Gauge
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v; everything past the last
	// declared bound lands in the implicit +Inf bucket.
	h.counts[sort.SearchFloat64s(h.upper, v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// --- labelled (vector) variants ---

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values (in the
// label-name order the family was registered with). Nil receiver
// returns a nil (no-op) counter.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Histogram)
}

// --- registry ---

// Registry holds metric families by name. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is the canonical "telemetry
// off" value: all methods no-op and return nil handles.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// family is one named metric family: fixed schema, lazily-created
// children per label-value combination.
type family struct {
	name, help string
	typ        string // "counter", "gauge", "histogram", "gaugefunc"
	labels     []string
	buckets    []float64
	make       func() any

	mu       sync.RWMutex
	children map[string]any
	fn       func() float64 // gaugefunc callback, replaceable
}

// labelSep joins label values into a child key; it cannot appear in
// reasonable label values (it is not valid UTF-8 on its own).
const labelSep = "\xff"

func (f *family) child(labelValues []string) any {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s has labels %v, got %d value(s)", f.name, f.labels, len(labelValues)))
	}
	key := strings.Join(labelValues, labelSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = f.make()
	f.children[key] = c
	return c
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// family returns the registered family for name, creating it on first
// use. Names and labels are validated only on creation: an existing
// family was checked when it was made, and a lookup must stay
// allocation-free (the regexp machine can allocate).
func (r *Registry) family(name, help, typ string, labels []string, buckets []float64, mk func() any) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !stringsEqual(f.labels, labels) || !floatsEqual(f.buckets, buckets) {
			panic(fmt.Sprintf("metrics: %s re-registered with a different schema (have %s%v, want %s%v)",
				name, f.typ, f.labels, typ, labels))
		}
		return f
	}
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets, make: mk, children: make(map[string]any)}
	r.families[name] = f
	return f
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, "counter", nil, nil, func() any { return &Counter{} })
	return f.child(nil).(*Counter)
}

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, "counter", labelNames, nil, func() any { return &Counter{} })}
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, "gauge", nil, nil, func() any { return &Gauge{} })
	return f.child(nil).(*Gauge)
}

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, "gauge", labelNames, nil, func() any { return &Gauge{} })}
}

// Histogram registers (or returns) an unlabelled fixed-bucket histogram.
// buckets are the ascending upper bounds; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	b := checkBuckets(name, buckets)
	f := r.family(name, help, "histogram", nil, b, func() any { return newHistogram(b) })
	return f.child(nil).(*Histogram)
}

// HistogramVec registers (or returns) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	b := checkBuckets(name, buckets)
	return &HistogramVec{f: r.family(name, help, "histogram", labelNames, b, func() any { return newHistogram(b) })}
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — the shape for derived rates (branches/sec over a run). Unlike
// the other kinds, re-registering a gauge func replaces the callback:
// each run re-anchors its rate computation without a registry reset. fn
// must not call back into the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, "gaugefunc", nil, nil, func() any { return nil })
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s has no buckets", name))
	}
	b := append([]float64(nil), buckets...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s buckets not strictly ascending at %v", name, b[i]))
		}
	}
	if math.IsInf(b[len(b)-1], +1) {
		b = b[:len(b)-1] // +Inf is implicit
	}
	return b
}

// ExpBuckets returns count exponentially spaced bucket upper bounds
// starting at start and multiplying by factor — the latency/size bucket
// idiom. Panics on non-positive start, factor <= 1, or count < 1.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("metrics: bad ExpBuckets(%v, %v, %d)", start, factor, count))
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// --- snapshot ---

// Snapshot is a deterministic point-in-time copy of a registry:
// families sorted by name, samples sorted by label values. Two
// snapshots of registries populated identically render identically —
// the property golden tests and the progress reporter rely on.
type Snapshot struct {
	Families []Family
}

// Family is one metric family in a snapshot.
type Family struct {
	Name, Help string
	// Type is the exposition type: "counter", "gauge" or "histogram"
	// (callback gauges report as "gauge").
	Type       string
	LabelNames []string
	Samples    []Sample
}

// Sample is one labelled point of a family.
type Sample struct {
	// LabelValues align with the family's LabelNames.
	LabelValues []string
	// Value is the counter count or gauge value (unused for histograms).
	Value float64
	// Buckets are the cumulative bucket counts (histograms only); the
	// final bucket's Upper is +Inf and its Count equals Count.
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Bucket is one cumulative histogram bucket: the count of observations
// <= Upper.
type Bucket struct {
	Upper float64
	Count uint64
}

// Snapshot captures the registry's current state. Safe for concurrent
// use with writers; a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var s Snapshot
	for _, f := range fams {
		s.Families = append(s.Families, f.snapshot())
	}
	return s
}

func (f *family) snapshot() Family {
	typ := f.typ
	if typ == "gaugefunc" {
		typ = "gauge"
	}
	out := Family{Name: f.name, Help: f.help, Type: typ, LabelNames: f.labels}

	if f.typ == "gaugefunc" {
		f.mu.RLock()
		fn := f.fn
		f.mu.RUnlock()
		v := 0.0
		if fn != nil {
			v = fn()
		}
		out.Samples = []Sample{{Value: v}}
		return out
	}

	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		smp := Sample{}
		if len(f.labels) > 0 {
			smp.LabelValues = strings.Split(k, labelSep)
		}
		switch c := f.children[k].(type) {
		case *Counter:
			smp.Value = float64(c.Value())
		case *Gauge:
			smp.Value = c.Value()
		case *Histogram:
			cum := uint64(0)
			for i := range c.counts {
				cum += c.counts[i].Load()
				upper := math.Inf(+1)
				if i < len(c.upper) {
					upper = c.upper[i]
				}
				smp.Buckets = append(smp.Buckets, Bucket{Upper: upper, Count: cum})
			}
			smp.Sum = c.Sum()
			smp.Count = cum
		}
		out.Samples = append(out.Samples, smp)
	}
	f.mu.RUnlock()
	return out
}

// Family returns the named family of the snapshot.
func (s Snapshot) Family(name string) (Family, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Value sums a family's sample values across label combinations
// (counters and gauges; histograms contribute their Sum). Missing
// families are 0 — absent telemetry reads as "nothing happened yet".
func (s Snapshot) Value(name string) float64 {
	f, ok := s.Family(name)
	if !ok {
		return 0
	}
	total := 0.0
	for _, smp := range f.Samples {
		if f.Type == "histogram" {
			total += smp.Sum
		} else {
			total += smp.Value
		}
	}
	return total
}

// Sample returns the family sample with exactly the given label values.
func (s Snapshot) Sample(name string, labelValues ...string) (Sample, bool) {
	f, ok := s.Family(name)
	if !ok {
		return Sample{}, false
	}
	for _, smp := range f.Samples {
		if stringsEqual(smp.LabelValues, labelValues) {
			return smp, true
		}
	}
	return Sample{}, false
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
