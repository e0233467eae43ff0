// Package experiments reproduces every table and figure of the paper's
// evaluation (the E1–E15 index of DESIGN.md). Each experiment returns a
// Report pairing the paper's published values with the values measured on
// this repository's synthetic benchmark suite: absolute numbers differ
// (the substrate is synthetic), the *shapes* — orderings, ratios,
// crossovers — are the reproduction targets, and each report carries the
// shape checks it is expected to satisfy.
package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/composed"
	"repro/internal/gehl"
	"repro/internal/gshare"
	"repro/internal/harness"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/workload"
)

// Config controls the experiment scale.
type Config struct {
	// BranchesPerTrace sets the trace length (default 200000; the full
	// runs in EXPERIMENTS.md use 1000000).
	BranchesPerTrace int
	// Window and ExecDelay configure the pipeline model.
	Window    int
	ExecDelay int
	// Parallelism bounds concurrent trace simulations (default NumCPU).
	Parallelism int
	// ResultStore, when set, routes the harness-backed sweeps (E11's
	// Figure 9 grid) through the resumable append-only result store at
	// this path: cells already present are reused, only the missing or
	// failed ones run, and appended records are stamped with provenance
	// — so the most expensive experiment survives interruption and can
	// be re-rendered for free. Empty keeps the in-memory behaviour.
	ResultStore string
}

func (c Config) withDefaults() Config {
	if c.BranchesPerTrace == 0 {
		c.BranchesPerTrace = 200000
	}
	if c.Window == 0 {
		c.Window = 24
	}
	if c.ExecDelay == 0 {
		c.ExecDelay = 6
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	return c
}

func (c Config) simOptions(sc predictor.Scenario) sim.Options {
	return sim.Options{Scenario: sc, Window: c.Window, ExecDelay: c.ExecDelay}
}

// runMatrix executes a harness matrix for an experiment and returns the
// full record stream (cells in expansion order, then aggregates) plus
// any provenance-drift notes. With cfg.ResultStore unset it is a plain
// in-memory harness run; with it set, the sweep becomes resumable
// exactly like `bpbench -resume` (the two share harness.ResumeStoreFile):
// cells the store already holds are reused, only the rest execute, and
// the new records — provenance-stamped — are appended. The returned
// stream is the merged view either way, so callers render identical
// reports from a fresh run, a partial resume, or a complete store;
// reused cells recorded under a different git SHA than HEAD surface as
// notes for the report rather than vanishing silently.
func runMatrix(m *harness.Matrix, cfg Config) (recs []harness.Record, notes []string, err error) {
	hcfg := harness.Config{Parallelism: cfg.Parallelism}
	if cfg.ResultStore == "" {
		sum, err := harness.Run(m, hcfg, harness.Discard)
		if err != nil {
			return nil, nil, err
		}
		return sum.Records, nil, nil
	}
	jobs, err := m.Expand()
	if err != nil {
		return nil, nil, err
	}
	prov := harness.CurrentProvenance()
	hcfg.Provenance = &prov
	sum, err := harness.ResumeStoreFile(cfg.ResultStore, jobs, hcfg, func(plan *harness.ResumePlan) error {
		if n := len(plan.ProvenanceDrift); n > 0 {
			notes = append(notes, fmt.Sprintf(
				"store %s: %d reused cells carry provenance that may not match HEAD (first: %s)",
				cfg.ResultStore, n, plan.ProvenanceDrift[0]))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return append(append([]harness.Record(nil), sum.Merged...), harness.Aggregate(sum.Merged)...), notes, nil
}

// Row is one line of a report: a labelled paper-vs-measured pair.
type Row struct {
	Label    string
	Paper    string
	Measured string
}

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	Rows  []Row
	// Checks records the shape assertions and whether they held.
	Checks []Check
	Notes  []string
}

// Check is a named boolean shape assertion.
type Check struct {
	Name string
	Pass bool
}

// Passed reports whether every shape check held.
func (r Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

func (r *Report) check(name string, pass bool) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass})
}

func (r *Report) row(label, paper, format string, args ...any) {
	r.Rows = append(r.Rows, Row{Label: label, Paper: paper, Measured: fmt.Sprintf(format, args...)})
}

// SuiteRunner runs a freshly-constructed predictor over the whole suite.
type SuiteRunner func(cfg Config, opts sim.Options) *sim.Suite

// MakeRunner adapts a typed predictor constructor into a SuiteRunner. The
// constructor is invoked once per trace so every trace sees cold state;
// the sweep fans out on the harness worker pool (results stay in suite
// order, trace generation stays keyed to each spec's own seed, so suite
// values are identical at any parallelism).
func MakeRunner[C any](mk func() predictor.Predictor[C]) SuiteRunner {
	return func(cfg Config, opts sim.Options) *sim.Suite {
		cfg = cfg.withDefaults()
		specs := workload.All()
		results := harness.Map(len(specs), cfg.Parallelism, func(i int) sim.Result {
			tr := workload.Generate(specs[i], cfg.BranchesPerTrace)
			return sim.RunTrace(mk(), tr, opts)
		})
		s := &sim.Suite{}
		for _, r := range results {
			s.Add(r)
		}
		return s
	}
}

// --- predictor factories (the paper's configurations) ---

// GshareRunner is the 512 Kbit gshare of Section 4.1.
func GshareRunner() SuiteRunner {
	return MakeRunner(func() predictor.Predictor[gshare.Ctx] {
		return gshare.New(18)
	})
}

// GEHLRunner is the 520 Kbit GEHL of Section 4.1.
func GEHLRunner() SuiteRunner {
	return MakeRunner(func() predictor.Predictor[gehl.Ctx] {
		return gehl.New(gehl.Config{})
	})
}

// TAGERunner is the reference 512 Kbit TAGE of Section 3.4, optionally
// interleaved and with IUM.
func TAGERunner(interleaved, useIUM bool) SuiteRunner {
	return MakeRunner(func() predictor.Predictor[tage.Ctx] {
		cfg := tage.Reference()
		cfg.Interleaved = interleaved
		cfg.UseIUM = useIUM
		return tage.New(cfg)
	})
}

// ComposedRunner wraps a composed-stack configuration.
func ComposedRunner(mk func() composed.Config) SuiteRunner {
	return MakeRunner(func() predictor.Predictor[composed.Ctx] {
		return composed.New(mk())
	})
}

// scenarioSet runs one runner across the four update scenarii.
func scenarioSet(r SuiteRunner, cfg Config) map[predictor.Scenario]*sim.Suite {
	out := make(map[predictor.Scenario]*sim.Suite, 4)
	for _, sc := range []predictor.Scenario{
		predictor.ScenarioI, predictor.ScenarioA, predictor.ScenarioB, predictor.ScenarioC,
	} {
		out[sc] = r(cfg, cfg.simOptions(sc))
	}
	return out
}

func pct(delta, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*delta/base)
}
