// Package experiments reproduces every table and figure of the paper's
// evaluation (the E1–E15 index of DESIGN.md). Each experiment returns a
// Report pairing the paper's published values with the values measured on
// this repository's synthetic benchmark suite: absolute numbers differ
// (the substrate is synthetic), the *shapes* — orderings, ratios,
// crossovers — are the reproduction targets, and each report carries the
// shape checks it is expected to satisfy.
//
// An experiment declares the (model, scenario) suites it reads — every
// model is one entry of a single configuration table — and renders its
// report from them. Run simulates the declared suites on the harness
// executor, the same worker pool, trace cache and pooled predictors
// bpbench uses, and memoises them across the experiments of one call,
// so a suite two experiments share runs once. E11's Figure 9 grid runs
// as its own harness matrix, optionally through a resumable result
// store; E8's revert-rate probe runs one trace directly because it reads
// the predictor afterwards.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/composed"
	"repro/internal/ftlpp"
	"repro/internal/gehl"
	"repro/internal/gshare"
	"repro/internal/harness"
	"repro/internal/neural"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
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
	return c
}

// model adapts a predictor constructor into a harness model: NewRunner
// pools one instance and Resets it between cells, Run is a runner's
// first, cold call on a freshly built predictor, and StorageBits is the
// configuration's budget.
func model[C any](name string, mk func() predictor.Predictor[C]) harness.Model {
	newRunner := func() func(tr *trace.Trace, opt sim.Options) sim.Result {
		p := mk()
		var rn sim.Runner[C]
		dirty := false
		return func(tr *trace.Trace, opt sim.Options) sim.Result {
			if dirty {
				p.Reset()
			}
			dirty = true
			return rn.RunTrace(p, tr, opt)
		}
	}
	return harness.Model{
		Name:        name,
		StorageBits: mk().StorageBits(),
		Run:         func(tr *trace.Trace, opt sim.Options) sim.Result { return newRunner()(tr, opt) },
		NewRunner:   newRunner,
	}
}

// scalable is model with the Figure 9 budget-scaling hook: the base is
// the deltaLog-0 variant and every scaled variant reports its actual
// storage budget. Its name is also its canonical model spec (the same
// one `bpbench -models` resolves), so E11's store records are
// spec-validated exactly like bpbench's; the harness stamps scaled
// variants with the rescaled spec.
func scalable[C any](name string, mk func(deltaLog int) predictor.Predictor[C]) harness.Model {
	m := model(name, func() predictor.Predictor[C] { return mk(0) })
	m.Spec = name
	m.Scale = func(d int) harness.Model { return model("", func() predictor.Predictor[C] { return mk(d) }) }
	return m
}

// tageModel and stack are model for a TAGE and a composed-stack
// configuration.
func tageModel(name string, cfg tage.Config) harness.Model {
	return model(name, func() predictor.Predictor[tage.Ctx] { return tage.New(cfg) })
}

func stack(name string, cfg composed.Config) harness.Model {
	return model(name, func() predictor.Predictor[composed.Ctx] { return composed.New(cfg) })
}

// paperModels is every predictor configuration the experiments
// simulate, built once and keyed by the name cells refer to it by.
var paperModels = sync.OnceValue(func() map[string]harness.Model {
	ref := tage.Reference
	banked, iumFlag := ref(), ref()
	banked.Interleaved, iumFlag.UseIUM = true, true
	loop := composed.TageIUM(ref(), "TAGE+IUM+loop")
	loop.UseLoop = true
	isl512 := composed.ISLTAGE(composed.Budget512K(), "ISL-TAGE-512K")
	// "5 tables GEHL-like predictor for Statistical Corrector".
	isl512.SC.Lengths = []int{0, 4, 10, 17, 31}
	lscBanked := composed.TAGELSC(composed.Budget512K(), "TAGE-LSC-interleaved")
	lscBanked.Tage.Interleaved, lscBanked.LSC.Interleaved = true, true
	table := []harness.Model{
		// Section 4 baselines and the reference TAGE.
		model("gshare", func() predictor.Predictor[gshare.Ctx] { return gshare.New(18) }),
		model("gehl", func() predictor.Predictor[gehl.Ctx] { return gehl.New(gehl.Config{}) }),
		scalable("tage", func(d int) predictor.Predictor[tage.Ctx] { return tage.New(tage.Scale(ref(), d)) }),
		tageModel("tage-banked", banked),
		tageModel("tage-iumflag", iumFlag),
		tageModel("tage-2m", tage.Scale(ref(), 2)),
		// Section 5 and 6 stacks on the reference TAGE.
		stack("tage+ium", composed.TageIUM(ref(), "TAGE+IUM")),
		stack("tage+ium+loop", loop),
		stack("isl-tage", composed.ISLTAGE(ref(), "ISL-TAGE")),
		stack("tage+ium+loop+sc+lsc", composed.FullStack(ref(), "TAGE+IUM+loop+SC+LSC")),
		stack("tage+ium+lsc", composed.TAGELSC(ref(), "TAGE+IUM+LSC")),
		// The 512 Kbit budget-matched stacks of Sections 6 and 7.
		scalable("tage-lsc", func(d int) predictor.Predictor[composed.Ctx] {
			return composed.New(composed.TAGELSC(tage.Scale(composed.Budget512K(), d), fmt.Sprintf("TAGE-LSC%+d", d)))
		}),
		stack("isl-tage-512k", isl512),
		stack("tage-lsc-banked", lscBanked),
		// Section 6.3 neural comparators.
		model("ohsnap", func() predictor.Predictor[neural.Ctx] { return neural.New(neural.Config{}) }),
		model("ftlpp", func() predictor.Predictor[ftlpp.Ctx] { return ftlpp.New(ftlpp.Config{}) }),
	}
	for _, v := range e10Variants {
		table = append(table, stack(v.label, composed.TAGELSC(e10TAGE(v.nTagged, v.min, v.max, v.label), v.label)))
	}
	out := make(map[string]harness.Model, len(table))
	for _, m := range table {
		if _, dup := out[m.Name]; dup {
			panic("experiments: duplicate model " + m.Name)
		}
		out[m.Name] = m
	}
	return out
})

// cell names one suite: a model of the paperModels table over the whole
// benchmark set under one update scenario.
type cell struct {
	model    string
	scenario predictor.Scenario
}

var (
	scenarioA    = []predictor.Scenario{predictor.ScenarioA}
	allScenarios = []predictor.Scenario{predictor.ScenarioI, predictor.ScenarioA, predictor.ScenarioB, predictor.ScenarioC}
)

// suites memoises simulated suites by cell for one Run call.
type suites struct {
	cfg  Config
	done map[cell]*sim.Suite
	// simulated counts the suites actually run (each memoised suite once).
	simulated int
}

// run simulates, as one harness job list, the suite of every model
// under every scenario that is not already memoised.
func (s *suites) run(models []string, scs []predictor.Scenario) error {
	specs := workload.All()
	var todo []cell
	var jobs []harness.Job
	for _, m := range models {
		for _, sc := range scs {
			if _, ok := s.done[cell{m, sc}]; ok {
				continue
			}
			todo = append(todo, cell{m, sc})
			mdl := paperModels()[m]
			opts := sim.Options{Scenario: sc, Window: s.cfg.Window, ExecDelay: s.cfg.ExecDelay}
			for _, spec := range specs {
				jobs = append(jobs, harness.Job{Model: mdl, Spec: spec, Scenario: sc, Branches: s.cfg.BranchesPerTrace, Opts: opts})
			}
		}
	}
	results, err := harness.Simulate(jobs, harness.Config{Parallelism: s.cfg.Parallelism})
	if err != nil {
		return err
	}
	for i, c := range todo {
		lo, hi := i*len(specs), (i+1)*len(specs)
		s.done[c] = &sim.Suite{Results: results[lo:hi:hi]}
	}
	s.simulated += len(todo)
	return nil
}

// newSuites is the empty memo of one Run call.
func newSuites(cfg Config) *suites {
	return &suites{cfg: cfg.withDefaults(), done: make(map[cell]*sim.Suite)}
}

// get returns a declared suite.
func (s *suites) get(model string, sc predictor.Scenario) *sim.Suite {
	suite, ok := s.done[cell{model, sc}]
	if !ok {
		panic(fmt.Sprintf("experiments: suite %s/%s read but not declared", model, sc.Letter()))
	}
	return suite
}

// Run renders the experiments with the given ids (see Lookup) in order,
// passing each report to emit as soon as it is complete. Suites are
// memoised across the whole call, so an experiment reuses every suite
// an earlier one already simulated. An unknown id fails the call before
// anything runs.
func Run(ids []string, cfg Config, emit func(Report)) error {
	_, err := run(ids, cfg, emit)
	return err
}

// run is Run returning its memo.
func run(ids []string, cfg Config, emit func(Report)) (*suites, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		exps[i] = e
	}
	s := newSuites(cfg)
	for _, e := range exps {
		var r Report
		if err := s.run(e.models, e.scenarios); err != nil {
			// A failed simulation fails the report, not the whole run.
			r.check("suites simulated", false)
			r.Notes = append(r.Notes, "simulation failed: "+err.Error())
		} else {
			r = e.report(s)
		}
		r.ID, r.Title = e.ID, e.Title
		emit(r)
	}
	return s, nil
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

func pct(delta, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*delta/base)
}
