package experiments

import (
	"bytes"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRegistryCompleteAndOrdered(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(reg))
	}
	for i, e := range reg {
		wantID := "E" + itoa(i+1)
		if e.ID != wantID {
			t.Errorf("position %d: id %s, want %s", i, e.ID, wantID)
		}
		if e.report == nil || e.Title == "" {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, id := range []string{"e3", "E3", " e3 "} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("E16"); ok {
		t.Fatal("Lookup must reject unknown ids")
	}
}

func TestRenderFormats(t *testing.T) {
	rep := Report{ID: "EX", Title: "t"}
	rep.row("label", "1.0", "%.1f", 2.0)
	rep.check("a check", true)
	rep.check("a failing check", false)
	rep.Notes = append(rep.Notes, "a note")

	var buf bytes.Buffer
	Render(&buf, rep)
	out := buf.String()
	for _, want := range []string{"EX", "label", "paper=1.0", "measured=2.0", "[PASS]", "[FAIL]", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("text render missing %q in:\n%s", want, out)
		}
	}

	buf.Reset()
	RenderMarkdown(&buf, rep)
	out = buf.String()
	for _, want := range []string{"### EX", "| label | 1.0 | 2.0 |", "✅", "❌"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown render missing %q in:\n%s", want, out)
		}
	}
}

func TestReportPassed(t *testing.T) {
	var r Report
	if !r.Passed() {
		t.Fatal("empty report must pass")
	}
	r.check("ok", true)
	if !r.Passed() {
		t.Fatal("all-true must pass")
	}
	r.check("bad", false)
	if r.Passed() {
		t.Fatal("any-false must fail")
	}
}

// TestSuitesReproducible: a suite simulated on the harness pool, with
// pooled predictors Reset between cells, is identical when simulated
// again in a fresh memo at another parallelism.
func TestSuitesReproducible(t *testing.T) {
	models, scs := []string{"gshare", "tage"}, []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB}
	var runs [2]*suites
	for i, par := range []int{1, 2} {
		runs[i] = newSuites(Config{BranchesPerTrace: 1500, Parallelism: par})
		if err := runs[i].run(models, scs); err != nil {
			t.Fatal(err)
		}
	}
	for c := range runs[0].done {
		a, b := runs[0].get(c.model, c.scenario), runs[1].get(c.model, c.scenario)
		for i := range a.Results {
			a.Results[i].Elapsed, a.Results[i].BranchesPerSec = 0, 0
			b.Results[i].Elapsed, b.Results[i].BranchesPerSec = 0, 0
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s/%s: suite runs not reproducible", c.model, c.scenario.Letter())
		}
	}
}

func TestSuiteRunnerCovers40Traces(t *testing.T) {
	s := newSuites(Config{BranchesPerTrace: 2000})
	if err := s.run([]string{"gshare"}, scenarioA); err != nil {
		t.Fatal(err)
	}
	suite := s.get("gshare", predictor.ScenarioA)
	specs := workload.All()
	if len(suite.Results) != len(specs) || len(specs) != 40 {
		t.Fatalf("suite has %d results over %d traces, want 40", len(suite.Results), len(specs))
	}
	for i, res := range suite.Results {
		if res.Trace != specs[i].Name {
			t.Fatalf("result %d is trace %s, want %s (workload.All order)", i, res.Trace, specs[i].Name)
		}
		if res.Branches == 0 {
			t.Fatalf("trace %s ran no branches", res.Trace)
		}
	}
}

// TestRunSharesSuitesAcrossExperiments: E2 and E4 both read reference
// TAGE under all four scenarios, so one Run over both simulates 16
// distinct suites, not 20.
func TestRunSharesSuitesAcrossExperiments(t *testing.T) {
	var reports []Report
	s, err := run([]string{"E2", "E4"}, Config{BranchesPerTrace: 500}, func(r Report) { reports = append(reports, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].ID != "E2" || reports[1].ID != "E4" {
		t.Fatalf("emitted %d reports, want E2 then E4", len(reports))
	}
	if s.simulated != 16 || len(s.done) != 16 {
		t.Fatalf("Run over E2 and E4 simulated %d suites (%d memoised), want 16", s.simulated, len(s.done))
	}
}

func TestRunRejectsUnknownIDFirst(t *testing.T) {
	emitted := 0
	err := Run([]string{"E1", "E99"}, Config{BranchesPerTrace: 500}, func(Report) { emitted++ })
	if err == nil || !strings.Contains(err.Error(), "E99") || emitted != 0 {
		t.Fatalf("unknown id: err=%v after %d reports, want an error naming it before any report", err, emitted)
	}
}

// TestModelTableCoversDeclaredCells: every model an experiment declares
// is an entry of the configuration table.
func TestModelTableCoversDeclaredCells(t *testing.T) {
	table := paperModels()
	for _, e := range Registry() {
		for _, m := range e.models {
			if _, ok := table[m]; !ok {
				t.Errorf("%s declares unknown model %q", e.ID, m)
			}
		}
	}
}

func TestPct(t *testing.T) {
	if pct(5, 100) != "+5.0%" {
		t.Fatalf("pct = %s", pct(5, 100))
	}
	if pct(-5, 100) != "-5.0%" {
		t.Fatalf("pct = %s", pct(-5, 100))
	}
	if pct(1, 0) != "n/a" {
		t.Fatal("division by zero must be guarded")
	}
}

// TestE15Fast is an end-to-end experiment smoke test at tiny scale.
func TestE15Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	var rep Report
	if err := Run([]string{"E15"}, Config{BranchesPerTrace: 20000}, func(r Report) { rep = r }); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	if rep.ID != "E15" {
		t.Fatalf("id = %s", rep.ID)
	}
}

// TestRunMatrixResultStore covers the store path E11 runs through when
// Config.ResultStore is set: the first invocation executes the grid and
// persists provenance-stamped records; a second invocation reuses every
// cell (zero simulator runs) and reassembles the identical record stream
// from the store.
func TestRunMatrixResultStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	var runs atomic.Int64
	model := harness.Model{Name: "m", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		runs.Add(1)
		return sim.Result{
			Trace: tr.Name, Category: tr.Category,
			Window: sim.DefaultWindow, ExecDelay: sim.DefaultExecDelay,
			Branches: uint64(len(tr.Branches)), MPKI: 2, MPPKI: 40,
		}
	}}
	specs, err := workload.Select([]string{"INT01", "INT02"})
	if err != nil {
		t.Fatal(err)
	}
	m := &harness.Matrix{
		Models:    []harness.Model{model},
		Traces:    specs,
		Scenarios: []predictor.Scenario{predictor.ScenarioA},
		Lengths:   []int{40},
	}
	cfg := Config{Parallelism: 2, ResultStore: store}

	first, _, err := runMatrix(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("first pass executed %d jobs, want 2", got)
	}
	stored, _, err := harness.ReadStoreFile(store)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range stored {
		if r.Provenance == nil || r.Provenance.GitSHA == "" {
			t.Fatalf("stored record %d carries no provenance SHA: %+v", i, r)
		}
	}

	second, _, err := runMatrix(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("second pass re-executed jobs: %d total runs", got)
	}
	clear := func(recs []harness.Record) []harness.Record {
		out := append([]harness.Record(nil), recs...)
		for i := range out {
			out[i].ElapsedSec = 0
			out[i].BranchesPerSec = 0
		}
		return out
	}
	if !reflect.DeepEqual(clear(first), clear(second)) {
		t.Fatalf("store-backed rerun differs:\nfirst  %+v\nsecond %+v", clear(first), clear(second))
	}

	// The in-memory path returns the same measurement stream.
	plain, _, err := runMatrix(m, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := clear(plain), clear(second)
	for i := range b {
		b[i].Provenance = nil
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("store path diverges from in-memory path:\nmem   %+v\nstore %+v", a, b)
	}
}

// TestPooledRunnerMatchesFreshAcrossTable: every configuration of the
// table — plus scaled variants of the two Figure 9 models — run through
// one pooled runner (Reset between cells) over 3 traces × 2 scenarios in
// shuffled order returns exactly what fresh Run calls return. A Reset
// that misses any state shows up here as a moved result.
func TestPooledRunnerMatchesFreshAcrossTable(t *testing.T) {
	table := paperModels()
	models := make([]harness.Model, 0, len(table)+2)
	for _, name := range slices.Sorted(maps.Keys(table)) {
		models = append(models, table[name])
	}
	for _, d := range []int{-2, 1} {
		for _, base := range []string{"tage", "tage-lsc"} {
			m := table[base].Scale(d)
			m.Name = harness.ScaledName(base, d)
			models = append(models, m)
		}
	}
	type cellRun struct {
		trace string
		sc    predictor.Scenario
	}
	var runs []cellRun
	for _, tr := range []string{"CLIENT02", "INT03", "WS03"} {
		for _, sc := range []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB} {
			runs = append(runs, cellRun{tr, sc})
		}
	}
	for i, m := range models {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			order := slices.Clone(runs)
			rand.New(rand.NewSource(int64(i)+1)).Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			run := m.NewRunner()
			for _, c := range order {
				tr := workload.Generate(mustFind(c.trace), 5000)
				opt := sim.Options{Scenario: c.sc}
				pooled, fresh := run(tr, opt), m.Run(tr, opt)
				pooled.Elapsed, pooled.BranchesPerSec = 0, 0
				fresh.Elapsed, fresh.BranchesPerSec = 0, 0
				if !reflect.DeepEqual(pooled, fresh) {
					t.Fatalf("%s/%s after %v: pooled runner diverged from a fresh run\npooled: %+v\nfresh:  %+v",
						c.trace, c.sc.Letter(), order, pooled, fresh)
				}
			}
		})
	}
}
