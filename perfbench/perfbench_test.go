package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/harness"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
)

// untimed drops the wall-clock fields of a result, which are the only
// ones allowed to differ between two runs of one cell.
func untimed(r sim.Result) sim.Result {
	r.Elapsed, r.BranchesPerSec = 0, 0
	return r
}

func TestDecoratorIsTransparent(t *testing.T) {
	tr := repro.MustGenerateTrace("INT01", 5000)
	for _, sc := range []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB} {
		opt := sim.Options{Scenario: sc}
		want := untimed(sim.RunTrace(tage.New(tage.Reference()), tr, opt))
		rec := newRecorder(calibrateClock())
		run := tracedRunner(rec, "tage", func() predictor.Predictor[tage.Ctx] { return tage.New(tage.Reference()) })()
		// The second run goes through the timed Reset of the pooled
		// predictor.
		for i := 0; i < 2; i++ {
			if got := untimed(run(tr, opt)); got != want {
				t.Fatalf("scenario %s run %d: decorated result\n%+v\nwant\n%+v", sc, i, got, want)
			}
		}
		acc := rec.layers()[accKey{"tage", sc.Letter()}]
		if acc.branches != 2*5000 || acc.cells != 2 || acc.resets != 1 {
			t.Fatalf("scenario %s: accumulated %d branches, %d cells, %d resets", sc, acc.branches, acc.cells, acc.resets)
		}
		if acc.predict.calls != 2*5000 || acc.predict.samples != 2*5000/sampleEvery {
			t.Fatalf("scenario %s: predict calls %d samples %d", sc, acc.predict.calls, acc.predict.samples)
		}
	}
}

func TestTracedHookMatchesSpecBuild(t *testing.T) {
	tr := repro.MustGenerateTrace("WS03", 3000)
	opt := sim.Options{Scenario: predictor.ScenarioB}
	for _, s := range []string{"tage", "tage@-2", "gshare:log=14", "gshare:log=14@-3", "gehl:log=10", "gehl:log=10@-4"} {
		spec, err := repro.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		hook, err := tracedHook(newRecorder(0), spec.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		want := untimed(m.Run(tr, opt))
		got := untimed(hook()(tr, opt))
		// The predictor's self-reported name is not part of a record.
		got.Predictor = want.Predictor
		if got != want {
			t.Errorf("%s: traced\n%+v\nwant\n%+v", s, got, want)
		}
	}
	if _, err := tracedHook(newRecorder(0), "gehl:log=10,tables=4"); err == nil {
		t.Error("tracedHook accepted a gehl spec it does not rebuild")
	}
}

func TestTracedGridMatchesUntraced(t *testing.T) {
	g := &gridWorkload{
		name: "test", models: []string{"tage", "gshare:log=12", "gehl:log=8"}, deltas: []int{-1, 0},
		traces: []string{"INT01", "loopy:trip=6#3"}, scenarios: "A,B", length: 1000,
		dir: t.TempDir(), workers: 2, resumes: 1,
	}
	if _, err := g.setup(); err != nil {
		t.Fatal(err)
	}
	plain, err := g.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := g.run(newRecorder(calibrateClock()))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.failures)+len(traced.failures) > 0 {
		t.Fatalf("failures: %v %v", plain.failures, traced.failures)
	}
	if plain.cells != 24 || plain.digests.total() != traced.digests.total() {
		t.Fatalf("%d cells; digest %s untraced, %s traced", plain.cells, plain.digests.total(), traced.digests.total())
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "workload.") || d.name == "tracing.overhead_share" {
			continue // filled from the set-up and the untraced pass
		}
		if _, ok := traced.layers[d.name]; !ok {
			t.Errorf("traced pass did not report %s", d.name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 40}, {Start: 10, End: 30}, // overlapping: 10..40
		{Start: 50, End: 60},
		{Start: 90, End: 120}, // clipped to 90..100
		{Start: 55, End: 58},  // inside 50..60
	}
	if got := selfNs(parent, children); got != 50 {
		t.Errorf("selfNs = %d, want 50", got)
	}
	if got := selfNs(parent, nil); got != 100 {
		t.Errorf("selfNs without children = %d, want 100", got)
	}
	// Ten timed calls of 90 ns each, 40 ns of which is the clock: 50 ns
	// per call over 160 calls.
	s := sampled{calls: 160, samples: 10, ns: 900}
	if got := s.totalNs(40); got != 8000 {
		t.Errorf("totalNs = %v, want 8000", got)
	}
}

func TestErrorRateCountsFailures(t *testing.T) {
	good, err := repro.BenchModels([]string{"gshare:log=12"})
	if err != nil {
		t.Fatal(err)
	}
	// flaky fails its first cell only: the write pass records a failed
	// cell, and the resume of the store, complete but for that cell,
	// re-runs it.
	var calls atomic.Int32
	flaky := harness.Model{Name: "flaky", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		if calls.Add(1) == 1 {
			panic("deliberate failure")
		}
		return good[0].Run(tr, opt)
	}}
	// short reports one branch fewer than it was given.
	short := harness.Model{Name: "short", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		res := good[0].Run(tr, opt)
		res.Branches--
		return res
	}}
	specs, err := harness.SelectTraces([]string{"INT01", "INT02"})
	if err != nil {
		t.Fatal(err)
	}
	m := &harness.Matrix{Models: []harness.Model{good[0], flaky, short}, Traces: specs,
		Scenarios: []predictor.Scenario{predictor.ScenarioA}, Lengths: []int{500}}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	g := &gridWorkload{name: "test", dir: t.TempDir(), workers: 1, resumes: 1, matrix: m, jobs: jobs}
	p, err := g.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var cellFailed, resumeRan, shortRan int
	for _, f := range p.failures {
		switch {
		case strings.Contains(f, "flaky/INT01/A/500 failed: "):
			cellFailed++
		case strings.Contains(f, "resume of the complete store ran 1 cells"):
			resumeRan++
		case strings.Contains(f, "simulated 499 branches, want 500"):
			shortRan++
		}
	}
	if cellFailed != 1 || resumeRan != 1 || shortRan != 2 || len(p.failures) != 4 || p.cellsFailed != 1 {
		t.Fatalf("failures %q, %d failed cells", p.failures, p.cellsFailed)
	}
	res := &result{}
	res.fail(p)
	// 6 cells, the check of their count, and 1 resume.
	if res.Failed != 4 || res.Attempted != 8 || res.CellsFailed != 1 {
		t.Fatalf("failed %d of %d attempted", res.Failed, res.Attempted)
	}
}

func TestDigestIgnoresTimingAndProvenance(t *testing.T) {
	r := harness.Record{Kind: harness.KindCell, Model: "tage", Trace: "INT01", Scenario: "A", Branches: 1000,
		Mispredicts: 17, SimBranches: 1000, ElapsedSec: 0.5, BranchesPerSec: 2000}
	other := r
	other.ElapsedSec, other.BranchesPerSec = 0.7, 1400
	other.Provenance = &harness.Provenance{GitSHA: "abc", GitDirty: true}
	if recordDigest(r) != recordDigest(other) {
		t.Error("digest changed with timing and provenance")
	}
	other.Mispredicts++
	if recordDigest(r) == recordDigest(other) {
		t.Error("digest did not change with a simulated statistic")
	}
	report := "== E11\n  row\n  note: store /tmp/x/paper-1.jsonl: 3 reused cells carry provenance\n"
	if reportDigest(report, "/tmp/x/paper-1.jsonl") != reportDigest("== E11\n  row\n", "/tmp/x/paper-2.jsonl") {
		t.Error("report digest kept the store's provenance note")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: code has %s (%s), BENCHMARK.json %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}
