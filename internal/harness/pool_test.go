package harness

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gshare"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pooledGshare is a real predictor with both run paths wired: Run
// constructs cold (like every model before the pool existed), NewRunner
// reuses one Reset instance. constructions counts how many predictors
// were actually built, which is what the pool is supposed to save.
func pooledGshare(constructions *atomic.Int64) Model {
	mk := func() predictor.Predictor[gshare.Ctx] {
		if constructions != nil {
			constructions.Add(1)
		}
		return gshare.New(12)
	}
	return Model{
		Name: "gshare12",
		Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.RunTrace(mk(), tr, opt)
		},
		NewRunner: func() func(tr *trace.Trace, opt sim.Options) sim.Result {
			p := mk()
			var rn sim.Runner[gshare.Ctx]
			dirty := false
			return func(tr *trace.Trace, opt sim.Options) sim.Result {
				if dirty {
					p.Reset()
				}
				dirty = true
				return rn.RunTrace(p, tr, opt)
			}
		},
	}
}

// withoutRunner strips the pooled path, leaving only cold construction.
func withoutRunner(m Model) Model {
	m.NewRunner = nil
	return m
}

func clearTiming(recs []Record) {
	for i := range recs {
		recs[i].ElapsedSec = 0
		recs[i].BranchesPerSec = 0
	}
}

// TestPredictorPoolReusesAndMeters: one worker running N cells of the
// same model constructs exactly one predictor, and the hit/miss
// counters account every arena lookup. The pooled records must match a
// run of the same model without a NewRunner hook, which constructs a
// fresh predictor per cell through Model.Run.
func TestPredictorPoolReusesAndMeters(t *testing.T) {
	traces := []string{"INT01", "INT02", "MM05", "WS01"}
	run := func(cfg Config, mdl Model) []Record {
		m := testMatrix(t, []Model{mdl}, traces,
			[]predictor.Scenario{predictor.ScenarioA}, []int{500})
		sink := &collectSink{}
		if _, err := Run(m, cfg, sink); err != nil {
			t.Fatal(err)
		}
		return sink.recs
	}

	reg := metrics.NewRegistry()
	var pooledCtor atomic.Int64
	pooled := run(Config{Parallelism: 1, Metrics: reg}, pooledGshare(&pooledCtor))
	if got := pooledCtor.Load(); got != 1 {
		t.Fatalf("pooled run constructed %d predictors, want 1", got)
	}
	s := reg.Snapshot()
	if hits, misses := s.Value(MetricPredictorPoolHits), s.Value(MetricPredictorPoolMisses); hits != 3 || misses != 1 {
		t.Fatalf("pool hits=%v misses=%v, want 3/1", hits, misses)
	}

	var coldCtor atomic.Int64
	cold := run(Config{Parallelism: 1}, withoutRunner(pooledGshare(&coldCtor)))
	if got := coldCtor.Load(); got != int64(len(traces)) {
		t.Fatalf("run without NewRunner constructed %d predictors, want %d", got, len(traces))
	}
	clearTiming(pooled)
	clearTiming(cold)
	if !reflect.DeepEqual(pooled, cold) {
		t.Fatalf("pooled records diverge from cold construction:\n%+v\nvs\n%+v", pooled, cold)
	}
}

// TestNoPredictorPoolReportsNoPoolTraffic: a model without a NewRunner
// hook has no predictor pool — it runs through Model.Run and leaves the
// pool counters silent, mirroring the trace-cache convention.
func TestNoPredictorPoolReportsNoPoolTraffic(t *testing.T) {
	reg := metrics.NewRegistry()
	m := testMatrix(t, []Model{withoutRunner(pooledGshare(nil))}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{200})
	if _, err := Run(m, Config{Parallelism: 1, Metrics: reg}, &collectSink{}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if h, ms := s.Value(MetricPredictorPoolHits), s.Value(MetricPredictorPoolMisses); h != 0 || ms != 0 {
		t.Fatalf("pool traffic without NewRunner: hits=%v misses=%v", h, ms)
	}
}

// TestSimulateMatchesRunJobsAndFreshRuns: Simulate feeds the same pool,
// trace cache and pooled runners as RunJobs, so its full results agree
// with RunJobs' records and with fresh single-trace runs, in job order,
// at any parallelism; a panicking cell fails the call and names the
// cell.
func TestSimulateMatchesRunJobsAndFreshRuns(t *testing.T) {
	traces := []string{"INT01", "MM05", "WS01"}
	m := testMatrix(t, []Model{pooledGshare(nil)}, traces,
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB}, []int{700})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunJobs(jobs, Config{Parallelism: 2, NoAggregates: true}, Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 3} {
		results, err := Simulate(jobs, Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(jobs) {
			t.Fatalf("parallelism %d: %d results for %d jobs", par, len(results), len(jobs))
		}
		for i, res := range results {
			j := jobs[i]
			fresh := sim.RunTrace(gshare.New(12), workload.Generate(j.Spec, j.Branches), j.Opts)
			res.Elapsed, res.BranchesPerSec = 0, 0
			fresh.Elapsed, fresh.BranchesPerSec = 0, 0
			if !reflect.DeepEqual(res, fresh) {
				t.Fatalf("parallelism %d, %s: pooled result differs from a fresh run\n%+v\n%+v", par, j.Key(), res, fresh)
			}
			rec := sum.Records[i]
			if rec.Trace != res.Trace || rec.Mispredicts != res.Mispredicts || rec.MPPKI != res.MPPKI {
				t.Fatalf("parallelism %d, %s: record %+v disagrees with result %+v", par, j.Key(), rec, res)
			}
		}
	}

	bad := Model{Name: "bad", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		if tr.Name == "MM05" {
			panic("boom")
		}
		return sim.Result{Trace: tr.Name}
	}}
	jobs, err = testMatrix(t, []Model{bad}, traces, []predictor.Scenario{predictor.ScenarioA}, []int{50}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(jobs, Config{Parallelism: 2}); err == nil || !strings.Contains(err.Error(), "bad/MM05/A/50") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking cell must fail Simulate naming the cell, got %v", err)
	}
}
