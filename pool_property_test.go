package repro

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Property suite for the predictor pool. The contract under test is the
// one NewRunner and RunSuite document: a pooled instance Reset between
// runs is byte-identical to fresh Run calls, whatever order the traces
// go through it. The specs are drawn from the declarative grammar so
// arbitrary points of the design space — not just the named models —
// are covered.

// propertySpecs samples the spec grammar deterministically: every kind,
// parameterised variants, budget-scaled variants, and composite stacks.
func propertySpecs(t *testing.T, rng *rand.Rand) []ModelSpec {
	t.Helper()
	raw := []string{
		"tage",
		"gshare",
		"gehl",
		"ohsnap",
		"ftlpp",
		"tage-lsc",
		fmt.Sprintf("tage:tables=%d,hist=%d:%d", 5+rng.Intn(8), 4+rng.Intn(4), 200+rng.Intn(400)),
		fmt.Sprintf("gshare:log=%d", 12+rng.Intn(6)),
		"composed:tage+ium",
		fmt.Sprintf("tage@%+d", 1-rng.Intn(3)),
	}
	specs := make([]ModelSpec, 0, len(raw))
	for _, s := range raw {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// normalize zeroes the wall-clock fields, the only legitimate
// difference between two runs of the same cell.
func normalize(r Result) Result {
	r.Elapsed = 0
	r.BranchesPerSec = 0
	return r
}

// TestPooledRunnerMatchesFreshAcrossSpecs: for random specs, scenarios
// and traces, a NewRunner closure run repeatedly (dirty pool, Reset
// between calls) returns exactly what fresh Model.Run calls return.
func TestPooledRunnerMatchesFreshAcrossSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scenarios := []Scenario{ScenarioI, ScenarioA, ScenarioB, ScenarioC}
	names := TraceNames()
	for _, spec := range propertySpecs(t, rng) {
		spec := spec
		t.Run(spec.Canonical(), func(t *testing.T) {
			t.Parallel()
			m, err := spec.Build()
			if err != nil {
				t.Fatalf("Build(%s): %v", spec, err)
			}
			run := m.NewRunner()
			for i := 0; i < 3; i++ {
				sc := scenarios[rng.Intn(len(scenarios))]
				name := names[rng.Intn(len(names))]
				opt := Options{Scenario: sc, Window: 16 + 8*rng.Intn(2)}
				tr := MustGenerateTrace(name, 1500+rng.Intn(1500))
				pooled := normalize(run(tr, opt))
				fresh := normalize(m.Run(tr, opt))
				if !reflect.DeepEqual(pooled, fresh) {
					t.Fatalf("run %d (%s, scenario %v): pooled runner diverged from fresh run\npooled: %+v\nfresh:  %+v",
						i, name, sc, pooled, fresh)
				}
			}
		})
	}
}

// TestRunSuiteShardingZeroMovement: RunSuite over a subset of the suite
// must return per-trace results identical to fresh GenerateTrace + Run
// calls, and a suite cut into shards, or run in another order, must
// not move any trace — which traces share the pooled instance is
// scheduling, never measurement.
func TestRunSuiteShardingZeroMovement(t *testing.T) {
	names := []string{"INT01", "CLIENT01", "MM05", "SERVER03", "WS07", "INT04", "MM01"}
	for _, modelName := range []string{"tage", "gshare"} {
		m, err := LookupModel(modelName)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Scenario: ScenarioA, Window: 24}
		suite, err := m.RunSuite(names, 2500, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(suite) != len(names) {
			t.Fatalf("%s: %d results, want %d", modelName, len(suite), len(names))
		}
		want := make(map[string]Result, len(names))
		for i, name := range names {
			fresh := normalize(m.Run(MustGenerateTrace(name, 2500), opt))
			if got := normalize(suite[i]); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("%s trace %s: suite result differs from a fresh run\ngot:  %+v\nwant: %+v",
					modelName, name, got, fresh)
			}
			want[name] = fresh
		}
		for _, shards := range []int{2, 3, len(names)} {
			for lo := 0; lo < len(names); lo += (len(names) + shards - 1) / shards {
				hi := min(lo+(len(names)+shards-1)/shards, len(names))
				// Run each shard back to front so every trace follows a
				// different predecessor than in the whole-suite run.
				shard := make([]string, 0, hi-lo)
				for i := hi - 1; i >= lo; i-- {
					shard = append(shard, names[i])
				}
				res, err := m.RunSuite(shard, 2500, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, name := range shard {
					if got := normalize(res[i]); !reflect.DeepEqual(got, want[name]) {
						t.Fatalf("%s shards=%d trace %s: sharded result moved\ngot:  %+v\nwant: %+v",
							modelName, shards, name, got, want[name])
					}
				}
			}
		}
	}
}
