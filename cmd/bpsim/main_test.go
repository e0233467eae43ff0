package main

import (
	"reflect"
	"strings"
	"testing"

	"repro"
)

func TestResolveValidCombinations(t *testing.T) {
	cases := []struct {
		model, scenario string
		want            repro.Scenario
	}{
		{"tage", "I", repro.ScenarioI},
		{"tage", "A", repro.ScenarioA},
		{"gshare", "b", repro.ScenarioB},
		{"tage-lsc", " c ", repro.ScenarioC},
	}
	for _, c := range cases {
		m, sc, err := resolve(c.model, c.scenario)
		if err != nil {
			t.Fatalf("resolve(%q, %q): %v", c.model, c.scenario, err)
		}
		if sc != c.want {
			t.Errorf("resolve(%q, %q) scenario = %v, want %v", c.model, c.scenario, sc, c.want)
		}
		if m == nil || m.StorageBits() <= 0 {
			t.Errorf("resolve(%q, %q) returned unusable model", c.model, c.scenario)
		}
	}
}

func TestResolveEveryListedModel(t *testing.T) {
	for _, name := range repro.ModelNames() {
		if _, _, err := resolve(name, "A"); err != nil {
			t.Errorf("listed model %q does not resolve: %v", name, err)
		}
	}
}

func TestResolveUnknownModel(t *testing.T) {
	_, _, err := resolve("not-a-predictor", "A")
	if err == nil {
		t.Fatal("unknown model must error")
	}
	// The error must name the valid identifiers so -list is discoverable.
	if !strings.Contains(err.Error(), "not-a-predictor") || !strings.Contains(err.Error(), "tage") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestResolveUnknownScenario(t *testing.T) {
	for _, bad := range []string{"", "X", "AA", "A,C"} {
		if _, _, err := resolve("tage", bad); err == nil {
			t.Errorf("scenario %q must be rejected", bad)
		}
	}
}

// TestSimulateMatchesFreshRuns: the harness-backed suite run returns,
// in suite order, exactly what fresh per-trace runs of the model return,
// whether the traces are named, globbed or generator specs; the pooled
// predictor shared by the cells never moves a result.
func TestSimulateMatchesFreshRuns(t *testing.T) {
	normalize := func(r repro.Result) repro.Result {
		r.Elapsed, r.BranchesPerSec = 0, 0
		return r
	}
	for _, tc := range []struct {
		traces []string
		want   []string
	}{
		{[]string{"MM05"}, []string{"MM05"}},
		{[]string{"INT0[12]"}, []string{"INT01", "INT02"}},
		{[]string{"loopy:trip=7"}, []string{"loopy:trip=7"}},
	} {
		for _, model := range []string{"tage", "gshare:log=14"} {
			m, sc, err := resolve(model, "B")
			if err != nil {
				t.Fatal(err)
			}
			got, err := simulate(model, tc.traces, sc, 1500, 16)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%s over %v: %d results, want %d", model, tc.traces, len(got), len(tc.want))
			}
			for i, name := range tc.want {
				fresh := m.Run(repro.MustGenerateTrace(name, 1500), repro.Options{Scenario: sc, Window: 16})
				if !reflect.DeepEqual(normalize(got[i]), normalize(fresh)) {
					t.Fatalf("%s trace %s: suite result differs from a fresh run\ngot:  %+v\nwant: %+v", model, name, got[i], fresh)
				}
			}
		}
	}
	if _, err := simulate("tage", []string{"NOPE01"}, repro.ScenarioA, 100, 24); err == nil {
		t.Fatal("unknown trace must fail before simulating")
	}
}
