package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/predictor"
)

// Experiment couples an id with the suites it reads and the report it
// renders from them.
type Experiment struct {
	ID    string
	Title string
	// report reads the suites of every model under every scenario; Run
	// simulates the ones no earlier experiment of the call already did.
	models    []string
	scenarios []predictor.Scenario
	report    func(s *suites) Report
}

// Registry lists every experiment in the paper-order E1..E15.
func Registry() []Experiment {
	return []Experiment{
		{"E1", "Effective writes with silent-update elimination (§4.1.1)",
			[]string{"tage", "gehl", "gshare"}, scenarioA, e1},
		{"E2", "Delayed-update scenarii (§4.1.2)",
			[]string{"gshare", "gehl", "tage"}, allScenarios, e2},
		{"E3", "Bank-interleaved single-ported TAGE (§4.3)",
			[]string{"tage", "tage-banked"}, []predictor.Scenario{predictor.ScenarioC}, e3},
		{"E4", "Immediate Update Mimicker (§5.1)",
			[]string{"tage", "tage-iumflag"}, allScenarios, e4},
		{"E5", "Loop predictor on top of TAGE+IUM (§5.2)",
			[]string{"tage+ium", "tage+ium+loop"}, scenarioA, e5},
		{"E6", "Statistical Corrector on top of TAGE+IUM+loop (§5.3)",
			[]string{"tage+ium+loop", "isl-tage"}, scenarioA, e6},
		{"E7", "ISL-TAGE vs scaling TAGE to 2 Mbits (§5.4)",
			[]string{"tage", "isl-tage", "tage-2m"}, scenarioA, e7},
		{"E8", "Local Statistical Corrector (§6.1)",
			[]string{"tage+ium", "isl-tage", "tage+ium+loop+sc+lsc", "tage+ium+lsc"}, scenarioA, e8},
		{"E9", "512Kbit budget match: TAGE-LSC vs ISL-TAGE (§6.1)",
			[]string{"tage-lsc", "isl-tage-512k"}, scenarioA, e9},
		{"E10", "History series robustness of TAGE-LSC (§6.2)",
			e10Models(), scenarioA, e10},
		{"E11", "Figure 9: TAGE vs TAGE-LSC size scaling", nil, nil, e11},
		{"E12", "Figure 10: TAGE family vs neural predictors",
			[]string{"isl-tage", "tage-lsc", "ohsnap", "ftlpp"}, scenarioA, e12},
		{"E13", "Interleaved TAGE-LSC (§7.1)",
			[]string{"tage-lsc", "tage-lsc-banked"}, scenarioA, e13},
		{"E14", "Eliminating retire reads on TAGE-LSC (§7.2)",
			[]string{"tage-lsc-banked"}, []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC, predictor.ScenarioB}, e14},
		{"E15", "Benchmark set characterisation (§2.2)",
			[]string{"tage+ium+loop"}, scenarioA, e15},
	}
}

func e10Models() []string {
	var out []string
	for _, v := range e10Variants {
		out = append(out, v.label)
	}
	return out
}

// Lookup finds an experiment by id (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render writes a report as aligned text.
func Render(w io.Writer, r Report) {
	fmt.Fprintf(w, "== %s: %s\n", r.ID, r.Title)
	width := 0
	for _, row := range r.Rows {
		if len(row.Label) > width {
			width = len(row.Label)
		}
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-*s  paper=%-12s measured=%s\n", width, row.Label, row.Paper, row.Measured)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s\n", status, c.Name)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// RenderMarkdown writes a report as a markdown section with a table.
func RenderMarkdown(w io.Writer, r Report) {
	fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(w, "| Quantity | Paper | Measured |\n|---|---|---|\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "| %s | %s | %s |\n", row.Label, row.Paper, row.Measured)
	}
	fmt.Fprintln(w)
	for _, c := range r.Checks {
		mark := "✅"
		if !c.Pass {
			mark = "❌"
		}
		fmt.Fprintf(w, "- %s %s\n", mark, c.Name)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "- _%s_\n", n)
	}
	fmt.Fprintln(w)
}
