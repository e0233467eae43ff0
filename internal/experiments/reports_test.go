package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateReports = flag.Bool("update", false, "rewrite testdata/reports-*.txt from the current code")

// reportBranches is the trace length the report golden file locks.
const reportBranches = 3000

func reportsGolden() string {
	return filepath.Join("testdata", "reports-3000.txt")
}

// renderAll renders every experiment in one Run, sharing suites.
func renderAll(t *testing.T, cfg Config) []byte {
	t.Helper()
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	var buf bytes.Buffer
	if err := Run(ids, cfg, func(r Report) { Render(&buf, r) }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderOne renders one experiment in its own Run.
func renderOne(t *testing.T, id string, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Run([]string{id}, cfg, func(r Report) { Render(&buf, r) }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportsGolden locks every rendered report, FAIL lines included, at
// a small fixed trace length, rendered both in one Run over all
// experiments (suites shared between them) and one experiment per Run:
// how experiments run their suites must not move a single byte.
// Regenerate after an intended change with
//
//	go test ./internal/experiments -run TestReportsGolden -update
func TestReportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders all fifteen experiments")
	}
	cfg := Config{BranchesPerTrace: reportBranches}
	got := renderAll(t, cfg)
	if *updateReports {
		if err := os.WriteFile(reportsGolden(), got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(reportsGolden())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reports from one Run moved against %s:\n%s", reportsGolden(), got)
	}
	var one []byte
	for _, e := range Registry() {
		one = append(one, renderOne(t, e.ID, cfg)...)
	}
	if !bytes.Equal(one, want) {
		t.Fatalf("reports rendered one experiment per Run moved against %s:\n%s", reportsGolden(), one)
	}
}

// TestE11StoreRerender: E11 rendered through a fresh result store, then
// re-rendered from that complete store, gives the same report as the
// in-memory run. The provenance-drift note a re-render from a store
// written by an uncommitted tree carries is dropped before comparing:
// it describes the working tree, not the measurement.
func TestE11StoreRerender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 9 grid")
	}
	render := func(cfg Config) []byte {
		var rep Report
		if err := Run([]string{"E11"}, cfg, func(r Report) { rep = r }); err != nil {
			t.Fatal(err)
		}
		notes := rep.Notes[:0:0]
		for _, n := range rep.Notes {
			if !strings.HasPrefix(n, "store ") {
				notes = append(notes, n)
			}
		}
		rep.Notes = notes
		var buf bytes.Buffer
		Render(&buf, rep)
		return buf.Bytes()
	}
	mem := render(Config{BranchesPerTrace: reportBranches})
	cfg := Config{BranchesPerTrace: reportBranches, ResultStore: filepath.Join(t.TempDir(), "e11.jsonl")}
	fresh := render(cfg)
	again := render(cfg)
	if !bytes.Equal(fresh, again) {
		t.Fatalf("re-render from the store differs:\nfresh:\n%s\nagain:\n%s", fresh, again)
	}
	if !bytes.Equal(fresh, mem) {
		t.Fatalf("store-backed render differs from the in-memory one:\nstore:\n%s\nmemory:\n%s", fresh, mem)
	}
}
