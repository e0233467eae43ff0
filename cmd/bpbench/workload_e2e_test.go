package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
)

// readCells reads a JSONL store and returns its cell records keyed for
// comparison, with the timing/provenance noise scrubbed.
func readCells(t *testing.T, path string) map[string]repro.BenchRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := repro.ReadBenchRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]repro.BenchRecord)
	for _, r := range recs {
		if r.Kind != "cell" {
			continue
		}
		r.ElapsedSec, r.BranchesPerSec, r.SimBranches = 0, 0, 0
		r.Provenance = nil
		cells[r.Key()] = r
	}
	return cells
}

// TestGeneratorSpecResume: a generator-spec workload runs through a
// -resume store, and a second resume of the same spec reuses every cell
// instead of re-simulating — spec strings are stable cell identities.
func TestGeneratorSpecResume(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	args := []string{"-models", "gshare", "-traces", "phased:period=4096#1",
		"-scenarios", "A", "-branches", "5000", "-resume", store}
	if code, _, errOut := runCapture(t, args...); code != 0 {
		t.Fatalf("first resume exited %d:\n%s", code, errOut)
	}
	cells := readCells(t, store)
	if len(cells) != 1 {
		t.Fatalf("store has %d cells, want 1", len(cells))
	}
	for _, r := range cells {
		if r.Trace != "phased:period=4096#1" || r.Category != "PHASED" {
			t.Fatalf("cell identity %q/%q", r.Trace, r.Category)
		}
		if r.TraceSpec != "" {
			t.Fatalf("generator cells must not carry a separate TraceSpec, got %q", r.TraceSpec)
		}
	}
	code, _, errOut := runCapture(t, args...)
	if code != 0 {
		t.Fatalf("second resume exited %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 1 of 1 cells, ran 0") {
		t.Fatalf("second resume should reuse the cell:\n%s", errOut)
	}
}

// TestTraceSweepExpandsCells: -trace-sweep crosses the base spec with
// the swept field, one cell per value.
func TestTraceSweepExpandsCells(t *testing.T) {
	code, out, errOut := runCapture(t, "-models", "gshare", "-traces", "loopy:",
		"-trace-sweep", "trip=10:12", "-scenarios", "A", "-branches", "2000",
		"-format", "jsonl", "-noaggregates")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errOut)
	}
	var traces []string
	recs, err := repro.ReadBenchRecords(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == "cell" {
			traces = append(traces, r.Trace)
		}
	}
	sort.Strings(traces)
	want := []string{"loopy:trip=10", "loopy:trip=11", "loopy:trip=12"}
	if strings.Join(traces, " ") != strings.Join(want, " ") {
		t.Fatalf("swept traces %v, want %v", traces, want)
	}
}

// TestSpecDeterministicAcrossParallelism: the same generator spec +
// seed measures identically no matter how many workers simulate it.
func TestSpecDeterministicAcrossParallelism(t *testing.T) {
	cells := func(par string) map[string]repro.BenchRecord {
		code, out, errOut := runCapture(t, "-models", "tage", "-traces", "mix:loopy=2,datadep=1#3",
			"-scenarios", "A,C", "-branches", "5000", "-format", "jsonl", "-noaggregates",
			"-parallelism", par)
		if code != 0 {
			t.Fatalf("-parallelism %s exited %d:\n%s", par, code, errOut)
		}
		recs, err := repro.ReadBenchRecords(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]repro.BenchRecord)
		for _, r := range recs {
			r.ElapsedSec, r.BranchesPerSec = 0, 0
			r.Provenance = nil
			m[r.Key()] = r
		}
		return m
	}
	serial, par := cells("1"), cells("2")
	if len(serial) != 2 || len(par) != 2 {
		t.Fatalf("cell counts %d/%d, want 2", len(serial), len(par))
	}
	for k, s := range serial {
		if p := par[k]; p != s {
			t.Fatalf("cell %s differs across -parallelism:\n1: %+v\n2: %+v", k, s, p)
		}
	}
}

// TestExternalTraceLocalVsDistributed is the acceptance end-to-end for
// file-backed workloads: a trace converted from CBP text runs through a
// -resume store under its content-hash identity, keeping the path it was
// given as the record's trace_spec. A second process holding a copy of
// the same file under another path — a partition of the sweep run on
// another host — measures identical cells, and the two partial stores
// merge by concatenation: resuming against it reuses every cell.
func TestExternalTraceLocalVsDistributed(t *testing.T) {
	dir := t.TempDir()

	// Convert a text trace the way an external user would. The sample
	// lives in the tracegen package's testdata; reuse it here.
	text := filepath.Join("..", "tracegen", "testdata", "cbp-sample.txt")
	in, err := os.Open(text)
	if err != nil {
		t.Fatal(err)
	}
	tr, st, err := repro.ConvertTrace(in, "cbp", "cbp-sample")
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Conditional == 0 {
		t.Fatal("sample converted to zero branches")
	}
	writeBPT := func(path string) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := repro.WriteTrace(f, tr); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	bpt := filepath.Join(dir, "sample.bpt")
	writeBPT(bpt)

	run := func(path, store string) map[string]repro.BenchRecord {
		t.Helper()
		if code, _, errOut := runCapture(t, "-models", "tage,gshare", "-traces", "file:"+path,
			"-scenarios", "A", "-branches", "400", "-resume", store); code != 0 {
			t.Fatalf("run on %s exited %d:\n%s", path, code, errOut)
		}
		return readCells(t, store)
	}

	local := filepath.Join(dir, "local.jsonl")
	localCells := run(bpt, local)
	if len(localCells) != 2 {
		t.Fatalf("local store has %d cells, want 2", len(localCells))
	}
	for k, r := range localCells {
		if !strings.HasPrefix(r.Trace, "file:") || strings.Contains(r.Trace, dir) {
			t.Fatalf("%s: trace identity %q is not content-addressed", k, r.Trace)
		}
		if r.TraceSpec != "file:"+bpt {
			t.Fatalf("%s: trace_spec %q, want the path form", k, r.TraceSpec)
		}
		if r.Category != "EXT" {
			t.Fatalf("%s: category %q", k, r.Category)
		}
	}

	// The same matrix in another process over a copy at another path.
	copied := filepath.Join(dir, "elsewhere", "copy.bpt")
	writeBPT(copied)
	remote := filepath.Join(dir, "remote.jsonl")
	remoteCells := run(copied, remote)
	if len(remoteCells) != len(localCells) {
		t.Fatalf("remote produced %d cells, local %d", len(remoteCells), len(localCells))
	}
	for k, l := range localCells {
		r, ok := remoteCells[k]
		if !ok {
			t.Fatalf("remote run missing cell %s", k)
		}
		if r.TraceSpec != "file:"+copied {
			t.Fatalf("%s: remote trace_spec %q, want its own path", k, r.TraceSpec)
		}
		r.TraceSpec = l.TraceSpec
		if l != r {
			t.Fatalf("cell %s differs local vs remote:\nlocal:  %+v\nremote: %+v", k, l, r)
		}
	}

	// Merge the partial stores by concatenation; the content hash pins
	// the cells, so the differing paths are no conflict.
	var merged []byte
	for _, p := range []string{remote, local} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, b...)
	}
	store := filepath.Join(dir, "merged.jsonl")
	if err := os.WriteFile(store, merged, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCapture(t, "-models", "tage,gshare", "-traces", "file:"+bpt,
		"-scenarios", "A", "-branches", "400", "-resume", store)
	if code != 0 {
		t.Fatalf("resume of the merged store exited %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 2 of 2 cells, ran 0") {
		t.Fatalf("resume of the merged store should reuse every cell:\n%s", errOut)
	}
}
