package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/predictor"
)

// Partitioned sweeps. A sweep split across processes or hosts (by model,
// by trace) writes one partial store per partition; the partial stores
// are merged by concatenating them and compacting the result, or by
// resuming the whole matrix against the concatenation. These tests pin
// that the merged view is the one an uninterrupted run would have
// written, and that partitions which disagree about how a cell was
// measured are refused rather than silently mixed.

// runGrid executes a fake-model grid and returns every emitted record.
func runGrid(t *testing.T, models []string, traces []string, cfg Config) []Record {
	t.Helper()
	ms := make([]Model, len(models))
	for i, m := range models {
		ms[i] = fakeModel(m, func(tr string) float64 { return float64(len(m) + len(tr)) })
	}
	matrix := testMatrix(t, ms, traces, []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}, []int{100})
	var sink collectSink
	if _, err := Run(matrix, cfg, &sink); err != nil {
		t.Fatal(err)
	}
	return sink.recs
}

// scrubTiming zeroes the fields that legitimately differ between two
// runs of the same cells: wall-clock telemetry and provenance.
func scrubTiming(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		r.ElapsedSec = 0
		r.BranchesPerSec = 0
		r.Provenance = nil
		out[i] = r
	}
	return out
}

// concatStores writes each partial store as JSONL, concatenates the
// files into one and returns its path — `cat a.jsonl b.jsonl > all.jsonl`.
func concatStores(t *testing.T, parts ...[]Record) string {
	t.Helper()
	var buf bytes.Buffer
	for _, part := range parts {
		sink := NewJSONLSink(&buf)
		for _, r := range part {
			if err := sink.Emit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "all.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readStore reads the concatenation of parts back as one store: what
// a reader of the merged file sees, including the upgrade of records
// written without provenance.
func readStore(t *testing.T, parts ...[]Record) []Record {
	t.Helper()
	recs, _, err := ReadStoreFile(concatStores(t, parts...))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// mergeStores reads the concatenation of parts back and compacts it.
func mergeStores(t *testing.T, parts ...[]Record) ([]Record, CompactStats) {
	t.Helper()
	return Compact(readStore(t, parts...))
}

// TestMergeModelPartitionEqualsUnionRun is the core merge property: a
// sweep partitioned by model (the first matrix axis) and merged back is
// record-for-record identical to the same sweep run uninterrupted —
// including the aggregates, which group strictly within one model so no
// float-summation order changes.
func TestMergeModelPartitionEqualsUnionRun(t *testing.T) {
	traces := []string{"INT01", "INT02", "MM01"}
	whole := readStore(t, runGrid(t, []string{"ma", "mb"}, traces, Config{}))
	partA := runGrid(t, []string{"ma"}, traces, Config{})
	partB := runGrid(t, []string{"mb"}, traces, Config{})

	merged, stats := mergeStores(t, partA, partB)
	if !reflect.DeepEqual(scrubTiming(merged), scrubTiming(whole)) {
		t.Fatalf("merged partitions diverge from the union run\n got %d records\nwant %d records", len(merged), len(whole))
	}
	if stats.CellsOut != 12 { // 2 models x 3 traces x 2 scenarios
		t.Fatalf("CellsOut = %d, want 12", stats.CellsOut)
	}
	if stats.AggregatesOut == 0 {
		t.Fatal("merge dropped the aggregates")
	}
}

// TestMergeTracePartitionEqualsUnionRun partitions by trace instead:
// cell order differs from the union run (first appearance across the
// concatenation), so compare as sets, and aggregates must still roll up
// the union.
func TestMergeTracePartitionEqualsUnionRun(t *testing.T) {
	whole := readStore(t, runGrid(t, []string{"ma"}, []string{"INT01", "INT02", "MM01", "MM02"}, Config{}))
	partA := runGrid(t, []string{"ma"}, []string{"INT01", "MM01"}, Config{})
	partB := runGrid(t, []string{"ma"}, []string{"INT02", "MM02"}, Config{})

	merged, _ := mergeStores(t, partA, partB)
	byKey := func(recs []Record) map[string]Record {
		m := make(map[string]Record)
		for _, r := range scrubTiming(recs) {
			switch r.Kind {
			case KindCell, "":
				m["cell/"+r.Key()] = r
			default:
				m[r.Kind+"/"+r.Model+"/"+r.Category+"/"+r.Scenario] = r
			}
		}
		return m
	}
	got, want := byKey(merged), byKey(whole)
	if len(got) != len(want) {
		t.Fatalf("merged has %d distinct records, union run has %d", len(got), len(want))
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("record %s diverges\n got: %+v\nwant: %+v", k, got[k], want[k])
		}
	}
}

// TestMergeRecomputesMissingAggregates: partitions written with
// NoAggregates compact to a cell-only store, and resuming the union
// matrix against their concatenation runs nothing and appends exactly
// one aggregate set — the one the uninterrupted run would have written.
func TestMergeRecomputesMissingAggregates(t *testing.T) {
	partA := runGrid(t, []string{"ma"}, []string{"INT01"}, Config{NoAggregates: true})
	partB := runGrid(t, []string{"ma"}, []string{"INT02"}, Config{NoAggregates: true})
	whole := readStore(t, runGrid(t, []string{"ma"}, []string{"INT01", "INT02"}, Config{}))

	if _, stats := mergeStores(t, partA, partB); stats.AggregatesIn != 0 || stats.AggregatesOut != 0 {
		t.Fatalf("cell-only partitions compacted to %d -> %d aggregates, want 0 -> 0", stats.AggregatesIn, stats.AggregatesOut)
	}

	path := concatStores(t, partA, partB)
	ma := fakeModel("ma", func(tr string) float64 { return float64(len("ma") + len(tr)) })
	jobs, err := testMatrix(t, []Model{ma}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}, []int{100}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ResumeStoreFile(path, jobs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != len(jobs) {
		t.Fatalf("resume re-ran %d of %d merged cells", len(jobs)-sum.Skipped, len(jobs))
	}
	recs, _, err := ReadStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var aggs, wantAggs []Record
	for _, r := range recs {
		if r.Kind != KindCell && r.Kind != "" {
			aggs = append(aggs, r)
		}
	}
	for _, r := range whole {
		if r.Kind != KindCell && r.Kind != "" {
			wantAggs = append(wantAggs, r)
		}
	}
	if len(wantAggs) == 0 {
		t.Fatal("union run wrote no aggregates")
	}
	if !reflect.DeepEqual(scrubTiming(aggs), scrubTiming(wantAggs)) {
		t.Fatalf("resume appended aggregates %+v\nwant the union run's %+v", aggs, wantAggs)
	}
}

// TestMergeNewestSuccessWins: a failed cell in an earlier store is
// superseded by the later store's success, and a stale failure in a
// later store never shadows an earlier success.
func TestMergeNewestSuccessWins(t *testing.T) {
	fail := Record{Kind: KindCell, Model: "m", Trace: "INT01", Scenario: "A", Branches: 100, Err: "worker died"}
	okay := Record{Kind: KindCell, Model: "m", Trace: "INT01", Scenario: "A", Branches: 100, Window: 24, ExecDelay: 6, MPKI: 2, MPPKI: 40}
	for _, order := range [][][]Record{{{fail}, {okay}}, {{okay}, {fail}}} {
		merged, stats := mergeStores(t, order...)
		if stats.CellsOut != 1 || merged[0].Failed() {
			t.Fatalf("merged = %+v (stats %+v), want the success to win", merged, stats)
		}
	}
}

// TestMergeRefusesConflictingStores: a cell measured under a different
// pipeline configuration or model spec than the sweep requests is an
// experiment mismatch, not a mergeable partition — resuming the union
// matrix against the concatenation refuses it instead of mixing
// configurations in one store.
func TestMergeRefusesConflictingStores(t *testing.T) {
	m := fakeModel("m", flat(2))
	m.Spec = "tage:tables=9"
	jobs, err := testMatrix(t, []Model{m}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{100}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	base := Record{Kind: KindCell, Model: "m", Spec: "tage:tables=9", Trace: "INT01", Category: "INT",
		Scenario: "A", Branches: 100, Window: 24, ExecDelay: 6, MPKI: 2}
	other := base
	other.Trace = "INT02"

	otherWindow := other
	otherWindow.Window = 48
	if _, err := ResumeStoreFile(concatStores(t, []Record{base}, []Record{otherWindow}), jobs, Config{}, nil); err == nil || !strings.Contains(err.Error(), "window/execdelay") {
		t.Fatalf("window conflict not refused: %v", err)
	}

	otherSpec := other
	otherSpec.Spec = "tage:tables=13"
	if _, err := ResumeStoreFile(concatStores(t, []Record{base}, []Record{otherSpec}), jobs, Config{}, nil); err == nil || !strings.Contains(err.Error(), "model spec") {
		t.Fatalf("spec conflict not refused: %v", err)
	}

	// A failed record carries no pipeline config (see failedRecord) and
	// must never manufacture a conflict.
	failed := Record{Kind: KindCell, Model: "m", Trace: "INT02", Scenario: "A", Branches: 100, Err: "boom"}
	sum, err := ResumeStoreFile(concatStores(t, []Record{base}, []Record{failed}), jobs, Config{}, nil)
	if err != nil {
		t.Fatalf("failed record caused a bogus conflict: %v", err)
	}
	if sum.Skipped != 1 || sum.Failed != 0 {
		t.Fatalf("resume reused %d cells with %d failures, want the success reused and the failure re-run", sum.Skipped, sum.Failed)
	}
}
