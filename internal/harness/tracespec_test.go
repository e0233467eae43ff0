package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// specJob expands a one-cell matrix for the given trace pattern.
func specJob(t *testing.T, pattern string) Job {
	t.Helper()
	m := testMatrix(t, []Model{fakeModel("m1", flat(3))},
		[]string{pattern}, []predictor.Scenario{predictor.ScenarioA}, []int{500})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("expanded %d jobs", len(jobs))
	}
	return jobs[0]
}

func writeBPT(t *testing.T, path string, tr *trace.Trace) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordTraceSpec: named and generator records leave TraceSpec
// empty (Trace is its own spec — the byte-identity guarantee for
// pre-spec stores); file records carry the path.
func TestRecordTraceSpec(t *testing.T) {
	named := specJob(t, "INT01")
	if got := traceSpecOf(named.Spec); got != "" {
		t.Fatalf("named TraceSpec %q, want empty", got)
	}
	gen := specJob(t, "ctxflush:burst=16#3")
	if got := traceSpecOf(gen.Spec); got != "" {
		t.Fatalf("generator TraceSpec %q, want empty", got)
	}

	dir := t.TempDir()
	src, _ := workload.ResolveSpec("INT01")
	path := filepath.Join(dir, "ext.bpt")
	writeBPT(t, path, workload.Generate(src, 300))
	file := specJob(t, "file:"+path)
	if got := traceSpecOf(file.Spec); got != "file:"+path {
		t.Fatalf("file TraceSpec %q", got)
	}
}

// TestPlanResumeTraceSpecConflict: a stored cell whose workload
// description changed under the same trace name is a conflict, not a
// silent reuse; file-backed cells are exempt because the content hash
// already pins the branch stream.
func TestPlanResumeTraceSpecConflict(t *testing.T) {
	j := specJob(t, "INT01")
	rec := cellRecord(j, fakeModel("m1", flat(3)).Run(workload.Generate(j.Spec, 500), j.Opts))

	// Honest store: reused.
	plan := PlanResume([]Job{j}, []Record{rec}, Provenance{})
	if len(plan.Todo) != 0 || len(plan.ConfigConflicts) != 0 {
		t.Fatalf("clean resume: todo=%d conflicts=%v", len(plan.Todo), plan.ConfigConflicts)
	}

	// Same key, different recorded workload description: conflict.
	bad := rec
	bad.TraceSpec = "phased:period=2048#9"
	plan = PlanResume([]Job{j}, []Record{bad}, Provenance{})
	if len(plan.ConfigConflicts) != 1 || !strings.Contains(plan.ConfigConflicts[0], "stored trace spec") {
		t.Fatalf("conflicts = %v", plan.ConfigConflicts)
	}
	if len(plan.Todo) != 1 {
		t.Fatal("conflicted cell must not be reused")
	}

	// File-backed cell recorded under a different path: reused anyway.
	dir := t.TempDir()
	src, _ := workload.ResolveSpec("INT01")
	path := filepath.Join(dir, "ext.bpt")
	writeBPT(t, path, workload.Generate(src, 300))
	fj := specJob(t, "file:"+path)
	frec := cellRecord(fj, fakeModel("m1", flat(3)).Run(workload.Generate(fj.Spec, 300), fj.Opts))
	frec.TraceSpec = "file:/some/other/host/path.bpt"
	plan = PlanResume([]Job{fj}, []Record{frec}, Provenance{})
	if len(plan.Todo) != 0 || len(plan.ConfigConflicts) != 0 {
		t.Fatalf("file path drift should not conflict: todo=%d conflicts=%v", len(plan.Todo), plan.ConfigConflicts)
	}
}

// TestSelectTracesSpecPatterns: the harness-level selector accepts
// generator specs alongside names and globs.
func TestSelectTracesSpecPatterns(t *testing.T) {
	specs, err := SelectTraces([]string{"INT01", "loopy:trip=9#2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[1].Name != "loopy:trip=9#2" {
		t.Fatalf("got %+v", specs)
	}
	if _, err := SelectTraces([]string{"loopy:warp=1"}); err == nil {
		t.Fatal("bad spec accepted")
	}
}
