package repro

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The checkpoint/resume property suite. A sweep's result store is its
// checkpoint: every finished cell is one JSONL record, and -resume
// continues an interrupted sweep from whatever the store holds. The
// contract: for any model spec, scenario and interruption point —
// including a record torn mid-write — resuming completes the store to
// exactly the records an uninterrupted run writes, so an interruption
// can change when a sweep's work happens, never what it measures.

// checkpointSpecs spans the predictor zoo: every named model (including
// the composed ISL-TAGE / LSC stacks and the neural and FTL++
// outliers), parameterised specs, an explicit composed stack, and @±d
// scaled variants.
var checkpointSpecs = []string{
	"tage", "gshare", "gehl", "ftlpp", "ohsnap",
	"isl-tage", "tage-ium", "tage-lsc", "tage-lsc-banked",
	"tage:tables=9,hist=6:300",
	"gshare:log=13",
	"composed:tage+ium+lsc",
	"tage@+1",
	"tage-lsc@-1",
}

// storeLines runs jobs into a fresh store at path and returns its lines,
// each with its trailing newline.
func storeLines(t *testing.T, path string, jobs []BenchJob) [][]byte {
	t.Helper()
	if _, err := RunBenchResumeStore(path, jobs, BenchConfig{Parallelism: 2}, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.SplitAfter(b, []byte("\n"))
}

// scrubbedStore reads a store back with wall-clock telemetry and
// provenance zeroed: the fields that legitimately differ between a
// resumed store and an uninterrupted one.
func scrubbedStore(t *testing.T, path string) []BenchRecord {
	t.Helper()
	recs, _, err := ReadBenchStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].ElapsedSec, recs[i].BranchesPerSec = 0, 0
		recs[i].Provenance = nil
	}
	return recs
}

func TestCheckpointResumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e2c))
	scenarios := []string{"I", "A", "B", "C"}
	traces := []string{"INT01", "MM05", "SERVER03", "WS07"}
	const branches = 6000

	for i, spec := range checkpointSpecs {
		spec := spec
		sc := scenarios[i%len(scenarios)]
		split := 1 + rng.Intn(len(traces)-1) // cells finished before the interruption
		torn := rng.Intn(2) == 1             // the next record was cut off mid-write
		t.Run(spec, func(t *testing.T) {
			m, err := NewBenchMatrix([]string{spec}, traces, sc, []int{branches})
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := ExpandBench(m)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			whole := filepath.Join(dir, "whole.jsonl")
			lines := storeLines(t, whole, jobs)
			if len(lines) <= len(jobs) {
				t.Fatalf("uninterrupted store has %d lines for %d cells, want cells and aggregates", len(lines), len(jobs))
			}

			// The interrupted store: the first split cells, then maybe
			// half of the next record with no newline (what kill -9
			// mid-append leaves).
			var prefix []byte
			for _, l := range lines[:split] {
				prefix = append(prefix, l...)
			}
			if torn {
				prefix = append(prefix, lines[split][:len(lines[split])/2]...)
			}
			resumed := filepath.Join(dir, "resumed.jsonl")
			if err := os.WriteFile(resumed, prefix, 0o644); err != nil {
				t.Fatal(err)
			}
			var reused, todo int
			if _, err := RunBenchResumeStore(resumed, jobs, BenchConfig{Parallelism: 2}, func(p *BenchResumePlan) error {
				reused, todo = len(p.Reused), len(p.Todo)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if reused != split || todo != len(jobs)-split {
				t.Fatalf("split %d (torn %v): resume reused %d and ran %d of %d cells", split, torn, reused, todo, len(jobs))
			}

			got, want := scrubbedStore(t, resumed), scrubbedStore(t, whole)
			if len(got) != len(want) {
				t.Fatalf("resumed store has %d records, uninterrupted %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s split %d (torn %v): record %d diverges:\n  resumed: %+v\n  full:    %+v",
						sc, split, torn, i, got[i], want[i])
				}
			}
		})
	}
}

// TestCheckpointRefusesNewerFormat: a store holding a record stamped
// with a store schema newer than this binary's must be refused with a
// message pointing at the version skew — never half-decoded, never
// truncated as if it were a crash tail, and nothing re-run over it.
func TestCheckpointRefusesNewerFormat(t *testing.T) {
	m, err := NewBenchMatrix([]string{"tage"}, []string{"INT01", "MM05"}, "A", []int{3000})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := ExpandBench(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	lines := storeLines(t, path, jobs)

	var first BenchRecord
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	prov := CurrentProvenance()
	prov.Schema++
	first.Provenance = &prov
	stamped, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	// Only the first cell, stamped newer, survives: the second cell is
	// missing, so a resume that misread the store would run it.
	future := append(stamped, '\n')
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}

	ran := false
	_, err = RunBenchResumeStore(path, jobs, BenchConfig{}, func(*BenchResumePlan) error {
		ran = true
		return nil
	})
	if err == nil {
		t.Fatal("newer-schema store was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "understands at most schema") {
		t.Fatalf("refusal does not explain the version skew: %v", msg)
	}
	if ran {
		t.Fatal("resume planned over a store it refused")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, future) {
		t.Fatalf("refused store was modified:\n got: %q\nwant: %q", after, future)
	}
}
