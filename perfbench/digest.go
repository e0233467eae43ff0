package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/harness"
)

// recordDigest hashes every field of a record except the wall-clock
// telemetry (elapsed time, branches per second) and the provenance
// stamp: the simulated statistics, which must repeat exactly.
func recordDigest(r harness.Record) string {
	r.ElapsedSec, r.BranchesPerSec, r.Provenance = 0, 0, nil
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Record always marshals
	}
	return shortHash(b)
}

// reportDigest hashes a rendered experiment report without the lines
// that name the run's own result store: those are notes on the store's
// provenance, which differ from run to run and say nothing about the
// simulated statistics.
func reportDigest(text, storePath string) string {
	var kept []string
	for _, line := range strings.Split(text, "\n") {
		if storePath == "" || !strings.Contains(line, storePath) {
			kept = append(kept, line)
		}
	}
	return shortHash([]byte(strings.Join(kept, "\n")))
}

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:4])
}

// cellDigests is one workload's outcome as a digest per cell (or per
// experiment), in the workload's own fixed order.
type cellDigests struct {
	Keys    []string
	Digests []string
}

func (c *cellDigests) add(key, digest string) {
	c.Keys = append(c.Keys, key)
	c.Digests = append(c.Digests, digest)
}

// total is the digest of the whole workload: its keys and cell digests.
func (c cellDigests) total() string {
	h := sha256.New()
	for i, k := range c.Keys {
		fmt.Fprintf(h, "%s=%s\n", k, c.Digests[i])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// keysDigest identifies the list of cells, so a reference taken over a
// different grid is recognised as such.
func (c cellDigests) keysDigest() string {
	return shortHash([]byte(strings.Join(c.Keys, "\n")))
}

// refEntry is the reference outcome of one workload (and seed, where
// the workload depends on it).
type refEntry struct {
	Keys  string   `json:"keys"`
	Cells []string `json:"cells"`
}

//go:embed reference.json
var referenceJSON []byte

// referenceFile is the path reference.json is rewritten at by
// --update-reference, relative to the repository root.
const referenceFile = "perfbench/reference.json"

func loadReference() (map[string]refEntry, error) {
	return parseReference(referenceJSON)
}

func parseReference(b []byte) (map[string]refEntry, error) {
	ref := make(map[string]refEntry)
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("perfbench: reference.json: %w", err)
	}
	return ref, nil
}

// cellsMoved counts the cells whose digest differs from the reference.
// A reference over a different list of cells counts every cell as moved.
// ok is false when the reference holds no entry for name.
func cellsMoved(ref map[string]refEntry, name string, got cellDigests) (moved int, ok bool) {
	want, ok := ref[name]
	if !ok {
		return 0, false
	}
	if want.Keys != got.keysDigest() || len(want.Cells) != len(got.Digests) {
		return len(got.Digests), true
	}
	for i, d := range got.Digests {
		if want.Cells[i] != d {
			moved++
		}
	}
	return moved, true
}

// updateReference rewrites reference.json on disk with the given
// entries set; the next build embeds it.
func updateReference(entries map[string]cellDigests) error {
	b, err := os.ReadFile(referenceFile)
	if err != nil {
		return err
	}
	ref, err := parseReference(b)
	if err != nil {
		return err
	}
	for name, c := range entries {
		ref[name] = refEntry{Keys: c.keysDigest(), Cells: c.Digests}
	}
	names := make([]string, 0, len(ref))
	for n := range ref {
		names = append(names, n)
	}
	sort.Strings(names)
	var out strings.Builder
	out.WriteString("{\n")
	for i, n := range names {
		e, _ := json.Marshal(ref[n])
		fmt.Fprintf(&out, "  %q: %s", n, e)
		if i < len(names)-1 {
			out.WriteString(",")
		}
		out.WriteString("\n")
	}
	out.WriteString("}\n")
	return os.WriteFile(referenceFile, []byte(out.String()), 0o644)
}
