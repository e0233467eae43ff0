package workload

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/specfield"
)

var updateSpecGolden = flag.Bool("update", false, "rewrite testdata/tracespec-canonical.golden from the current code")

// specGoldenLine renders one corpus entry: the input, quoted, then its
// canonical form or "error".
func specGoldenLine(b *strings.Builder, in string, canon string, err error) {
	if err != nil {
		canon = "error"
	}
	fmt.Fprintf(b, "%q -> %s\n", in, canon)
}

// TestTraceSpecCanonicalGolden locks the trace-spec grammar: a fixed
// corpus — the seeded random specs of TestParseCanonicalIdentity, every
// named benchmark, every kind at its defaults, the error table, the
// valid specs of the other spec tests and the sweep expansions — maps
// to exactly the canonical strings (or errors) in
// testdata/tracespec-canonical.golden. Cell keys and store records are
// these strings, so how the grammar is implemented must not move a
// byte. Regenerate after an intended change with
//
//	go test ./internal/workload -run TestTraceSpecCanonicalGolden -update
func TestTraceSpecCanonicalGolden(t *testing.T) {
	var b strings.Builder
	parse := func(in string) {
		s, err := ParseTraceSpec(in)
		specGoldenLine(&b, in, s.Canonical(), err)
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		parse(randomSpec(r))
	}
	for _, s := range All() {
		parse(s.Name)
	}
	for _, kind := range Kinds() {
		for _, suffix := range []string{"", ":", ":#1", ":#2"} {
			parse(kind + suffix)
		}
	}
	for _, c := range traceErrorCases {
		parse(c.spec)
	}
	for _, in := range []string{
		"mix:loopy=2,datadep=1", "mix:loopy=2,datadep=1#7", "mix:loopy=1,phased=2",
		"loopy:jitter=3", "loopy:trip=100,jitter=8", "loopy:trip=5,jitter=2", "loopy:jitter=2#12345",
		"phased:", "phased:phases=8", "phased:period=1024#1", "phased:period=4096#1",
		"phased:period=4096,phases=8#1", "datadep:bias=0.9", "datadep:bias=.90", "callret:ret=3e-1",
		"ctxflush:period=20000,burst=32#5", "ctxflush:burst=16#3", " loopy: trip = 100 , jitter=8 ",
		"file:x.bpt", "file: x ", "file:traces/gcc.bpt", "INT0[12]", "INT*", "datadep:#", "loopy:trip=1e3",
	} {
		parse(in)
	}
	sweep := func(bases []string, key string, values []string) {
		out, err := specfield.Sweep(bases, key, values, ParseTraceSpec)
		specGoldenLine(&b, fmt.Sprintf("sweep %s over %s: %s", key, strings.Join(bases, " "), strings.Join(values, " ")),
			strings.Join(out, " "), err)
	}
	sweep([]string{"phased:", "phased:phases=8"}, "period", []string{"1024", "4096"})
	sweep([]string{"phased:period=1024", "phased:"}, "period", []string{"1024"})
	sweep([]string{"phased:"}, "period", nil)
	sweep([]string{"loopy:jitter=3"}, "trip", []string{"100"})
	sweep([]string{"loopy:jitter=2#7", "loopy:jitter=2#8"}, "trip", []string{"2", "3", "128"})
	sweep([]string{"INT01"}, "trip", []string{"1"})
	sweep([]string{"file:x.bpt"}, "trip", []string{"1"})

	golden := filepath.Join("testdata", "tracespec-canonical.golden")
	if *updateSpecGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	got := strings.Split(b.String(), "\n")
	lines := strings.Split(string(want), "\n")
	if len(got) != len(lines) {
		t.Fatalf("golden has %d lines, corpus rendered %d", len(lines), len(got))
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Fatalf("line %d: got\n\t%s\nwant\n\t%s", i+1, got[i], lines[i])
		}
	}
}
