package repro

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

var updateSpecGolden = flag.Bool("update", false, "rewrite testdata/spec-canonical.golden from the current code")

// specGoldenLine renders one corpus entry: the input, quoted, then its
// canonical form or "error".
func specGoldenLine(b *strings.Builder, in string, canon string, err error) {
	if err != nil {
		canon = "error"
	}
	fmt.Fprintf(b, "%q -> %s\n", in, canon)
}

// TestSpecCanonicalGolden locks the model-spec grammar: a fixed corpus
// — the seeded random specs of TestSpecCanonicalRoundTrip, every named
// model with and without a storage delta, the error table, a few
// non-canonical spellings and the sweep expansions — maps to exactly the
// canonical strings (or errors) in testdata/spec-canonical.golden. Cell
// keys and store records are these strings, so how the grammar is
// implemented must not move a byte. Regenerate after an intended change
// with
//
//	go test . -run TestSpecCanonicalGolden -update
func TestSpecCanonicalGolden(t *testing.T) {
	var b strings.Builder
	parse := func(in string) {
		s, err := ParseSpec(in)
		specGoldenLine(&b, in, s.Canonical(), err)
	}
	r := rand.New(rand.NewSource(20260727))
	for i := 0; i < 2000; i++ {
		parse(randSpec(r))
	}
	for _, name := range ModelNames() {
		for _, suffix := range []string{"", "@+0", "@+2", "@-3"} {
			parse(name + suffix)
		}
	}
	for _, c := range specErrorCases {
		parse(c.spec)
	}
	for _, in := range []string{
		" tage ", "tage:tables=9 , hist= 6:500", "tage:ium=true,banked=false",
		"tage:seed=007", "gshare:log=014@-0", "tage@+1@+2", "composed:lsc+tage+ium,log=9",
		"composed:tage+ium,", "composed:tage, tables=4", "gehl:hist=2: 50",
	} {
		parse(in)
	}
	sweep := func(bases []string, key string, values []string) {
		out, err := specfield.Sweep(bases, key, values, ParseSpec)
		specGoldenLine(&b, fmt.Sprintf("sweep %s over %s: %s", key, strings.Join(bases, " "), strings.Join(values, " ")),
			strings.Join(out, " "), err)
	}
	sweep([]string{"tage:tables=13"}, "tables", []string{"11", "12", "13"})
	sweep([]string{"tage", "tage:log=11"}, "log", []string{"11"})
	sweep([]string{"tage", "gehl:log=8"}, "hist", []string{"6:500", "6:2000"})
	sweep([]string{"tage-lsc"}, "tables", []string{"9"})
	sweep([]string{"tage"}, "tables", nil)

	golden := filepath.Join("testdata", "spec-canonical.golden")
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
