package workload

import "testing"

// FuzzParseTraceSpec: trace specs come from the command line, so the
// parser must be total, and every spec it accepts must have a canonical
// form that parses back and canonicalises to itself.
func FuzzParseTraceSpec(f *testing.F) {
	for _, s := range []string{
		"INT01", "INT01#2", "phased:period=4096#1", " loopy: trip = 100 , jitter=8 ",
		"mix:loopy=2,datadep=1", "mix:", "file:traces/gcc.bpt", "file: x ", "ctxflush:burst=16#3",
		"datadep:#", "loopy:trip=1e3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseTraceSpec(s)
		if err != nil {
			return
		}
		canon := spec.Canonical()
		again, err := ParseTraceSpec(canon)
		if err != nil {
			t.Fatalf("ParseTraceSpec(%q) accepted, but its canonical form %q does not parse: %v", s, canon, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", s, canon, got)
		}
	})
}
