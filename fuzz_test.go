package repro

import "testing"

// FuzzParseSpec: model-spec strings come from the command line, so the
// parser must be total, and every spec it accepts must have a canonical
// form that parses back and canonicalises to itself.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"tage", "tage-lsc@+2", "gshare:log=20@-3", "tage:tables=9,hist=6:2000",
		"composed:tage+ium+lsc,tables=10", "gehl:log=10", " ftlpp ", "tage@+1@+2",
		"composed:", "tage:tables=", "neural:hist=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		canon := spec.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its canonical form %q does not parse: %v", s, canon, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", s, canon, got)
		}
	})
}
