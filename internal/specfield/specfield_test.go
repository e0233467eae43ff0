package specfield

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestSplitSpecList: the comma-separated model list splits at spec
// boundaries, not at every comma, so multi-field specs survive flag
// transport.
func TestSplitSpecList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"tage,gshare", []string{"tage", "gshare"}},
		{"tage:tables=9,hist=6:500,gshare:log=14", []string{"tage:tables=9,hist=6:500", "gshare:log=14"}},
		{"composed:tage+ium+lsc,tables=10,tage@+2", []string{"composed:tage+ium+lsc,tables=10", "tage@+2"}},
		{"tage-lsc@+1,tage:log=11,tag=8", []string{"tage-lsc@+1", "tage:log=11,tag=8"}},
		{" tage , gehl:tables=5,ctr=4 ", []string{"tage", "gehl:tables=5,ctr=4"}},
		{"hist=6:500", []string{"hist=6:500"}}, // not a spec start: one (bad) spec for ParseSpec to reject
		{"", nil},
	}
	for _, c := range cases {
		got := Split(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Split(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Split(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestSplitPatterns: commas continue a generator spec's field list but
// separate everything else.
func TestSplitPatterns(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"INT01,MM05", []string{"INT01", "MM05"}},
		{"phased:period=4096,phases=8#1,INT01", []string{"phased:period=4096,phases=8#1", "INT01"}},
		{"loopy:trip=5,jitter=2,datadep:bias=0.9", []string{"loopy:trip=5,jitter=2", "datadep:bias=0.9"}},
		{"INT*,file:x.bpt", []string{"INT*", "file:x.bpt"}},
		{" , INT01 , ", []string{"INT01"}},
		{"mix:loopy=1,phased=2", []string{"mix:loopy=1,phased=2"}},
	}
	for _, c := range cases {
		got := Split(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("%q: got %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%q: got %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// intField is a plain integer field for the tests below.
func intField(key string) Field {
	return Field{Key: key, IntRange: true, Normalise: func(v string) (string, error) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return "", fmt.Errorf("%q is not an integer", v)
		}
		return strconv.Itoa(n), nil
	}}
}

var testFields = Fields{
	intField("a"),
	{Key: "pair", Normalise: func(v string) (string, error) { return v, nil }},
	intField("b"),
}

// TestParseCanonicalOrder: fields come back in declaration order with
// normalised values, whatever order and spacing they were written in.
func TestParseCanonicalOrder(t *testing.T) {
	vs, err := testFields.Parse(" b = 007 , pair=1:2,a=3")
	if err != nil {
		t.Fatal(err)
	}
	if got := vs.String(); got != "a=3,pair=1:2,b=7" {
		t.Fatalf("canonical %q", got)
	}
	vs, err = testFields.With(vs, "a", "04")
	if err != nil {
		t.Fatal(err)
	}
	if got := vs.String(); got != "a=4,pair=1:2,b=7" {
		t.Fatalf("rewritten %q", got)
	}
	if v, ok := vs.Get("pair"); !ok || v != "1:2" {
		t.Fatalf("Get(pair) = %q, %v", v, ok)
	}
}

// TestParseErrors: each malformed list fails with the error that names
// its first bad item.
func TestParseErrors(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", "empty field (stray comma?)"},
		{"a=1,,b=2", "empty field (stray comma?)"},
		{"a", `field "a" is not key=value`},
		{"c=1", `no field "c" (valid fields: a, pair, b)`},
		{"a=1,a=2", `field "a" set twice`},
		{"a=x", `field "a": "x" is not an integer`},
		{"c=1,c=1", `no field "c"`},
	} {
		_, err := testFields.Parse(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Parse(%q): %v, want %q", c.in, err, c.want)
		}
	}
}

// TestSweepsAsRange: a key sweeps as a range only when every kind that
// defines it declares it a plain integer.
func TestSweepsAsRange(t *testing.T) {
	g := Grammar{"x": testFields, "y": {intField("pair")}}
	if !g.SweepsAsRange("a") || !g.SweepsAsRange("b") {
		t.Fatal("integer fields should range-sweep")
	}
	if g.SweepsAsRange("pair") {
		t.Fatal("a key some kind declares non-integer must not range-sweep")
	}
	if g.SweepsAsRange("warp") {
		t.Fatal("unknown field should not range-sweep")
	}
}
