// Package specfield is the key=value field layer shared by the model
// and trace spec grammars. Both repro.ModelSpec ("tage:tables=9,hist=6:500")
// and workload.TraceSpec ("loopy:trip=100,jitter=8#7") carry a
// comma-separated field list after their kind; this package declares
// those fields, parses a list into canonical order, renders it, rewrites
// one field, sweeps a field across values, decides whether a sweep may
// be written as an integer range, and splits a flag value into specs.
// Each spec type keeps only the syntax around its field list (named
// sugar, '@delta' or '#seed', component stacks, file sources) and its
// own value normalisers.
package specfield

import (
	"fmt"
	"strings"
)

// Field declares one key=value field of a spec kind.
type Field struct {
	Key string
	// IntRange marks plain-integer fields, whose sweep values may be
	// written as an inclusive lo:hi range; fields whose values carry
	// their own ':' or are not integers need explicit value lists.
	IntRange bool
	// Default is the value a spec that omits the field is generated
	// with, or "" when the kind declares none.
	Default string
	// Normalise validates a value and returns its canonical form.
	Normalise func(string) (string, error)
}

// Fields are one kind's fields in canonical order.
type Fields []Field

// Lookup returns the field declared for key, or nil.
func (fs Fields) Lookup(key string) *Field {
	for i := range fs {
		if fs[i].Key == key {
			return &fs[i]
		}
	}
	return nil
}

// Value is one explicitly-set field.
type Value struct{ Key, Val string }

// Values are a spec's explicitly-set fields in canonical order.
type Values []Value

// Get returns the value set for key, if any.
func (vs Values) Get(key string) (string, bool) {
	for _, v := range vs {
		if v.Key == key {
			return v.Val, true
		}
	}
	return "", false
}

// String renders the canonical field list, "key=value,key=value".
func (vs Values) String() string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.Key)
		b.WriteByte('=')
		b.WriteString(v.Val)
	}
	return b.String()
}

// Parse reads list, one or more comma-separated key=value items, into
// canonical order: space around items, keys and values is dropped and
// each value normalised. An empty item, an item without '=', an unknown
// key and a key set twice are errors.
func (fs Fields) Parse(list string) (Values, error) {
	var vs Values
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("empty field (stray comma?)")
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("field %q is not key=value", item)
		}
		k = strings.TrimSpace(k)
		if _, dup := vs.Get(k); dup {
			return nil, fmt.Errorf("field %q set twice", k)
		}
		var err error
		if vs, err = fs.With(vs, k, strings.TrimSpace(v)); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// With returns vs with key set to the normalised val, replacing any
// earlier value and keeping canonical order.
func (fs Fields) With(vs Values, key, val string) (Values, error) {
	f := fs.Lookup(key)
	if f == nil {
		keys := make([]string, len(fs))
		for i, f := range fs {
			keys[i] = f.Key
		}
		return nil, fmt.Errorf("no field %q (valid fields: %s)", key, strings.Join(keys, ", "))
	}
	canon, err := f.Normalise(val)
	if err != nil {
		return nil, fmt.Errorf("field %q: %w", key, err)
	}
	out := make(Values, 0, len(vs)+1)
	for _, d := range fs {
		if d.Key == key {
			out = append(out, Value{key, canon})
		} else if v, ok := vs.Get(d.Key); ok {
			out = append(out, Value{d.Key, v})
		}
	}
	return out, nil
}

// Grammar maps every parameterised kind of one spec type to its fields.
type Grammar map[string]Fields

// SweepsAsRange reports whether a sweep of key may use the inclusive
// lo:hi integer-range form: true only when some kind defines the key
// and every kind defining it declares it IntRange, so a field whose
// values carry their own ':' never misparses as a range.
func (g Grammar) SweepsAsRange(key string) bool {
	found := false
	for _, fs := range g {
		if f := fs.Lookup(key); f != nil {
			if !f.IntRange {
				return false
			}
			found = true
		}
	}
	return found
}

// Spec is a parsed spec that can rewrite one of its fields.
type Spec[S any] interface {
	WithField(key, val string) (S, error)
	Canonical() string
}

// Sweep expands one field across values for every base spec: each base,
// parsed with parse, is rewritten per value and returned in canonical
// form, bases outermost. A resulting spec produced twice is an error,
// since both would run under one cell key.
func Sweep[S Spec[S]](bases []string, key string, values []string, parse func(string) (S, error)) ([]string, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("sweep of %q has no values", key)
	}
	var out []string
	seen := make(map[string]bool)
	for _, b := range bases {
		spec, err := parse(b)
		if err != nil {
			return nil, err
		}
		for _, v := range values {
			sw, err := spec.WithField(key, v)
			if err != nil {
				return nil, err
			}
			c := sw.Canonical()
			if seen[c] {
				return nil, fmt.Errorf("sweep %s over %q produces duplicate spec %q", key, b, c)
			}
			seen[c] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// Split cuts a comma-separated list of specs by syntax alone: a bare
// field segment (key=value, the key free of ':' and glob characters)
// continues the preceding spec when that spec has a kind: prefix, and
// every other segment starts a new spec. So
// "tage:tables=9,hist=6:500,gshare:log=14" is two specs and
// "phased:period=4096,phases=8#1,INT*" two patterns. Space around
// segments and empty segments are dropped.
func Split(s string) []string {
	var out []string
	for _, seg := range strings.Split(s, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if n := len(out); n > 0 && isField(seg) && !isField(out[n-1]) && strings.Contains(out[n-1], ":") {
			out[n-1] += "," + seg
			continue
		}
		out = append(out, seg)
	}
	return out
}

// isField reports whether a segment reads as key=value rather than as
// the start of a spec or pattern.
func isField(seg string) bool {
	k, _, ok := strings.Cut(seg, "=")
	return ok && !strings.ContainsAny(k, ":*?[")
}
