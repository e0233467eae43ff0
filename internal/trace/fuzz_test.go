package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// hugeCountHeader is an 11-byte .bpt file: the magic, empty name and
// category, and a header claiming 2^32 branches with none following.
func hugeCountHeader() []byte {
	b := []byte(magic)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 0)
	return binary.AppendUvarint(b, 1<<32)
}

// TestReadHugeCountTinyFile: a header count is not a promise. Read must
// reject the truncated stream with an error instead of preallocating
// 2^32 branches (64 GiB) and dying of an out-of-memory fatal error,
// which no recover can catch.
func TestReadHugeCountTinyFile(t *testing.T) {
	data := hugeCountHeader()
	if len(data) != 11 {
		t.Fatalf("header is %d bytes, want 11", len(data))
	}
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "branch 0") {
		t.Fatalf("Read accepted a 2^32-branch header with no branches: err=%v", err)
	}
}

// FuzzTraceRead: Read is total over arbitrary bytes — it never panics —
// and any input it accepts re-encodes through Write to a stream that
// decodes to the identical trace.
func FuzzTraceRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, sampleTrace(64, 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(hugeCountHeader())
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading a re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", got, tr)
		}
	})
}

// FuzzConvert: the CBP and ChampSim text parsers never panic on
// arbitrary input, and every trace they accept survives a .bpt round
// trip unchanged. Seeds live in testdata/fuzz/FuzzConvert.
func FuzzConvert(f *testing.F) {
	f.Fuzz(func(t *testing.T, champsim bool, text string) {
		format := "cbp"
		if champsim {
			format = "champsim"
		}
		tr, st, err := Convert(strings.NewReader(text), format, "fuzz")
		if err != nil {
			return
		}
		if st.Conditional != len(tr.Branches) {
			t.Fatalf("stats count %d conditional branches, trace holds %d", st.Conditional, len(tr.Branches))
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("encoding a converted trace: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("decoding a converted trace: %v", err)
		}
		if got.Name != tr.Name || got.Category != tr.Category || !slices.Equal(got.Branches, tr.Branches) {
			t.Fatalf("round trip changed the converted trace:\n got %+v\nwant %+v", got, tr)
		}
	})
}
