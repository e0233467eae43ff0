package histories

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestGlobalPushBit(t *testing.T) {
	g := NewGlobal(16)
	seq := []bool{true, false, true, true, false}
	for _, b := range seq {
		g.Push(b)
	}
	// Bit(0) is most recent.
	want := []uint32{0, 1, 1, 0, 1}
	for i, w := range want {
		if got := g.Bit(i); got != w {
			t.Fatalf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestGlobalOldBitsReadZero(t *testing.T) {
	g := NewGlobal(8)
	g.Push(true)
	if g.Bit(1) != 0 || g.Bit(100) != 0 {
		t.Fatal("unpushed history must read 0")
	}
}

func TestGlobalWrapAround(t *testing.T) {
	g := NewGlobal(8) // capacity 8
	for i := 0; i < 100; i++ {
		g.Push(i%3 == 0)
	}
	// The last 8 pushes were i = 92..99; i%3==0 for 93, 96, 99.
	for i := 0; i < 8; i++ {
		iter := 99 - i
		want := uint32(0)
		if iter%3 == 0 {
			want = 1
		}
		if got := g.Bit(i); got != want {
			t.Fatalf("Bit(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestFoldedMatchesBruteForce is the core invariant: the incremental CSR
// update must always equal the from-scratch XOR fold.
func TestFoldedMatchesBruteForce(t *testing.T) {
	configs := []struct {
		length int
		width  uint
	}{
		{5, 3}, {8, 8}, {17, 10}, {130, 11}, {2000, 12}, {7, 7}, {64, 9},
		{1, 4}, {3, 12},
	}
	r := rng.NewXoshiro(123)
	for _, cfg := range configs {
		g := NewGlobal(4096)
		f := NewFolded(cfg.length, cfg.width)
		ref := NewFolded(cfg.length, cfg.width)
		for step := 0; step < 3000; step++ {
			g.Push(r.Bool(0.5))
			f.Update(g)
			ref.Recompute(g)
			if f.Value() != ref.Value() {
				t.Fatalf("L=%d W=%d: step %d incremental=%#x brute=%#x",
					cfg.length, cfg.width, step, f.Value(), ref.Value())
			}
		}
	}
}

func TestFoldedQuickProperty(t *testing.T) {
	f := func(seed uint64, lengthRaw uint8, widthRaw uint8) bool {
		length := int(lengthRaw%200) + 1
		width := uint(widthRaw%14) + 2
		g := NewGlobal(512)
		fd := NewFolded(length, width)
		ref := NewFolded(length, width)
		r := rng.NewXoshiro(seed)
		for step := 0; step < 400; step++ {
			g.Push(r.Bool(0.5))
			fd.Update(g)
		}
		ref.Recompute(g)
		return fd.Value() == ref.Value()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldedResetRecompute(t *testing.T) {
	g := NewGlobal(256)
	f := NewFolded(20, 9)
	r := rng.NewXoshiro(5)
	for i := 0; i < 100; i++ {
		g.Push(r.Bool(0.4))
		f.Update(g)
	}
	v := f.Value()
	f.Reset()
	if f.Value() != 0 {
		t.Fatal("Reset did not clear")
	}
	f.Recompute(g)
	if f.Value() != v {
		t.Fatalf("Recompute = %#x, want %#x", f.Value(), v)
	}
}

func TestFoldedWidthBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	NewFolded(10, 0)
}

func TestPathHistory(t *testing.T) {
	p := NewPath(8)
	// Push PCs whose bit 2 alternates.
	p.Push(0x4) // bit2 = 1
	p.Push(0x0) // bit2 = 0
	p.Push(0x4) // bit2 = 1
	if p.Value() != 0b101 {
		t.Fatalf("path = %#b, want 101", p.Value())
	}
	// Saturate the width.
	for i := 0; i < 100; i++ {
		p.Push(0x4)
	}
	if p.Value() != 0xff {
		t.Fatalf("path should be all ones within width, got %#x", p.Value())
	}
}

func TestLocalHistory(t *testing.T) {
	l := NewLocal(32, 11)
	pcA := uint64(0x1000)
	pcB := uint64(0x1004) // different index (bit 2 differs)
	l.Update(pcA, true)
	l.Update(pcA, false)
	l.Update(pcA, true)
	if l.Read(pcA) != 0b101 {
		t.Fatalf("local history A = %#b, want 101", l.Read(pcA))
	}
	if l.Read(pcB) != 0 {
		t.Fatalf("local history B should be untouched, got %#b", l.Read(pcB))
	}
}

func TestLocalHistoryWidthTruncation(t *testing.T) {
	l := NewLocal(4, 3)
	pc := uint64(0)
	for i := 0; i < 10; i++ {
		l.Update(pc, true)
	}
	if l.Read(pc) != 0b111 {
		t.Fatalf("history must truncate to width, got %#b", l.Read(pc))
	}
}

func TestLocalAliasing(t *testing.T) {
	// With only 32 entries and many PCs, distinct branches must alias onto
	// shared entries; find such a pair and verify the sharing.
	l := NewLocal(32, 8)
	seen := map[int]uint64{}
	var pcA, pcB uint64
	for pc := uint64(0x100); pc < 0x100+64*16; pc += 16 {
		idx := l.IndexOf(pc)
		if prev, ok := seen[idx]; ok {
			pcA, pcB = prev, pc
			break
		}
		seen[idx] = pc
	}
	if pcB == 0 {
		t.Fatal("no aliasing pair found among 64 PCs and 32 entries")
	}
	l.Update(pcA, true)
	if l.Read(pcB) != 1 {
		t.Fatal("aliased read should see the shared entry")
	}
}

func TestLocalIndexCoversAllSlots(t *testing.T) {
	// 16-byte-aligned PCs (as compilers commonly emit) must still spread
	// over all entries of a small table.
	l := NewLocal(32, 8)
	used := map[int]bool{}
	for pc := uint64(0x400000); pc < 0x400000+1024*16; pc += 16 {
		used[l.IndexOf(pc)] = true
	}
	if len(used) != 32 {
		t.Fatalf("only %d/32 slots used by aligned PCs", len(used))
	}
}

func TestShiftMatchesUpdate(t *testing.T) {
	f := func(h uint32, taken bool) bool {
		const width = 11
		l := NewLocal(2, width)
		l.WriteAt(0, h&0x7ff)
		l.Update(0, taken)
		return l.ReadAt(0) == Shift(h&0x7ff, taken, width)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFoldedUpdate(b *testing.B) {
	g := NewGlobal(4096)
	f := NewFolded(2000, 12)
	for i := 0; i < b.N; i++ {
		g.Push(i&1 == 0)
		f.Update(g)
	}
}

// TestTableFoldsUpdateAllMatchesPerFoldUpdate: the batched hot-path
// update (shared newest/oldest bits, hoisted buffer reads) must track the
// reference per-fold Update exactly, including before the history window
// fills and after buffer wrap-around.
func TestTableFoldsUpdateAllMatchesPerFoldUpdate(t *testing.T) {
	lengths := []int{3, 7, 17, 60, 130, 511}
	g := NewGlobal(512)
	gRef := NewGlobal(512)
	folds := make([]TableFolds, len(lengths))
	var refs []Folded
	for i, l := range lengths {
		folds[i] = NewTableFolds(l, 10, uint(5+i), uint(4+i))
		refs = append(refs,
			NewFolded(l, 10), NewFolded(l, uint(5+i)), NewFolded(l, uint(4+i)))
	}
	r := rng.NewXoshiro(21)
	for step := 0; step < 2000; step++ {
		taken := r.Bool(0.5)
		g.Push(taken)
		UpdateAll(g, folds, taken)
		gRef.Push(taken)
		for j := range refs {
			refs[j].Update(gRef)
		}
		for i := range folds {
			got := [3]uint32{folds[i].Idx.Value(), folds[i].Tag1.Value(), folds[i].Tag2.Value()}
			want := [3]uint32{refs[3*i].Value(), refs[3*i+1].Value(), refs[3*i+2].Value()}
			if got != want {
				t.Fatalf("step %d table %d (L=%d): UpdateAll=%v per-fold=%v",
					step, i, lengths[i], got, want)
			}
		}
	}
}

// TestUpdateFoldsMatchesPerFoldUpdate: the flat-slice batched update
// (used by GEHL-style predictors, with inert L=0 placeholders) must
// track the reference per-fold Update exactly.
func TestUpdateFoldsMatchesPerFoldUpdate(t *testing.T) {
	lengths := []int{0, 2, 9, 40, 130} // index 0 is an inert placeholder
	g := NewGlobal(256)
	gRef := NewGlobal(256)
	folds := make([]Folded, len(lengths))
	refs := make([]Folded, len(lengths))
	for i, l := range lengths {
		if l > 0 {
			folds[i] = NewFolded(l, 11)
			refs[i] = NewFolded(l, 11)
		}
	}
	r := rng.NewXoshiro(5)
	for step := 0; step < 1500; step++ {
		taken := r.Bool(0.5)
		g.Push(taken)
		UpdateFolds(g, folds, taken)
		gRef.Push(taken)
		for i := range refs {
			if refs[i].Length > 0 {
				refs[i].Update(gRef)
			}
		}
		for i := range folds {
			if folds[i].Value() != refs[i].Value() {
				t.Fatalf("step %d fold %d (L=%d): batched=%#x per-fold=%#x",
					step, i, lengths[i], folds[i].Value(), refs[i].Value())
			}
		}
	}
}
