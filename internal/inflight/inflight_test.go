package inflight

import "testing"

// contents lists the live records youngest first.
func contents(f *FIFO[int]) []int {
	var out []int
	live := f.Live()
	for i := len(live) - 1; i >= 0; i-- {
		out = append(out, live[i])
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStorageRoundsUpCapacityStaysLogical(t *testing.T) {
	for _, c := range []struct{ capacity, storage int }{{0, 1}, {1, 1}, {5, 8}, {24, 32}, {63, 64}, {64, 64}} {
		f := New[int](c.capacity)
		if len(f.buf) != 2*c.storage || f.mask != c.storage-1 {
			t.Errorf("capacity %d: storage %d mask %d, want storage %d", c.capacity, len(f.buf), f.mask, c.storage)
		}
		for i := 0; i < 3*c.storage; i++ {
			f.Push(i)
		}
		if want := max(c.capacity, 1); f.Len() != want {
			t.Errorf("capacity %d: %d live records after overflow, want %d", c.capacity, f.Len(), want)
		}
	}
}

func TestPushRetireYoungestFirst(t *testing.T) {
	f := New[int](5)
	for i := 1; i <= 4; i++ {
		f.Push(i)
	}
	if got := contents(&f); !equal(got, []int{4, 3, 2, 1}) {
		t.Fatalf("contents %v, want youngest first [4 3 2 1]", got)
	}
	f.Retire()
	f.Retire()
	f.Push(5)
	f.Push(6)
	f.Push(7) // wraps the 8-slot storage
	if got := contents(&f); !equal(got, []int{7, 6, 5, 4, 3}) {
		t.Fatalf("contents %v, want [7 6 5 4 3]", got)
	}
	f.Retire() // extra retires on an empty FIFO are harmless
	for i := 0; i < 6; i++ {
		f.Retire()
	}
	if f.Len() != 0 {
		t.Fatalf("len %d after draining, want 0", f.Len())
	}
}

// TestEvictedRecordIsNotPoppedAgain is the overflow contract: a push into a
// full FIFO evicts the oldest record, and that record's branch retiring
// later pops nothing, so younger branches keep their records.
func TestEvictedRecordIsNotPoppedAgain(t *testing.T) {
	f := New[int](3)
	for i := 1; i <= 5; i++ { // 5 in flight, records 1 and 2 evicted
		f.Push(i)
	}
	if got := contents(&f); !equal(got, []int{5, 4, 3}) {
		t.Fatalf("contents %v, want [5 4 3]", got)
	}
	f.Retire() // branch 1: record already evicted
	f.Retire() // branch 2: record already evicted
	if got := contents(&f); !equal(got, []int{5, 4, 3}) {
		t.Fatalf("after retiring the evicted branches: contents %v, want [5 4 3]", got)
	}
	f.Retire() // branch 3
	if got := contents(&f); !equal(got, []int{5, 4}) {
		t.Fatalf("after retiring branch 3: contents %v, want [5 4]", got)
	}
}

func TestResetForgetsOwedEvictions(t *testing.T) {
	f := New[int](2)
	for i := 0; i < 4; i++ {
		f.Push(i)
	}
	f.Reset()
	if f.Len() != 0 || f.owed != 0 {
		t.Fatalf("after Reset: len %d owed %d, want 0 0", f.Len(), f.owed)
	}
	f.Push(9)
	f.Retire()
	if f.Len() != 0 {
		t.Fatal("a retire after Reset must pop the new record")
	}
}
