package ium

import (
	"math/rand"
	"testing"
)

// oracleBuffer is the earlier modulo-indexed IUM, kept verbatim as the
// reference for the masked FIFO and drain watermark: every lookup result
// and every Lookups/Hits count must agree while in-flight branches fit in
// the capacity.
type oracleEntry struct {
	Table  int    // provider component (0 = base predictor)
	Index  uint32 // index within the provider component
	Ctr    int32  // speculative provider counter after this branch executes
	seq    uint64 // fetch sequence number
	forced bool   // marked executed early (pipeline drain)
}

type oracleBuffer struct {
	ring      []oracleEntry
	head      int // oldest entry
	count     int
	seq       uint64 // fetch sequence counter
	execDelay uint64 // fetch-to-execute distance in branches

	Lookups uint64
	Hits    uint64
}

func newOracle(capacity int, execDelay int) *oracleBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &oracleBuffer{ring: make([]oracleEntry, capacity), execDelay: uint64(execDelay)}
}

func (b *oracleBuffer) Push(table int, index uint32, ctr int32) {
	if b.count == len(b.ring) {
		b.head = (b.head + 1) % len(b.ring)
		b.count--
	}
	pos := (b.head + b.count) % len(b.ring)
	b.ring[pos] = oracleEntry{Table: table, Index: index, Ctr: ctr, seq: b.seq}
	b.count++
	b.seq++
}

func (b *oracleBuffer) executed(e *oracleEntry) bool {
	return e.forced || b.seq >= e.seq+b.execDelay
}

func (b *oracleBuffer) Lookup(table int, index uint32) (ctr int32, ok bool) {
	b.Lookups++
	for i := b.count - 1; i >= 0; i-- {
		e := &b.ring[(b.head+i)%len(b.ring)]
		if e.Table == table && e.Index == index && b.executed(e) {
			b.Hits++
			return e.Ctr, true
		}
	}
	return 0, false
}

func (b *oracleBuffer) LookupAny(table int, index uint32) (ctr int32, ok bool) {
	for i := b.count - 1; i >= 0; i-- {
		e := &b.ring[(b.head+i)%len(b.ring)]
		if e.Table == table && e.Index == index {
			return e.Ctr, true
		}
	}
	return 0, false
}

func (b *oracleBuffer) OnMispredict() {
	for i := 0; i < b.count; i++ {
		b.ring[(b.head+i)%len(b.ring)].forced = true
	}
}

func (b *oracleBuffer) PopOldest() {
	if b.count == 0 {
		return
	}
	b.head = (b.head + 1) % len(b.ring)
	b.count--
}

// TestMatchesModuloOracle drives the buffer and the oracle with the same
// random Push/Lookup/OnMispredict/PopOldest sequence, keeping in-flight
// branches within the capacity, over a small key space so lookups hit
// often.
func TestMatchesModuloOracle(t *testing.T) {
	for _, capacity := range []int{1, 5, 24, 63, 64} {
		for _, delay := range []int{0, 1, 6, 30} {
			r := rand.New(rand.NewSource(int64(capacity*100 + delay)))
			b, o := New(capacity, delay), newOracle(capacity, delay)
			for step := 0; step < 20000; step++ {
				table, index := r.Intn(3), uint32(r.Intn(6))
				switch op := r.Intn(10); {
				case op < 4 && o.count < capacity:
					ctr := int32(r.Intn(8) - 4)
					b.Push(table, index, ctr)
					o.Push(table, index, ctr)
				case op < 5:
					b.OnMispredict()
					o.OnMispredict()
				case op < 7:
					b.PopOldest()
					o.PopOldest()
				default:
					gc, gok := b.Lookup(table, index)
					wc, wok := o.Lookup(table, index)
					ac, aok := b.LookupAny(table, index)
					xc, xok := o.LookupAny(table, index)
					if gc != wc || gok != wok || ac != xc || aok != xok {
						t.Fatalf("cap %d delay %d step %d: Lookup(%d,%d) = %d,%v want %d,%v; LookupAny = %d,%v want %d,%v",
							capacity, delay, step, table, index, gc, gok, wc, wok, ac, aok, xc, xok)
					}
				}
				if b.Len() != o.count {
					t.Fatalf("cap %d delay %d step %d: len %d, oracle %d", capacity, delay, step, b.Len(), o.count)
				}
			}
			if b.Lookups != o.Lookups || b.Hits != o.Hits {
				t.Errorf("cap %d delay %d: lookups/hits %d/%d, oracle %d/%d",
					capacity, delay, b.Lookups, b.Hits, o.Lookups, o.Hits)
			}
			if o.Hits == 0 {
				t.Errorf("cap %d delay %d: sequence never hit; the comparison is vacuous", capacity, delay)
			}
		}
	}
}
