package lsc

import (
	"math/rand"
	"testing"

	"repro/internal/histories"
)

// oracleSLHM is the earlier modulo-indexed SLHM ring, kept verbatim as
// the reference for the masked FIFO: every speculative-history lookup must
// agree while in-flight instances fit in the capacity.
type oracleSLHM struct {
	slhm     []slhmEntry
	slhmHead int
	slhmLen  int
}

func (c *oracleSLHM) slhmLookup(idx int) (uint32, bool) {
	for i := c.slhmLen - 1; i >= 0; i-- {
		e := &c.slhm[(c.slhmHead+i)%len(c.slhm)]
		if e.idx == idx {
			return e.hist, true
		}
	}
	return 0, false
}

// onResolve is the ring half of the earlier Corrector.OnResolve.
func (c *oracleSLHM) onResolve(width uint, taken bool, ctx *Ctx) {
	next := histories.Shift(ctx.SpecHist, taken, width)
	if c.slhmLen == len(c.slhm) {
		c.slhmHead = (c.slhmHead + 1) % len(c.slhm)
		c.slhmLen--
	}
	pos := (c.slhmHead + c.slhmLen) % len(c.slhm)
	c.slhm[pos] = slhmEntry{idx: ctx.LhtIdx, hist: next}
	c.slhmLen++
	ctx.PushedSLHM = true
}

// retire is the ring half of the earlier Corrector.Retire.
func (c *oracleSLHM) retire(ctx *Ctx) {
	if ctx.PushedSLHM {
		c.slhmHead = (c.slhmHead + 1) % len(c.slhm)
		c.slhmLen--
	}
}

// TestSLHMMatchesModuloOracle drives the corrector and the oracle ring with
// the same random predict/resolve/retire sequence over a few dozen branches
// sharing the 32-entry local history table, keeping in-flight instances
// within the capacity, and compares the speculative history of every local
// history entry after each step.
func TestSLHMMatchesModuloOracle(t *testing.T) {
	type branch struct {
		pc    uint64
		taken bool
		ctx   Ctx
		octx  Ctx
	}
	for _, capacity := range []int{1, 5, 24, 63, 64} {
		r := rand.New(rand.NewSource(int64(capacity)))
		c := New(Config{SLHMCap: capacity}, nil)
		o := &oracleSLHM{slhm: make([]slhmEntry, capacity)}
		var queue []*branch
		hits := 0
		for step := 0; step < 20000; step++ {
			if r.Intn(2) == 0 && o.slhmLen < capacity {
				b := &branch{pc: uint64(0x1000 + 4*r.Intn(48)), taken: r.Intn(3) > 0}
				c.Predict(b.pc, r.Intn(2) == 0, int32(r.Intn(8)-4), &b.ctx)
				b.octx = b.ctx
				o.onResolve(c.width, b.taken, &b.octx)
				c.OnResolve(b.taken, &b.ctx)
				queue = append(queue, b)
			} else if len(queue) > 0 {
				b := queue[0]
				queue = queue[1:]
				o.retire(&b.octx)
				c.Retire(b.taken, &b.ctx, r.Intn(2) == 0)
			}
			for idx := 0; idx < c.lht.Entries(); idx++ {
				gh, gok := c.slhmLookup(idx)
				wh, wok := o.slhmLookup(idx)
				if gh != wh || gok != wok {
					t.Fatalf("cap %d step %d: slhmLookup(%d) = %#x,%v want %#x,%v", capacity, step, idx, gh, gok, wh, wok)
				}
				if gok {
					hits++
				}
			}
			if c.InFlight() != o.slhmLen {
				t.Fatalf("cap %d step %d: %d in flight, oracle %d", capacity, step, c.InFlight(), o.slhmLen)
			}
		}
		if hits == 0 {
			t.Errorf("cap %d: no lookup ever hit; the comparison is vacuous", capacity)
		}
	}
}
