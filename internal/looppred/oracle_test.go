package looppred

import (
	"math/rand"
	"testing"

	"repro/internal/bitutil"
)

// oracleSLIM is the earlier modulo-indexed SLIM ring, kept verbatim as the
// reference for the masked FIFO: every speculative-iteration lookup must
// agree while in-flight loop instances fit in the capacity.
type oracleSLIM struct {
	slim     []slimEntry
	slimHead int
	slimLen  int
}

func (p *oracleSLIM) slimLookup(key uint32) (uint16, bool) {
	for i := p.slimLen - 1; i >= 0; i-- {
		e := &p.slim[(p.slimHead+i)%len(p.slim)]
		if e.key == key {
			return e.iter, true
		}
	}
	return 0, false
}

// onResolve is the earlier Predictor.OnResolve with the ring moved to the
// oracle; the loop table is read from the predictor under test.
func (o *oracleSLIM) onResolve(p *Predictor, pc uint64, taken bool, ctx *Ctx) {
	if !ctx.Hit {
		return
	}
	e := &p.sets[ctx.Set][ctx.Way]
	var next uint16
	if taken == e.dir {
		next = ctx.SpecIter + 1
		if next >= uint16(bitutil.Mask(p.cfg.IterBits)) {
			next = uint16(bitutil.Mask(p.cfg.IterBits))
		}
	} else {
		next = 0
	}
	if o.slimLen == len(o.slim) {
		o.slimHead = (o.slimHead + 1) % len(o.slim)
		o.slimLen--
	}
	pos := (o.slimHead + o.slimLen) % len(o.slim)
	o.slim[pos] = slimEntry{key: p.slimKey(pc), iter: next}
	o.slimLen++
	ctx.PushedSlim = true
}

// retire is the ring half of the earlier Predictor.Retire.
func (o *oracleSLIM) retire(ctx *Ctx) {
	if ctx.PushedSlim {
		o.slimHead = (o.slimHead + 1) % len(o.slim)
		o.slimLen--
	}
}

// TestSLIMMatchesModuloOracle drives the predictor and the oracle ring with
// the same random predict/resolve/retire/allocate sequence over a few
// branches (some never allocated, so they push nothing), keeping in-flight
// instances within the capacity, and compares the speculative iteration
// of every branch after each step.
func TestSLIMMatchesModuloOracle(t *testing.T) {
	type branch struct {
		pc    uint64
		taken bool
		ctx   Ctx
		octx  Ctx
	}
	pcs := []uint64{0x100, 0x204, 0x308, 0x40c, 0x510, 0x614}
	for _, capacity := range []int{1, 5, 24, 63, 64} {
		r := rand.New(rand.NewSource(int64(capacity)))
		p := New(Config{SlimCap: capacity}, nil)
		o := &oracleSLIM{slim: make([]slimEntry, capacity)}
		var queue []*branch
		hits := 0
		for step := 0; step < 20000; step++ {
			switch op := r.Intn(20); {
			case op == 0:
				p.Allocate(pcs[r.Intn(len(pcs)-1)], r.Intn(2) == 0) // the last pc never allocates
			case op < 11 && o.slimLen < capacity:
				b := &branch{pc: pcs[r.Intn(len(pcs))], taken: r.Intn(4) > 0}
				p.Predict(b.pc, &b.ctx)
				b.octx = b.ctx
				o.onResolve(p, b.pc, b.taken, &b.octx)
				p.OnResolve(b.pc, b.taken, &b.ctx)
				queue = append(queue, b)
			case len(queue) > 0:
				b := queue[0]
				queue = queue[1:]
				o.retire(&b.octx)
				p.Retire(b.pc, b.taken, &b.ctx, r.Intn(2) == 0)
			}
			for _, pc := range pcs {
				gi, gok := p.slimLookup(p.slimKey(pc))
				wi, wok := o.slimLookup(p.slimKey(pc))
				if gi != wi || gok != wok {
					t.Fatalf("cap %d step %d: slimLookup(%#x) = %d,%v want %d,%v", capacity, step, pc, gi, gok, wi, wok)
				}
				if gok {
					hits++
				}
			}
			if p.InFlight() != o.slimLen {
				t.Fatalf("cap %d step %d: %d in flight, oracle %d", capacity, step, p.InFlight(), o.slimLen)
			}
		}
		if hits == 0 {
			t.Errorf("cap %d: no lookup ever hit; the comparison is vacuous", capacity)
		}
	}
}
