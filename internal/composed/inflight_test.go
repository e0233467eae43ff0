package composed

import (
	"runtime"
	"testing"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// stacks are the configurations that carry in-flight records: the IUM on
// every one, the SLIM with the loop predictor and the SLHM with the LSC.
func stacks() []Config {
	return []Config{
		TAGELSC(Budget512K(), "TAGE-LSC"),
		ISLTAGE(tage.Reference(), "ISL-TAGE"),
		FullStack(Budget512K(), "full"),
	}
}

func int01(t testing.TB, branches int) *trace.Trace {
	tr, err := workload.GenerateByName("INT01", branches)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkedStack wraps a composed predictor and checks, after every resolve
// and retire, that each in-flight record FIFO holds exactly one record per
// in-flight branch that pushed one, up to its capacity: evictions drop only
// the oldest records, and a retiring branch never pops a younger branch's.
type checkedStack struct {
	*Predictor
	t *testing.T
	// Branches resolved but not yet retired; for the SLIM, only those
	// that pushed a record.
	inFlight, slimInFlight int
	peak                   int // most branches in flight at once
}

// recordCap is the default IUM, SLHM and SLIM capacity.
const recordCap = 64

func (c *checkedStack) check(when string) {
	type fifo struct {
		name    string
		n, want int
	}
	fifos := []fifo{{"IUM", c.Tage().IUM().Len(), c.inFlight}}
	if c.LSC() != nil {
		fifos = append(fifos, fifo{"SLHM", c.LSC().InFlight(), c.inFlight})
	}
	if c.LoopPredictor() != nil {
		fifos = append(fifos, fifo{"SLIM", c.LoopPredictor().InFlight(), c.slimInFlight})
	}
	for _, f := range fifos {
		if want := min(f.want, recordCap); f.n != want {
			c.t.Fatalf("%s: %s after %s holds %d records, want %d (%d pushing branches in flight, capacity %d)",
				c.Name(), f.name, when, f.n, want, f.want, recordCap)
		}
	}
}

func (c *checkedStack) OnResolve(pc uint64, taken, mispredicted bool, ctx *Ctx) {
	c.Predictor.OnResolve(pc, taken, mispredicted, ctx)
	c.inFlight++
	c.peak = max(c.peak, c.inFlight)
	if ctx.Loop.PushedSlim {
		c.slimInFlight++
	}
	c.check("resolve")
}

func (c *checkedStack) Retire(pc uint64, taken bool, ctx *Ctx, reread bool) {
	c.Predictor.Retire(pc, taken, ctx, reread)
	c.inFlight--
	if ctx.Loop.PushedSlim {
		c.slimInFlight--
	}
	c.check("retire")
}

// TestWindowBeyondRecordCapacity runs every record-carrying stack with more
// branches in flight than its FIFOs hold. Pushing then evicts the oldest
// record, and that branch's retire must not pop a younger branch's record
// (or, for the SLHM and SLIM, drive the ring length negative).
func TestWindowBeyondRecordCapacity(t *testing.T) {
	tr := int01(t, 20000)
	for _, cfg := range stacks() {
		for _, sc := range []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB} {
			p := &checkedStack{Predictor: New(cfg), t: t}
			res := sim.RunTrace[Ctx](p, tr, sim.Options{Scenario: sc, Window: 100})
			if res.Branches != uint64(len(tr.Branches)) {
				t.Fatalf("%s/%s: simulated %d branches, want %d", cfg.Name, sc, res.Branches, len(tr.Branches))
			}
			if p.peak <= recordCap {
				t.Fatalf("%s/%s: at most %d branches in flight, want more than the capacity %d", cfg.Name, sc, p.peak, recordCap)
			}
		}
	}
}

// TestRunZeroAllocSteadyState extends the simulator's 0 allocs/branch
// contract to the stacks carrying in-flight records: a fresh run's
// allocations must not grow with the trace, and a pooled runner re-running
// a Reset stack must not allocate at all.
func TestRunZeroAllocSteadyState(t *testing.T) {
	short, long := int01(t, 2000), int01(t, 8000)
	for _, cfg := range stacks()[:2] {
		for _, sc := range []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB} {
			p := New(cfg)
			opt := sim.Options{Scenario: sc}
			sim.RunTrace[Ctx](p, long, opt) // warm up
			// Start from a collected heap, so the trace generation above
			// cannot trigger a collection, whose runtime bookkeeping would
			// count as allocations, inside the measured runs.
			runtime.GC()
			allocsShort := testing.AllocsPerRun(10, func() { sim.RunTrace[Ctx](p, short, opt) })
			allocsLong := testing.AllocsPerRun(10, func() { sim.RunTrace[Ctx](p, long, opt) })
			if allocsLong != allocsShort {
				t.Errorf("%s/%s: allocs grow with trace length (%v for 2k branches, %v for 8k): hot path allocates per branch",
					cfg.Name, sc, allocsShort, allocsLong)
			}

			var rn sim.Runner[Ctx]
			rn.RunTrace(p, short, opt) // first run owns the buffer allocations
			pooled := testing.AllocsPerRun(10, func() {
				p.Reset()
				rn.RunTrace(p, short, opt)
			})
			if pooled != 0 {
				t.Errorf("%s/%s: pooled run: %v allocs per run, want 0", cfg.Name, sc, pooled)
			}
		}
	}
}
