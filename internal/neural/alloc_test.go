package neural

import (
	"runtime"
	"testing"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRunZeroAllocSteadyState extends the simulator's 0 allocs/branch
// contract to OH-SNAP: a fresh run's allocations must not grow with the
// trace, and a pooled runner re-running a Reset predictor must not
// allocate at all.
func TestRunZeroAllocSteadyState(t *testing.T) {
	short, err := workload.GenerateByName("INT01", 2000)
	if err != nil {
		t.Fatal(err)
	}
	long, err := workload.GenerateByName("INT01", 8000)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB} {
		p := New(Config{})
		opt := sim.Options{Scenario: sc}
		sim.RunTrace[Ctx](p, long, opt) // warm up
		runtime.GC()                    // keep a collection out of the measured runs
		allocsShort := testing.AllocsPerRun(10, func() { sim.RunTrace[Ctx](p, short, opt) })
		allocsLong := testing.AllocsPerRun(10, func() { sim.RunTrace[Ctx](p, long, opt) })
		if allocsLong != allocsShort {
			t.Errorf("%s: allocs grow with trace length (%v for 2k branches, %v for 8k): hot path allocates per branch",
				sc, allocsShort, allocsLong)
		}

		var rn sim.Runner[Ctx]
		rn.RunTrace(p, short, opt) // first run owns the buffer allocations
		pooled := testing.AllocsPerRun(10, func() {
			p.Reset()
			rn.RunTrace(p, short, opt)
		})
		if pooled != 0 {
			t.Errorf("%s: pooled run: %v allocs per run, want 0", sc, pooled)
		}
	}
}
