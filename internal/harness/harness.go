// Package harness is the one executor behind cmd/bpbench, cmd/bpsim
// and the experiments package (cmd/bptables). A declarative matrix
// (models × traces × scenarios × trace lengths, with include/exclude
// filters) is expanded into jobs and executed by a local worker pool —
// one pooled, Reset-reused predictor per (worker, model), one shared
// trace cache, every cell a cold run over the whole trace — with
// per-job deterministic seeding and panic isolation. RunJobs streams one
// Record per cell, plus per-category, hard-subset and suite-level
// aggregates, to pluggable sinks (human table, JSONL, CSV); Simulate
// returns the same cells' full simulator results, for callers that
// report the memory-access statistics a Record does not carry. A JSONL
// run can later serve as the baseline for Diff, which flags per-cell and
// aggregate regressions beyond a tolerance, making the harness usable as
// a CI gate.
//
// The paper's case for TAGE rests on sweeping exactly this kind of
// evaluation grid — predictors × 40 traces × update-timing scenarii ×
// budgets — and the harness is the one execution path for it: one bad
// cell (a panicking predictor) is reported and skipped, not fatal to the
// sweep.
package harness

import (
	"fmt"
	"sync"
)

// forEachWorker invokes fn for every index in [0, n) on at most workers
// goroutines (workers <= 0 means one per index), passing the worker's
// own index so per-worker state (runner arenas, in-flight gauges) needs
// no locking. If any invocation panics, the first panic value is
// re-raised in the caller after all workers have drained: no goroutine
// leak, no partial-result use.
func forEachWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
		haveP    bool
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if !haveP {
								haveP, panicked = true, r
							}
							panicMu.Unlock()
						}
					}()
					fn(w, i)
				}()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if haveP {
		panic(panicked)
	}
}

// Protect runs fn, converting a panic into an error (the panic value,
// formatted). Job execution uses it so one bad cell cannot kill a sweep.
func Protect(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}
