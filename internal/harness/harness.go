// Package harness is the batch-experiment engine behind cmd/bpbench and
// the experiments package: a declarative matrix (models × traces ×
// scenarios × trace lengths, with include/exclude filters) is expanded
// into jobs and executed by a local worker pool — one pooled,
// Reset-reused predictor per (worker, model), every cell a cold run over
// the whole trace — with per-job deterministic seeding and panic
// isolation, streaming one Record per
// cell — plus per-category, hard-subset and suite-level aggregates — to
// pluggable sinks (human table, JSONL, CSV). A JSONL run can later serve
// as the baseline for Diff, which flags per-cell and aggregate
// regressions beyond a tolerance, making the harness usable as a CI
// gate.
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

// Map runs fn for every index in [0, n) with at most workers concurrent
// goroutines and returns the results in index order. If any invocation
// panics, the first panic value is re-raised in the caller after all
// workers have drained (no goroutine leak, no partial-result use). It is
// the pool primitive shared by the matrix runner and the experiments
// package's suite sweeps.
func Map[T any](n, workers int, fn func(i int) T) []T {
	results := make([]T, n)
	ForEach(n, workers, func(i int) { results[i] = fn(i) })
	return results
}

// ForEach is Map without result collection: fn is invoked for every
// index in [0, n) with bounded parallelism; the first panic is re-raised
// after the pool drains.
func ForEach(n, workers int, fn func(i int)) {
	forEachWorker(n, workers, func(_, i int) { fn(i) })
}

// forEachWorker is ForEach with the worker's index passed to fn —
// the hook per-worker telemetry (jobs in flight per worker) needs,
// without widening the public pool API.
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
