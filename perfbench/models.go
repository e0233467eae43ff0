package main

import (
	"fmt"
	"strconv"

	"repro"
	"repro/internal/gehl"
	"repro/internal/gshare"
	"repro/internal/harness"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
)

// tracedModel returns bm with its run hooks replaced by decorated ones
// built from the same canonical spec. Name, spec and budget are kept, so
// the records of a traced run must equal those of an untraced one; the
// benchmark checks that they do.
func tracedModel(rec *recorder, bm harness.Model) (harness.Model, error) {
	newRunner, err := tracedHook(rec, bm.Spec)
	if err != nil {
		return harness.Model{}, err
	}
	out := bm
	out.NewRunner = newRunner
	out.Run = func(tr *trace.Trace, opt sim.Options) sim.Result { return newRunner()(tr, opt) }
	if bm.Scale != nil {
		out.Scale = func(deltaLog int) harness.Model {
			s := bm.Scale(deltaLog)
			hook, err := tracedHook(rec, s.Spec)
			if err != nil {
				// The harness turns the panic into a failed cell record,
				// which the benchmark counts as an error.
				s.Run = func(*trace.Trace, sim.Options) sim.Result { panic(err) }
				s.NewRunner = nil
				return s
			}
			s.NewRunner = hook
			s.Run = func(tr *trace.Trace, opt sim.Options) sim.Result { return hook()(tr, opt) }
			return s
		}
	}
	return out, nil
}

// tracedHook builds the decorated NewRunner hook for one canonical model
// spec. It covers the spec forms the benchmark's workloads use: the named
// reference "tage" (optionally budget-scaled) and "gshare:log=N" and
// "gehl:log=N" (optionally budget-scaled), built the way the spec layer
// builds them.
func tracedHook(rec *recorder, canonical string) (func() func(*trace.Trace, sim.Options) sim.Result, error) {
	spec, err := repro.ParseSpec(canonical)
	if err != nil {
		return nil, err
	}
	delta, scaled := spec.Delta()
	switch {
	case spec.IsNamed() && spec.Kind() == "tage":
		cfg := tage.Reference()
		if scaled {
			cfg = tage.Scale(cfg, delta)
		}
		return tracedRunner(rec, "tage", func() predictor.Predictor[tage.Ctx] { return tage.New(cfg) }), nil
	case !spec.IsNamed() && spec.Kind() == "gshare" && onlyLog(spec):
		log, err := logField(spec, delta, 8, 30)
		if err != nil {
			return nil, err
		}
		return tracedRunner(rec, "gshare", func() predictor.Predictor[gshare.Ctx] { return gshare.New(uint(log)) }), nil
	case !spec.IsNamed() && spec.Kind() == "gehl" && onlyLog(spec):
		log, err := logField(spec, delta, 6, 30)
		if err != nil {
			return nil, err
		}
		cfg := gehl.Config{NumTables: 13, LogEntries: uint(log), CtrBits: 5, MinHist: 6, MaxHist: 2000}
		return tracedRunner(rec, "gehl", func() predictor.Predictor[gehl.Ctx] { return gehl.New(cfg) }), nil
	}
	return nil, fmt.Errorf("perfbench: no traced build for model spec %q", canonical)
}

// onlyLog reports whether log is the one field the spec sets, the only
// gshare/gehl form tracedHook knows how to rebuild.
func onlyLog(spec repro.ModelSpec) bool {
	for _, k := range []string{"tables", "ctr", "hist"} {
		if _, ok := spec.Field(k); ok {
			return false
		}
	}
	_, ok := spec.Field("log")
	return ok
}

// logField is the spec's table log size after its budget delta, clamped
// to [lo, hi] as the spec layer clamps it.
func logField(spec repro.ModelSpec, delta, lo, hi int) (int, error) {
	v, _ := spec.Field("log")
	log, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("perfbench: spec %s: log %q: %w", spec, v, err)
	}
	return min(max(log+delta, lo), hi), nil
}
