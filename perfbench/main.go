// Command perfbench is the benchmark of the TAGE reproduction. It runs one
// workload through the program's public functions for a fixed time,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sweep-tage --seed 1 --seconds 40 --trace 0
//
// Workloads: paper (E1–E15 at 20k branches), sweep-tage (reference TAGE,
// 40 traces × scenarios A and B at 200k branches) and cells-short (2,400
// 2k-branch design-space cells written to a store, then resumed). Every
// time is host time; the simulated statistics are deterministic and are
// checked against each other and against reference.json, never timed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_branches_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"resume_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run that every workload reports,
// in BENCHMARK.json order. The rest (other models, experiments, counts)
// are printed beside them.
var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"workload.ns_per_branch", "ns"},
	{"trace.decode_ns_per_branch", "ns"},
	{"predictor.tage.predict_ns_per_branch", "ns"},
	{"predictor.tage.resolve_ns_per_branch", "ns"},
	{"predictor.tage.retire_ns_per_branch.A", "ns"},
	{"predictor.tage.retire_ns_per_branch.B", "ns"},
	{"predictor.tage.reset_s", "s"},
	{"sim.self_ns_per_branch", "ns"},
	{"harness.expand_s", "s"},
	{"harness.self_s", "s"},
	{"harness.store_write_s", "s"},
	{"harness.store_read_s", "s"},
	{"tracing.overhead_share", "ratio"},
	{"tracing.attributed_share", "ratio"},
}

var perLayerSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, d := range perLayer {
		m[d.name] = true
	}
	return m
}()

// scopeNotes say what a metric covers on a workload where it does not
// follow from the metric's name alone.
var scopeNotes = map[string]string{
	"paper":      "sim_branches_per_s and cells_per_s cover E11, the experiment whose cells run through the harness, over E11's own time; resume_s re-renders E11 from its complete store; the seed does not change this workload, whose named 40-trace suite is fixed by construction",
	"sweep-tage": "resume_s resumes the complete store the pass's 80 cells were written to; the seed does not change this workload, whose named 40-trace suite is fixed by construction",
}

// A run sets its workload up at least minSetups times and until
// setupSeconds have passed (at most maxSetups times); setup_s is the
// median.
const (
	minSetups    = 3
	maxSetups    = 100
	setupSeconds = 1.0
)

// minPasses is the fewest untraced passes a run makes, so repeats are
// always compared.
const minPasses = 2

type options struct {
	workload string
	seed     uint64
	seed2    int64
	seconds  float64
	trace    int
	workers  int
	out      string
	update   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: paper, sweep-tage or cells-short")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (cells-short's generator seeds derive from it)")
	flag.Int64Var(&o.seed2, "seed2", -1, "second seed: cells-short also runs its grid once, untimed, on this seed and checks it")
	flag.Float64Var(&o.seconds, "seconds", 40, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for the run's temporary stores and its results file")
	flag.BoolVar(&o.update, "update-reference", false, "rewrite perfbench/reference.json from this run's digests")
	flag.Parse()
	o.workers = runtime.NumCPU()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name, dir string, workers int, seed uint64) (workload, error) {
	switch name {
	case "paper":
		return paper(dir, workers), nil
	case "sweep-tage":
		return sweepTage(dir, workers), nil
	case "cells-short":
		return cellsShort(dir, workers, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, sweep-tage or cells-short)", name)
}

// result is everything a run reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     int      `json:"trace"`
	Workers   int      `json:"workers"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// CellsFailed counts the cell records that carry an error.
	CellsFailed int                  `json:"cells_failed"`
	Digest      string               `json:"digest"`
	Moved       map[string]int       `json:"cells_moved"`
	Summaries   map[string]summary   `json:"summaries"`
	Samples     map[string][]float64 `json:"samples,omitempty"`
	Metrics     map[string]float64   `json:"metrics"`
	Notes       map[string]float64   `json:"notes,omitempty"`
	Spans       []span               `json:"spans,omitempty"`
	// Seed2Digest is the statistics digest of the --seed2 recheck.
	Seed2Digest string `json:"seed2_digest,omitempty"`
}

func (r *result) fail(p pass) {
	r.Attempted += p.attempted
	r.Failed += len(p.failures)
	r.Failures = append(r.Failures, p.failures...)
	r.CellsFailed += p.cellsFailed
}

func run(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.out, "stores-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(o.workload, dir, o.workers, o.seed)
	if err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	// Provenance is read once per process; read it before any timing.
	harness.CurrentProvenance()

	res := &result{Workload: o.workload, Seed: o.seed, Trace: o.trace, Workers: o.workers,
		Moved: map[string]int{}, Summaries: map[string]summary{}, Samples: map[string][]float64{}, Metrics: map[string]float64{}, Notes: map[string]float64{}}

	var setups []float64
	var st setupStats
	setupStart := time.Now()
	for len(setups) < minSetups || len(setups) < maxSetups && time.Since(setupStart).Seconds() < setupSeconds {
		t0 := time.Now()
		st, err = w.setup()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	start := time.Now()
	elapsed := func() float64 { return time.Since(start).Seconds() }
	var passes []pass
	var replay *cellDigests
	first, err := untracedPass(w)
	if err != nil {
		return err
	}
	passes = append(passes, first)
	res.fail(first)
	compare := func(p pass, what string) {
		res.Attempted++
		if got, want := p.digests.total(), first.digests.total(); got != want {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("%s statistics digest %s differs from the first pass's %s", what, got, want))
		}
	}

	if o.trace == 0 {
		for len(passes) < minPasses || more(elapsed(), passes, o.seconds) {
			p, err := untracedPass(w)
			if err != nil {
				return err
			}
			res.fail(p)
			compare(p, "repeat")
			passes = append(passes, p)
		}
		reportEndToEnd(res, passes, setups)
	} else {
		clock := calibrateClock()
		res.Notes["tracing.clock_ns"] = clock
		var traced []pass
		for len(traced) == 0 || more(elapsed(), slices.Concat(passes, traced), o.seconds) {
			rec := newRecorder(clock)
			p, err := w.run(rec)
			if err != nil {
				return err
			}
			res.fail(p)
			compare(p, "traced")
			if p.replay != nil {
				replay = p.replay
				if n, ok := cellsMoved(ref, "paper-replay", *p.replay); ok {
					res.Moved["paper-replay"] = n
				}
			}
			// Span ids restart with each pass's recorder; shift them so
			// they stay unique across the run.
			base := len(res.Spans)
			for _, sp := range rec.allSpans() {
				sp.ID += base
				if sp.Parent != 0 {
					sp.Parent += base
				}
				res.Spans = append(res.Spans, sp)
			}
			traced = append(traced, p)
		}
		reportLayers(res, first, traced, st)
	}

	if n, ok := cellsMoved(ref, w.refName(), first.digests); ok {
		res.Moved[w.refName()] = n
	}
	res.Digest = first.digests.total()

	if o.seed2 >= 0 {
		if err := recheck(o, dir, ref, res); err != nil {
			return err
		}
	}
	if o.update {
		entries := map[string]cellDigests{w.refName(): first.digests}
		if replay != nil {
			entries["paper-replay"] = *replay
		}
		if res.Failed > 0 {
			return fmt.Errorf("not updating the reference from a run with %d failures", res.Failed)
		}
		if err := updateReference(entries); err != nil {
			return err
		}
	}

	moved := 0
	for _, n := range res.Moved {
		moved += n
	}
	res.Correct = res.Failed == 0 && moved == 0
	return printResult(o, res)
}

// more reports whether another pass fits: whether, after elapsed
// seconds, a pass as long as the median one so far would end no more
// than half a pass after the run's measuring time.
func more(elapsed float64, passes []pass, seconds float64) bool {
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	return elapsed+summarize(walls).Median/2 < seconds
}

// untracedPass makes one untraced pass and records its peak resident
// memory.
func untracedPass(w workload) (pass, error) {
	if err := resetPeakRSS(); err != nil {
		return pass{}, err
	}
	p, err := w.run(nil)
	if err != nil {
		return p, err
	}
	p.peakMB, err = peakRSSMB()
	return p, err
}

// recheck runs cells-short once, untimed, on the second seed, and
// counts its checks into the result.
func recheck(o options, dir string, ref map[string]refEntry, res *result) error {
	if o.workload != "cells-short" {
		fmt.Println("  note: --seed2 ignored: only cells-short depends on the seed")
		return nil
	}
	w, err := cellsShort(dir, o.workers, uint64(o.seed2))
	if err != nil {
		return err
	}
	if _, err := w.setup(); err != nil {
		return err
	}
	p, err := w.run(nil)
	if err != nil {
		return err
	}
	res.fail(p)
	if n, ok := cellsMoved(ref, w.refName(), p.digests); ok {
		res.Moved[w.refName()] = n
	}
	res.Seed2Digest = p.digests.total()
	return nil
}

// reportEndToEnd fills the end-to-end metrics from the untraced passes.
func reportEndToEnd(res *result, passes []pass, setups []float64) {
	var wall, branchRate, cellRate, resumes, rss []float64
	for _, p := range passes {
		rss = append(rss, p.peakMB)
		wall = append(wall, p.wall.Seconds())
		branchRate = append(branchRate, float64(p.branches)/p.rateBase.Seconds())
		cellRate = append(cellRate, float64(p.cells)/p.rateBase.Seconds())
		resumes = append(resumes, durations(p.resumes)...)
	}
	put := func(name string, values []float64) {
		res.Samples[name] = values
		s := summarize(values)
		res.Summaries[name] = s
		res.Metrics[name] = s.Median
	}
	put("wall_s", wall)
	put("sim_branches_per_s", branchRate)
	put("cells_per_s", cellRate)
	put("resume_s", resumes)
	put("setup_s", setups)
	// A pass's peak depends on when the garbage collector ran in it;
	// the upper quartile of the passes' peaks is the run's peak, steadier
	// from run to run than the single highest.
	s := summarize(rss)
	res.Samples["peak_rss_mb"] = rss
	res.Summaries["peak_rss_mb"] = s
	res.Metrics["peak_rss_mb"] = s.Q3
	// The first pass's per-experiment times, checks and counts.
	for k, v := range passes[0].notes {
		res.Notes[k] = v
	}
}

// reportLayers fills the per-layer metrics from the traced passes: the
// median over them of each, with the set-up's generation figures and the
// tracing overhead against the untraced pass.
func reportLayers(res *result, untraced pass, traced []pass, st setupStats) {
	values := map[string][]float64{}
	notes := map[string][]float64{}
	for _, p := range traced {
		for k, v := range p.layers {
			values[k] = append(values[k], v)
		}
		for k, v := range p.notes {
			notes[k] = append(notes[k], v)
		}
		values["tracing.overhead_share"] = append(values["tracing.overhead_share"], p.wall.Seconds()/untraced.wall.Seconds()-1)
	}
	for k, vs := range values {
		s := summarize(vs)
		res.Summaries[k] = s
		res.Metrics[k] = s.Median
	}
	for k, vs := range notes {
		res.Notes[k] = summarize(vs).Median
	}
	res.Metrics["workload.generate_s"] = st.genTime.Seconds()
	res.Metrics["workload.ns_per_branch"] = float64(st.genTime.Nanoseconds()) / float64(st.branches)
	res.Notes["untraced.wall_s"] = untraced.wall.Seconds()
}

func printResult(o options, res *result) error {
	fmt.Printf("perfbench %s seed=%d trace=%d workers=%d\n", res.Workload, res.Seed, res.Trace, res.Workers)
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-40s %14.6g %s", d.name, res.Metrics[d.name], d.unit)
		if s, ok := res.Summaries[d.name]; ok && s.N > 1 {
			line += fmt.Sprintf("   (%d samples; median %.6g, q1 %.6g, q3 %.6g)", s.N, s.Median, s.Q1, s.Q3)
		}
		fmt.Println(line)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-40s %14.6g %s   (%d failed of %d attempted)\n", "error_rate", rate, "ratio", res.Failed, res.Attempted)
	fmt.Printf("  %-40s %14d\n", "harness.cells_failed", res.CellsFailed)
	if n, ok := scopeNotes[res.Workload]; ok && o.trace == 0 {
		fmt.Println("  note:", n)
	}
	keys := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-40s %14.6g\n", k, res.Notes[k])
	}
	fmt.Printf("  %-40s %14s\n", "sim.digest", res.Digest)
	if res.Seed2Digest != "" {
		fmt.Printf("  %-40s %14s   (seed %d)\n", "sim.digest", res.Seed2Digest, o.seed2)
	}
	names := make([]string, 0, len(res.Moved))
	for k := range res.Moved {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-40s %14d   (against reference %s)\n", "sim.cells_moved", res.Moved[k], k)
	}
	if len(names) == 0 {
		fmt.Printf("  %-40s %14s   (no reference for this seed)\n", "sim.cells_moved", "n/a")
	}
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}

	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace))
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("  results:", path)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(last)))
	return nil
}
