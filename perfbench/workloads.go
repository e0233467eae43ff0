package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/bitutil"
	"repro/internal/harness"
)

// pass is the outcome of one run of a workload.
type pass struct {
	wall time.Duration
	// cells and branches are the cells the pass completed and the
	// branches they simulated; rateBase is the time they took, which the
	// throughput metrics divide by.
	cells    int
	branches uint64
	rateBase time.Duration
	resumes  []time.Duration
	peakMB   float64
	digests  cellDigests
	// attempted counts the operations the pass checked; failures says
	// what went wrong with any of them.
	attempted   int
	failures    []string
	cellsFailed int
	// layers holds the per-layer metrics of a traced pass, notes the
	// ones reported beside them (counts, other models, experiments).
	layers map[string]float64
	notes  map[string]float64
	// replay holds the digests of a traced paper pass's replayed cells.
	replay *cellDigests
}

func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// checkCell counts a cell record as one operation: it fails when the
// cell carries an error or simulated another number of branches than
// requested.
func (p *pass) checkCell(r harness.Record) {
	if r.Failed() {
		p.cellsFailed++
		p.check(false, "cell %s failed: %s", r.Key(), r.Err)
		return
	}
	p.check(r.SimBranches == uint64(r.Branches), "cell %s simulated %d branches, want %d", r.Key(), r.SimBranches, r.Branches)
}

// setupStats is what one set-up of a workload generated.
type setupStats struct {
	genTime  time.Duration
	branches int
}

// generate times one call into GenerateTrace and checks the length of
// the trace it returns; the trace itself is dropped.
func (st *setupStats) generate(spec string, branches int) error {
	t0 := time.Now()
	tr, err := repro.GenerateTrace(spec, branches)
	st.genTime += time.Since(t0)
	if err != nil {
		return err
	}
	if len(tr.Branches) != branches {
		return fmt.Errorf("perfbench: trace %s has %d branches, want %d", spec, len(tr.Branches), branches)
	}
	st.branches += branches
	return nil
}

type workload interface {
	// setup prepares everything the first cell needs: model specs
	// parsed and built, the matrix expanded, every distinct trace
	// generated once. It may be called more than once; the last call's
	// state is what run uses.
	setup() (setupStats, error)
	// run makes one pass. rec is nil for an untraced pass.
	run(rec *recorder) (pass, error)
	// refName names the workload's entry in reference.json.
	refName() string
}

// gridWorkload is a harness matrix written into a fresh result store,
// followed by resumes of the complete store.
type gridWorkload struct {
	name      string
	models    []string
	traces    []string
	scenarios string
	length    int
	deltas    []int
	seed      uint64 // only recorded; the trace specs carry it
	dir       string // where the stores are written
	workers   int
	resumes   int

	matrix *harness.Matrix
	jobs   []harness.Job
	passes int
}

// sweepTage is the reference TAGE over the 40 named traces under
// scenarios A and B. The named suite is fixed by construction, so the
// workload does not depend on the seed.
func sweepTage(dir string, workers int) *gridWorkload {
	return &gridWorkload{
		name: "sweep-tage", models: []string{"tage"}, scenarios: "A,B",
		length: 200_000, dir: dir, workers: workers, resumes: 20,
	}
}

// cellsShortTrips is the loop trip-count field the cells-short traces
// sweep.
var cellsShortTrips = []string{"2", "3", "4", "5", "6", "8", "10", "12", "16", "20", "24", "32", "48", "64", "96", "128"}

// cellsShortSeeds is how many generator seeds, derived from the
// benchmark's seed, each trip count is generated with.
const cellsShortSeeds = 5

// cellsShort is thousands of 2k-branch cells: three budget-scaled model
// specs at five budgets, two scenarios, and loopy H2P traces swept over
// their trip count, with generator seeds derived from seed.
func cellsShort(dir string, workers int, seed uint64) (*gridWorkload, error) {
	var bases []string
	for i := uint64(0); i < cellsShortSeeds; i++ {
		bases = append(bases, fmt.Sprintf("loopy:jitter=2#%d", bitutil.Mix64(seed*cellsShortSeeds+i)))
	}
	traces, err := repro.SweepTraceSpecs(bases, "trip", cellsShortTrips)
	if err != nil {
		return nil, err
	}
	return &gridWorkload{
		name:   "cells-short",
		models: []string{"tage", "gshare:log=14", "gehl:log=10"}, deltas: []int{-4, -3, -2, -1, 0},
		traces: traces, scenarios: "A,B", length: 2000, seed: seed,
		dir: dir, workers: workers, resumes: 5,
	}, nil
}

func (g *gridWorkload) refName() string {
	if g.name == "cells-short" {
		return fmt.Sprintf("%s#%d", g.name, g.seed)
	}
	return g.name
}

func (g *gridWorkload) setup() (setupStats, error) {
	var st setupStats
	models, err := repro.BenchModels(g.models)
	if err != nil {
		return st, err
	}
	specs, err := harness.SelectTraces(g.traces)
	if err != nil {
		return st, err
	}
	scs, err := harness.ParseScenarios(g.scenarios)
	if err != nil {
		return st, err
	}
	m := &harness.Matrix{Models: models, Traces: specs, Scenarios: scs, Lengths: []int{g.length}, DeltaLogs: g.deltas}
	jobs, err := m.Expand()
	if err != nil {
		return st, err
	}
	for _, s := range specs {
		if err := st.generate(s.SpecString(), g.length); err != nil {
			return st, err
		}
	}
	g.matrix, g.jobs = m, jobs
	return st, nil
}

func (g *gridWorkload) run(rec *recorder) (pass, error) {
	var p pass
	g.passes++
	path := filepath.Join(g.dir, fmt.Sprintf("%s-%d.jsonl", g.name, g.passes))
	defer os.Remove(path)
	prov := harness.CurrentProvenance()
	cfg := harness.Config{Parallelism: g.workers, Provenance: &prov}

	var (
		sum *harness.Summary
		err error
		gl  gridLayers
	)
	start := time.Now()
	if rec == nil {
		sum, err = harness.ResumeStoreFile(path, g.jobs, cfg, nil)
	} else {
		sum, err = g.tracedWrite(rec, path, cfg, &gl)
	}
	p.wall = time.Since(start)
	if err != nil {
		return p, fmt.Errorf("perfbench: %s: %w", g.name, err)
	}
	p.rateBase = p.wall
	for _, r := range sum.Merged {
		p.checkCell(r)
		p.cells++
		p.branches += r.SimBranches
		p.digests.add(r.Key(), recordDigest(r))
	}
	p.check(len(sum.Merged) == len(g.jobs), "%d cell records for %d cells", len(sum.Merged), len(g.jobs))

	// A resume normally starts in a fresh process: collect the pass's
	// garbage first, so the resumes do not pay for it.
	runtime.GC()
	size := fileSize(path)
	for i := 0; i < g.resumes; i++ {
		var ran int
		t0 := time.Now()
		if rec == nil {
			sum, err = harness.ResumeStoreFile(path, g.jobs, cfg, nil)
			if sum != nil {
				ran = sum.Jobs - sum.Skipped
			}
		} else {
			ran, err = g.tracedResume(rec, path, cfg, &gl)
		}
		p.resumes = append(p.resumes, time.Since(t0))
		if err != nil {
			return p, fmt.Errorf("perfbench: %s resume: %w", g.name, err)
		}
		p.check(ran == 0 && fileSize(path) == size, "resume of the complete store ran %d cells", ran)
	}
	if rec != nil {
		p.layers, p.notes = gl.metrics(rec, p.wall, g.workers)
	}
	return p, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}

// gridLayers gathers the harness-level layer times of one traced pass.
type gridLayers struct {
	expand     time.Duration
	harnessNs  int64 // self time of the harness call
	storeWrite int64
	storeRead  []time.Duration
}

// tracedWrite is the traced form of ResumeStoreFile on a fresh store:
// the same read, plan and run steps with the models decorated, the
// expansion timed, and the store append written through a timed sink.
// It skips the store lock, which only matters to concurrent writers.
func (g *gridWorkload) tracedWrite(rec *recorder, path string, cfg harness.Config, gl *gridLayers) (*harness.Summary, error) {
	tm := *g.matrix
	tm.Models = make([]harness.Model, len(g.matrix.Models))
	for i, bm := range g.matrix.Models {
		m, err := tracedModel(rec, bm)
		if err != nil {
			return nil, err
		}
		tm.Models[i] = m
	}
	t0 := time.Now()
	jobs, err := tm.Expand()
	gl.expand = time.Since(t0)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prior, _, err := harness.ReadStoreFile(path)
	if err != nil {
		return nil, err
	}
	plan := harness.PlanResume(jobs, prior, *cfg.Provenance)
	sink := &timedSink{Sink: harness.NewJSONLSink(f), rec: rec}
	id := rec.begin("harness.write", 0)
	rec.parent, sink.parent = id, id
	sum, err := harness.RunResume(plan, cfg, sink)
	sp := rec.end(id)
	if err != nil {
		return nil, err
	}
	gl.harnessNs += selfNs(sp, append(rec.children(id), sink.spans...))
	gl.storeWrite += sink.ns
	return sum, f.Close()
}

// tracedResume is the traced form of resuming the complete store: the
// store read and plan are timed, and the run of the (empty) remainder
// is a harness span. It returns how many cells the resume ran.
func (g *gridWorkload) tracedResume(rec *recorder, path string, cfg harness.Config, gl *gridLayers) (int, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t0 := time.Now()
	prior, _, err := harness.ReadStoreFile(path)
	if err != nil {
		return 0, err
	}
	plan := harness.PlanResume(g.jobs, prior, *cfg.Provenance)
	gl.storeRead = append(gl.storeRead, time.Since(t0))
	id := rec.begin("harness.resume", 0)
	rec.parent = id
	sum, err := harness.RunResume(plan, cfg, harness.NewJSONLSink(f))
	sp := rec.end(id)
	if err != nil {
		return 0, err
	}
	gl.harnessNs += selfNs(sp, rec.children(id))
	return sum.Jobs - sum.Skipped, f.Close()
}

// metrics turns one traced grid pass into its per-layer metrics (the
// names every workload reports) and its notes (the rest).
func (gl *gridLayers) metrics(rec *recorder, wall time.Duration, workers int) (layers, notes map[string]float64) {
	layers = make(map[string]float64)
	notes = make(map[string]float64)
	var branches uint64
	var decodeNs, simNs, attributedNs float64
	perModel := make(map[string]*layerAcc)
	for k, a := range rec.layers() {
		branches += a.branches
		decode := float64(a.decodeNs) - rec.clockNs*float64(a.decodeCalls)
		pred := a.predict.totalNs(rec.clockNs) + a.resolve.totalNs(rec.clockNs) + a.retire.totalNs(rec.clockNs)
		decodeNs += decode
		simNs += float64(a.runNs) - pred - decode
		attributedNs += decode + pred + float64(a.resetNs)
		if a.branches > 0 {
			notes[fmt.Sprintf("predictor.%s.retire_ns_per_branch.%s", k.model, k.scenario)] = a.retire.totalNs(rec.clockNs) / float64(a.branches)
		}
		m := perModel[k.model]
		if m == nil {
			m = &layerAcc{}
			perModel[k.model] = m
		}
		m.add(a)
	}
	for model, a := range perModel {
		pre := "predictor." + model + "."
		notes[pre+"predict_ns_per_branch"] = a.predict.totalNs(rec.clockNs) / float64(a.branches)
		notes[pre+"resolve_ns_per_branch"] = a.resolve.totalNs(rec.clockNs) / float64(a.branches)
		notes[pre+"reset_s"] = float64(a.resetNs) / 1e9
		notes[pre+"resets"] = float64(a.resets)
	}
	if branches > 0 {
		layers["trace.decode_ns_per_branch"] = decodeNs / float64(branches)
		layers["sim.self_ns_per_branch"] = simNs / float64(branches)
	}
	layers["harness.expand_s"] = gl.expand.Seconds()
	layers["harness.self_s"] = float64(gl.harnessNs) / 1e9
	layers["harness.store_write_s"] = float64(gl.storeWrite) / 1e9
	layers["harness.store_read_s"] = summarize(durations(gl.storeRead)).Median
	attributedNs += float64(gl.expand) + float64(gl.storeWrite)
	// The per-branch layers are summed over the workers, so they are
	// compared with the worker time the pass had.
	layers["tracing.attributed_share"] = attributedNs / (float64(wall) * float64(workers))
	// Move the per-model figures every workload has into layers.
	for k, v := range notes {
		if perLayerSet[k] {
			layers[k] = v
			delete(notes, k)
		}
	}
	return layers, notes
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// paperWorkload regenerates the paper: E1–E15 through RunExperiment at a
// fixed trace length, with E11's harness sweep routed through a fresh
// result store that is then resumed. A traced pass additionally replays
// the reference-TAGE cells of the suite (scenarios A and B at the same
// length) through the traced harness for the per-branch layers, which
// the experiments' own runners give no hook for. The named suite is
// fixed by construction, so the workload does not depend on the seed.
type paperWorkload struct {
	length  int
	dir     string
	workers int
	resumes int
	ids     []string
	passes  int
	replay  *gridWorkload
}

func paper(dir string, workers int) *paperWorkload {
	return &paperWorkload{length: 10_000, dir: dir, workers: workers, resumes: 10}
}

func (w *paperWorkload) refName() string { return "paper" }

func (w *paperWorkload) setup() (setupStats, error) {
	var st setupStats
	w.ids = repro.ExperimentIDs()
	for _, name := range repro.TraceNames() {
		if err := st.generate(name, w.length); err != nil {
			return st, err
		}
	}
	return st, nil
}

// runExperiment runs one experiment and renders its report, turning a
// panic into an error.
func runExperiment(id string, cfg repro.ExperimentConfig) (text string, rep repro.ExperimentReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s panicked: %v", id, r)
		}
	}()
	rep, ok := repro.RunExperiment(id, cfg)
	if !ok {
		return "", rep, fmt.Errorf("unknown experiment %s", id)
	}
	var b bytes.Buffer
	repro.RenderReport(&b, rep)
	return b.String(), rep, nil
}

func (w *paperWorkload) run(rec *recorder) (pass, error) {
	var p pass
	w.passes++
	path := filepath.Join(w.dir, fmt.Sprintf("paper-%d.jsonl", w.passes))
	defer os.Remove(path)
	cfg := repro.ExperimentConfig{BranchesPerTrace: w.length, Parallelism: w.workers, ResultStore: path}

	notes := make(map[string]float64)
	var e11Text string
	var e11 time.Duration
	var checks, passed int
	start := time.Now()
	for _, id := range w.ids {
		var sid int
		if rec != nil {
			sid = rec.begin(id, 0)
		}
		t0 := time.Now()
		text, rep, err := runExperiment(id, cfg)
		d := time.Since(t0)
		if rec != nil {
			rec.end(sid)
		}
		notes["experiments."+id+"_s"] = d.Seconds()
		p.check(err == nil && len(rep.Rows)+len(rep.Checks) > 0, "experiment %s failed or rendered an empty report: %v", id, err)
		p.digests.add(id, reportDigest(text, path))
		for _, c := range rep.Checks {
			checks++
			if c.Pass {
				passed++
			}
		}
		if id == "E11" {
			e11Text, e11 = text, d
		}
	}
	p.wall = time.Since(start)
	notes["experiments.checks_passed"] = float64(passed)
	notes["experiments.checks_total"] = float64(checks)

	// E11 is the experiment whose cells run through the harness, so its
	// store is where the paper's cells and branches can be counted.
	recs, _, err := harness.ReadStoreFile(path)
	if err != nil {
		return p, fmt.Errorf("perfbench: paper: E11 store: %w", err)
	}
	for _, r := range recs {
		if r.Kind != harness.KindCell {
			continue
		}
		p.checkCell(r)
		p.cells++
		p.branches += r.SimBranches
	}
	p.rateBase = e11

	runtime.GC()
	size := fileSize(path)
	for i := 0; i < w.resumes; i++ {
		t0 := time.Now()
		text, _, err := runExperiment("E11", cfg)
		p.resumes = append(p.resumes, time.Since(t0))
		p.check(err == nil, "%v", err)
		p.check(fileSize(path) == size, "resume of E11's complete store ran cells")
		p.check(reportDigest(text, path) == reportDigest(e11Text, path), "E11 rendered from its complete store differs from the fresh run")
	}

	if rec != nil {
		if err := w.tracedReplay(rec, &p); err != nil {
			return p, err
		}
		total := 0.0
		for _, id := range w.ids {
			total += notes["experiments."+id+"_s"]
		}
		p.layers["tracing.attributed_share"] = total / p.wall.Seconds()
		for k, v := range notes {
			p.notes[k] = v
		}
	} else {
		p.notes = notes
	}
	return p, nil
}

// tracedReplay runs the paper's reference-TAGE A/B cells through the
// traced harness and takes the per-layer metrics from them. Its cells
// are checked like any other, and their digests are kept apart from the
// experiments' under "paper-replay".
func (w *paperWorkload) tracedReplay(rec *recorder, p *pass) error {
	if w.replay == nil {
		g := sweepTage(w.dir, w.workers)
		g.name, g.length, g.resumes = "paper-replay", w.length, 3
		if _, err := g.setup(); err != nil {
			return err
		}
		w.replay = g
	}
	rp, err := w.replay.run(rec)
	if err != nil {
		return err
	}
	p.attempted += rp.attempted
	p.failures = append(p.failures, rp.failures...)
	p.cellsFailed += rp.cellsFailed
	p.layers, p.notes, p.replay = rp.layers, rp.notes, &rp.digests
	p.notes["replay.wall_s"] = rp.wall.Seconds()
	return nil
}
