package main

// Layer tracing from outside the program. The traced run wraps each layer
// at the boundary the program already exposes:
//
//   - timedPredictor implements predictor.Predictor[C] around the real
//     predictor and is what sim.Runner.Run drives;
//   - timedSource is the trace.Source/Batcher the runner decodes from;
//   - timedSink wraps the harness.Sink a store append writes through;
//   - spans surround the calls into harness, experiments and the cells.
//
// A clock read costs tens of nanoseconds, which is a large share of one
// simulated branch, so the per-branch calls are sampled (one call in
// sampleEvery is timed) and the calibrated cost of the timing itself is
// subtracted. Only coarse spans (harness call, experiment, cell) are kept.

import (
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sampleEvery is the sampling period of the per-branch predictor calls;
// a power of two so the check is a mask.
const sampleEvery = 16

// sampled accumulates one per-branch call: how often it was called, and
// the summed durations of the calls that were timed.
type sampled struct {
	calls   uint64
	samples uint64
	ns      int64
}

// totalNs estimates the summed duration of every call, less the clock
// cost clockNs each timed call carries.
func (s sampled) totalNs(clockNs float64) float64 {
	if s.samples == 0 {
		return 0
	}
	per := (float64(s.ns) - clockNs*float64(s.samples)) / float64(s.samples)
	if per < 0 {
		per = 0
	}
	return per * float64(s.calls)
}

func (s *sampled) add(o sampled) {
	s.calls += o.calls
	s.samples += o.samples
	s.ns += o.ns
}

// layerAcc holds the layer times of the cells one model ran under one
// scenario. Only the goroutine that owns the runner touches it.
type layerAcc struct {
	predict, resolve, retire sampled
	decodeNs                 int64
	decodeCalls              uint64
	runNs                    int64 // summed sim.Runner.Run durations
	resetNs                  int64
	resets                   uint64
	branches                 uint64
	cells                    int
}

func (a *layerAcc) add(o *layerAcc) {
	a.predict.add(o.predict)
	a.resolve.add(o.resolve)
	a.retire.add(o.retire)
	a.decodeNs += o.decodeNs
	a.decodeCalls += o.decodeCalls
	a.runNs += o.runNs
	a.resetNs += o.resetNs
	a.resets += o.resets
	a.branches += o.branches
	a.cells += o.cells
}

// accKey names a layerAcc: the predictor kind ("tage", "gshare", …) and
// the scenario letter.
type accKey struct{ model, scenario string }

// timedPredictor is a transparent predictor decorator: every method
// forwards to the wrapped predictor, and one call in sampleEvery of the
// three per-branch methods is timed into acc.
type timedPredictor[C any] struct {
	predictor.Predictor[C]
	acc *layerAcc
}

func (t *timedPredictor[C]) Predict(pc uint64, ctx *C) bool {
	s := &t.acc.predict
	s.calls++
	if s.calls%sampleEvery != 0 {
		return t.Predictor.Predict(pc, ctx)
	}
	t0 := time.Now()
	pred := t.Predictor.Predict(pc, ctx)
	s.ns += int64(time.Since(t0))
	s.samples++
	return pred
}

func (t *timedPredictor[C]) OnResolve(pc uint64, taken, mispredicted bool, ctx *C) {
	s := &t.acc.resolve
	s.calls++
	if s.calls%sampleEvery != 0 {
		t.Predictor.OnResolve(pc, taken, mispredicted, ctx)
		return
	}
	t0 := time.Now()
	t.Predictor.OnResolve(pc, taken, mispredicted, ctx)
	s.ns += int64(time.Since(t0))
	s.samples++
}

func (t *timedPredictor[C]) Retire(pc uint64, taken bool, ctx *C, reread bool) {
	s := &t.acc.retire
	s.calls++
	if s.calls%sampleEvery != 0 {
		t.Predictor.Retire(pc, taken, ctx, reread)
		return
	}
	t0 := time.Now()
	t.Predictor.Retire(pc, taken, ctx, reread)
	s.ns += int64(time.Since(t0))
	s.samples++
}

// timedSource is the decode layer: a trace cursor whose block reads are
// all timed (one clock pair per 256-branch block).
type timedSource struct {
	cur trace.Cursor
	acc *layerAcc
}

func (s *timedSource) Next() (trace.Branch, bool) { return s.cur.Next() }

func (s *timedSource) NextBatch(dst []trace.Branch) int {
	t0 := time.Now()
	n := s.cur.NextBatch(dst)
	s.acc.decodeNs += int64(time.Since(t0))
	s.acc.decodeCalls++
	return n
}

// timedSink times every record a harness run writes through it, and
// keeps each write as an interval under parent, so the harness call's
// self time can leave the writes out.
type timedSink struct {
	harness.Sink
	rec    *recorder
	parent int
	ns     int64
	spans  []span
}

func (s *timedSink) timed(f func() error) error {
	start := s.rec.now()
	err := f()
	end := s.rec.now()
	s.ns += end - start
	s.spans = append(s.spans, span{Parent: s.parent, Name: "store.write", Start: start, End: end})
	return err
}

func (s *timedSink) Emit(r harness.Record) error {
	return s.timed(func() error { return s.Sink.Emit(r) })
}

func (s *timedSink) Close() error { return s.timed(s.Sink.Close) }

// span is one coarse traced interval, in nanoseconds since the
// recorder's epoch. Parent is the id of the enclosing span (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// runnerLog is what one pooled runner records: its layer accumulators
// and the spans of the cells it ran. It is written by the runner's
// goroutine only and read after the harness call has returned.
type runnerLog struct {
	accs  map[accKey]*layerAcc
	spans []span
}

// recorder collects spans and layer accumulators for one traced pass.
type recorder struct {
	epoch   time.Time
	clockNs float64

	mu      sync.Mutex
	nextID  int
	spans   []span
	runners []*runnerLog
	// parent is the span the cells being run belong to (the current
	// harness call); set before the call, read by the runners.
	parent int
}

func newRecorder(clockNs float64) *recorder {
	return &recorder{epoch: time.Now(), clockNs: clockNs}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.spans = append(r.spans, span{ID: r.nextID, Parent: parent, Name: name, Start: r.now()})
	return r.nextID
}

func (r *recorder) end(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = r.now()
	return *s
}

// newRunner registers the log of one pooled runner.
func (r *recorder) newRunner() *runnerLog {
	l := &runnerLog{accs: make(map[accKey]*layerAcc)}
	r.mu.Lock()
	r.runners = append(r.runners, l)
	r.mu.Unlock()
	return l
}

// allSpans returns the harness-level spans plus every cell span, with
// cell span ids assigned after the others.
func (r *recorder) allSpans() []span {
	out := append([]span(nil), r.spans...)
	id := r.nextID
	for _, l := range r.runners {
		for _, s := range l.spans {
			id++
			s.ID = id
			out = append(out, s)
		}
	}
	return out
}

// children returns the cell spans recorded under parent.
func (r *recorder) children(parent int) []span {
	var out []span
	for _, l := range r.runners {
		for _, s := range l.spans {
			if s.Parent == parent {
				out = append(out, s)
			}
		}
	}
	return out
}

// layers merges every runner's accumulators.
func (r *recorder) layers() map[accKey]*layerAcc {
	out := make(map[accKey]*layerAcc)
	for _, l := range r.runners {
		for k, a := range l.accs {
			m := out[k]
			if m == nil {
				m = &layerAcc{}
				out[k] = m
			}
			m.add(a)
		}
	}
	return out
}

// selfNs is a span's duration minus the part of it that its children
// cover. Children may overlap each other (cells run on parallel
// workers), so the covered part is the length of their union, clipped to
// the parent's interval.
func selfNs(parent span, children []span) int64 {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var covered int64
	var curS, curE int64
	open := false
	for _, c := range iv {
		switch {
		case !open:
			curS, curE, open = c.Start, c.End, true
		case c.Start > curE:
			covered += curE - curS
			curS, curE = c.Start, c.End
		case c.End > curE:
			curE = c.End
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// tracedRunner returns a harness.Model NewRunner hook that runs the
// predictor mk builds through the timing decorator and timing source,
// records one span per cell under the recorder's current parent, and
// times every Reset.
func tracedRunner[C any](rec *recorder, model string, mk func() predictor.Predictor[C]) func() func(*trace.Trace, sim.Options) sim.Result {
	return func() func(*trace.Trace, sim.Options) sim.Result {
		log := rec.newRunner()
		tp := &timedPredictor[C]{Predictor: mk()}
		src := &timedSource{}
		var rn sim.Runner[C]
		dirty := false
		return func(tr *trace.Trace, opt sim.Options) sim.Result {
			key := accKey{model, opt.Scenario.Letter()}
			acc := log.accs[key]
			if acc == nil {
				acc = &layerAcc{}
				log.accs[key] = acc
			}
			start := rec.now()
			if dirty {
				t0 := time.Now()
				tp.Predictor.Reset()
				acc.resetNs += int64(time.Since(t0))
				acc.resets++
			}
			dirty = true
			tp.acc, src.acc = acc, acc
			src.cur.Seek(tr)
			t0 := time.Now()
			res := rn.Run(tp, tr.Name, tr.Category, src, opt)
			acc.runNs += int64(time.Since(t0))
			src.cur.Seek(nil)
			acc.branches += res.Branches
			acc.cells++
			log.spans = append(log.spans, span{Parent: rec.parent, Name: "cell", Start: start, End: rec.now()})
			return res
		}
	}
}

// calibrateClock returns the mean duration an empty timed region reads:
// the cost each sampled measurement carries on top of the timed call.
func calibrateClock() float64 {
	const n = 1 << 15
	best := 0.0
	for round := 0; round < 5; round++ {
		var sum int64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += int64(time.Since(t0))
		}
		mean := float64(sum) / n
		if round == 0 || mean < best {
			best = mean
		}
	}
	return best
}
