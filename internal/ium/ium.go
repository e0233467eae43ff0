// Package ium implements the Immediate Update Mimicker of Section 5.1: a
// FIFO of in-flight branches recording which predictor entry (table number
// and index) provided each prediction, together with the branch outcome
// once the branch has executed. When a new prediction is served by the
// same table entry as an already-executed but not-yet-retired branch, the
// combined (TAGE + IUM) predictor responds from the IUM instead of the
// stale table entry, recovering most of the mispredictions caused by
// retire-time update of the predictor tables.
//
// Implementation note: the paper's text says the IUM responds with "the
// execution outcome" of the in-flight branch. We mimic the immediate
// update faithfully instead: each in-flight record carries the value the
// provider counter would hold had it been updated at execution, and the
// override is that counter's sign. For weak (learning) entries the two
// formulations coincide — the counter flips after one outcome — while for
// saturated counters outcome-replay would spuriously invert confident
// predictions on noisy branches. The counter formulation is what
// "mimicking the immediate update" computes.
//
// The buffer capacity is modelled hardware: with more branches in flight
// than it holds, the oldest record is evicted, and a record evicted under
// overflow is not popped again when its branch retires.
package ium

import (
	"repro/internal/bitutil"
	"repro/internal/inflight"
)

// entry is one in-flight branch record: the identity of the predictor
// entry that provided the prediction (P/T/A in Figure 4) and the provider
// counter as it would read after an immediate update.
type entry struct {
	key uint64 // provider component << 32 | index within it
	ctr int32  // speculative provider counter after this branch executes
}

// keyOf packs a provider component (0 = base predictor) and an index
// within it, so a search compares one word per record.
func keyOf(table int, index uint32) uint64 { return uint64(table)<<32 | uint64(index) }

// Buffer is the IUM storage: one entry per in-flight branch, searched
// associatively from youngest to oldest. Every fetched branch pushes
// exactly one entry, so the live entries are the last Len() fetches and an
// entry's fetch sequence number follows from its position; the buffer
// keeps only the fetch counter and the drain watermark.
type Buffer struct {
	fifo    inflight.FIFO[entry]
	seq     uint64 // fetch sequence counter
	drained uint64 // entries fetched before this sequence number have executed
	// pending is how many of the youngest fetches have not executed by
	// delay alone: an entry pushed at sequence s executes once seq >= s +
	// execDelay, which leaves the execDelay-1 youngest pending.
	pending uint64

	// Lookups/Hits instrument how often the IUM overrides the prediction.
	Lookups uint64
	Hits    uint64
}

// New creates a buffer holding up to capacity in-flight branches with the
// given fetch-to-execute delay (in branches). An entry only becomes usable
// for prediction override once its branch has executed.
func New(capacity int, execDelay int) *Buffer {
	return &Buffer{fifo: inflight.New[entry](capacity), pending: uint64(max(execDelay-1, 0))}
}

// Reset empties the buffer and rewinds the fetch sequence and hit
// accounting to the construction state, reusing the ring storage.
func (b *Buffer) Reset() {
	b.fifo.Reset()
	b.seq, b.drained = 0, 0
	b.Lookups, b.Hits = 0, 0
}

// Push records a fetched branch with the provider-counter value after its
// (eventual) execution-time update. If the buffer is full the oldest entry
// is dropped.
func (b *Buffer) Push(table int, index uint32, ctr int32) {
	b.fifo.Push(entry{key: keyOf(table, index), ctr: ctr})
	b.seq++
}

// unexecuted returns how many of the youngest entries have not executed:
// those still within the execute delay, unless a later drain covered them.
func (b *Buffer) unexecuted() int {
	return int(min(b.pending, b.seq-b.drained, uint64(b.fifo.Len())))
}

// Lookup searches, youngest first, for an executed in-flight branch whose
// prediction came from the same predictor entry. On a hit it returns the
// speculative counter — the value the table entry would hold under
// immediate update (Figure 4: "Same table, same entry = use the outcome
// instead of TAGE").
func (b *Buffer) Lookup(table int, index uint32) (ctr int32, ok bool) {
	b.Lookups++
	k, live := keyOf(table, index), b.fifo.Live()
	for i := len(live) - 1 - b.unexecuted(); i >= 0; i-- {
		if live[i].key == k {
			b.Hits++
			return live[i].ctr, true
		}
	}
	return 0, false
}

// LookupAny is like Lookup but also matches entries that have not yet
// executed (used by tests to inspect buffer contents).
func (b *Buffer) LookupAny(table int, index uint32) (ctr int32, ok bool) {
	k, live := keyOf(table, index), b.fifo.Live()
	for i := len(live) - 1; i >= 0; i-- {
		if live[i].key == k {
			return live[i].ctr, true
		}
	}
	return 0, false
}

// OnMispredict models the pipeline drain that follows a misprediction: by
// the time fetch resumes on the corrected path, the in-flight branches
// have executed, so their counters become visible to lookups immediately.
// Entries leave in fetch order, so a watermark marks them all at once.
func (b *Buffer) OnMispredict() { b.drained = b.seq }

// PopOldest removes the oldest in-flight entry (called when the branch
// retires; the predictor tables now hold its update so the IUM record is
// no longer needed).
func (b *Buffer) PopOldest() { b.fifo.Retire() }

// Len returns the number of in-flight entries.
func (b *Buffer) Len() int { return b.fifo.Len() }

// HitRate returns the fraction of lookups served by the IUM.
func (b *Buffer) HitRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Hits) / float64(b.Lookups)
}

// NextCtr advances a speculative provider counter by one outcome,
// saturating at the given width. Exported so the predictor pushing entries
// applies exactly the update the tables would apply.
func NextCtr(ctr int32, taken bool, bits uint) int32 {
	return bitutil.SatUpdateSigned(ctr, taken, bits)
}
