package histories

import (
	"sort"

	"repro/internal/bitutil"
)

// PackedFolds advances many folds of one global history with a handful of
// word operations per branch instead of one scalar update per fold.
//
// Folds of equal width are packed as lanes of a 64-bit word with a stride
// of Width+1 bits: each lane holds its fold value in the low Width bits
// and keeps one zero guard bit above it. The per-branch update then runs
// once per *word*:
//
//	x = (x << 1) | (newest & newMask)    // shift every lane, insert newest
//	x ^= expiring                        // all lanes' (-oldest)&outBit at once
//	x ^= (x >> Width) & newMask          // fold each lane's guard bit to bit 0
//	x &= valueMask                       // clear the guards for the next shift
//
// which is bit-for-bit the scalar Folded.UpdateBits applied to every lane:
// the guard bit isolates lanes across the shared shift, the expiring bits
// land inside their lanes before the guard fold (exactly the scalar
// operation order), and the final mask re-establishes the zero-guard
// invariant.
//
// The expiring bits are what makes the naïve packing slow — each lane
// expires the bit of a *different* history length, which is per-lane work
// again. PackedFolds instead gathers the expiring bit of every distinct
// history length into one register (one circular-buffer read per distinct
// length per branch, exactly what the scalar batched updaters pay), and
// resolves each word's combined expiring mask with a single lookup into a
// small precomputed table indexed by the word's slice of that register.
// Lanes within a width group are laid out in ascending history order, so
// each word's lengths span a short contiguous run of the register and the
// tables stay tiny (a reference TAGE's 36 folds pack into ~13 words with
// well under 1 KiB of lookup tables).
//
// Build the set with a PackedBuilder; the int returned by Add is the
// fold's permanent handle for Value.
type PackedFolds struct {
	words []uint64
	meta  []packedWord
	// lengths holds the distinct non-zero history lengths, ascending; the
	// per-branch expiring register holds one bit per entry (≤ 64).
	lengths []int32
	// lut holds the per-word expiring-mask tables back to back; a word's
	// table is lut[lutOff : lutOff+spanMask+1], indexed by the word's span
	// of the expiring register.
	lut []uint64
	// maxLen is the largest registered length: once the history holds more
	// than maxLen outcomes the gather loop can skip the staleness guards.
	maxLen int
	// refs maps the Add-order fold handle to its lane location for Value.
	// Inert (zero-length) folds keep a zero ref with mask 0.
	refs []laneRef
	// vals mirrors every fold's current value, unpacked, indexed by handle.
	// Update refreshes it while the packed words are still in registers, so
	// the per-prediction readers (up to 3 reads per table per branch — far
	// more reads than updates) cost one sequential uint32 load instead of a
	// word load plus a variable shift.
	vals []uint32
}

type packedWord struct {
	newMask   uint64 // bit 0 of every lane
	valueMask uint64 // the Width value bits of every lane (guards clear)
	lutOff    uint32 // this word's slice of lut
	spanMask  uint32 // (1 << distinct-length span) - 1
	base      uint8  // first length index of the span
	width     uint8
}

type laneRef struct {
	mask   uint32 // (1<<Width)-1, or 0 for an inert fold
	length int32
	word   uint16
	shift  uint8
	width  uint8
}

// lutSpanMax bounds the distinct-length span of one word (and so the size
// of its expiring table: at most 1<<lutSpanMax entries). A word whose next
// lane would stretch the span further starts a new word instead — packing
// density traded for table locality.
const lutSpanMax = 8

// PackedBuilder assembles a PackedFolds from individual fold shapes.
type PackedBuilder struct {
	specs []foldSpec
}

type foldSpec struct {
	length int32
	width  uint8
}

// Add registers a fold of length history bits into width bits and returns
// its handle for PackedFolds.Value. A zero length registers an inert fold
// (permanently 0), mirroring the zero Folded placeholder.
func (b *PackedBuilder) Add(length int, width uint) int {
	if width < 1 || width > 31 {
		panic("histories: folded width out of range")
	}
	b.specs = append(b.specs, foldSpec{length: int32(length), width: uint8(width)})
	return len(b.specs) - 1
}

// Build lays the registered folds out into width-grouped words and
// precomputes the expiring-mask tables. The builder can be reused.
func (b *PackedBuilder) Build() *PackedFolds {
	p := &PackedFolds{
		refs: make([]laneRef, len(b.specs)),
		vals: make([]uint32, len(b.specs)),
	}

	// Distinct non-zero lengths, ascending: each is one circular-buffer
	// read and one expiring-register bit.
	lenIdx := make(map[int32]int32)
	for _, s := range b.specs {
		if s.length != 0 {
			lenIdx[s.length] = 0
		}
	}
	p.lengths = make([]int32, 0, len(lenIdx))
	for l := range lenIdx {
		p.lengths = append(p.lengths, l)
	}
	sort.Slice(p.lengths, func(i, j int) bool { return p.lengths[i] < p.lengths[j] })
	if len(p.lengths) > 64 {
		panic("histories: more than 64 distinct fold lengths")
	}
	for i, l := range p.lengths {
		lenIdx[l] = int32(i)
		if int(l) > p.maxLen {
			p.maxLen = int(l)
		}
	}

	// Group live folds by width and, within a width, by ascending length,
	// so one word's lengths form a short run of the expiring register.
	order := make([]int, 0, len(b.specs))
	for i, s := range b.specs {
		if s.length != 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := b.specs[order[i]], b.specs[order[j]]
		if si.width != sj.width {
			return si.width < sj.width
		}
		return si.length < sj.length
	})

	// wordLane records one lane's expiring-bit placement for LUT building.
	type wordLane struct {
		outMask uint64
		lenIdx  int32
	}
	var cur []wordLane
	var curWidth uint8
	var curBase int32
	var lanesInWord, perWord int

	closeWord := func() {
		if cur == nil {
			return
		}
		w := len(p.words) - 1
		span := int32(0)
		for _, ln := range cur {
			if d := ln.lenIdx - curBase; d+1 > span {
				span = d + 1
			}
		}
		m := &p.meta[w]
		m.base = uint8(curBase)
		m.spanMask = uint32(1)<<span - 1
		m.lutOff = uint32(len(p.lut))
		for bits := uint32(0); bits <= m.spanMask; bits++ {
			var exp uint64
			for _, ln := range cur {
				exp |= -uint64(bits>>(ln.lenIdx-curBase)&1) & ln.outMask
			}
			p.lut = append(p.lut, exp)
		}
		cur = nil
	}

	for _, id := range order {
		s := b.specs[id]
		stride := uint(s.width) + 1
		k := lenIdx[s.length]
		if cur == nil || s.width != curWidth || lanesInWord == perWord ||
			k-curBase >= lutSpanMax {
			closeWord()
			curWidth = s.width
			curBase = k
			perWord = 64 / int(stride)
			lanesInWord = 0
			p.words = append(p.words, 0)
			p.meta = append(p.meta, packedWord{width: s.width})
			cur = make([]wordLane, 0, perWord)
		}
		w := len(p.words) - 1
		shift := uint(lanesInWord) * stride
		lanesInWord++
		p.meta[w].newMask |= 1 << shift
		p.meta[w].valueMask |= bitutil.Mask(uint(s.width)) << shift
		cur = append(cur, wordLane{
			outMask: (1 << (uint(s.length) % uint(s.width))) << shift,
			lenIdx:  k,
		})
		p.refs[id] = laneRef{
			word:   uint16(w),
			shift:  uint8(shift),
			width:  s.width,
			length: s.length,
			mask:   uint32(bitutil.Mask(uint(s.width))),
		}
	}
	closeWord()
	return p
}

// NumFolds returns the number of registered folds (handles are [0, NumFolds)).
func (p *PackedFolds) NumFolds() int { return len(p.refs) }

// NumWords returns the number of 64-bit words the folds packed into — the
// per-branch word-operation count of Update.
func (p *PackedFolds) NumWords() int { return len(p.words) }

// Value returns the current folded value of the fold Add returned id for.
func (p *PackedFolds) Value(id int) uint32 { return p.vals[id] }

// Values exposes the unpacked value mirror, indexed by fold handle. The
// slice is stable across Update and Reset (updated in place, never
// reallocated), so hot loops can cache it once.
func (p *PackedFolds) Values() []uint32 { return p.vals }

// Update advances every fold after g.Push(taken): the shared newest bit is
// the pushed outcome itself, each distinct history length's expiring bit
// is read once into the expiring register, and every word advances with
// four word operations plus one table lookup.
func (p *PackedFolds) Update(g *Global, taken bool) {
	head, mask, n := g.head, g.mask, g.n
	buf := g.buf[:mask+1]
	var e uint64
	if n > uint64(p.maxLen) && p.maxLen <= mask {
		// Steady state: every registered length is inside the filled
		// window, so the staleness guards of oldestBit vanish.
		for k, l := range p.lengths {
			e |= uint64(buf[(head-int(l))&mask]) << (uint(k) & 63)
		}
	} else {
		for k, l := range p.lengths {
			e |= uint64(oldestBit(buf, head, mask, n, int(l))) << (uint(k) & 63)
		}
	}
	// -1 or 0 without a branch: the outcome is a coin flip, and a
	// mispredicted branch here would cost more than the whole word loop.
	var nb uint64
	if taken {
		nb = 1
	}
	newest := -nb
	lut := p.lut
	meta := p.meta
	words := p.words[:len(meta)]
	for w := range words {
		m := &meta[w]
		x := (words[w] << 1) | (newest & m.newMask)
		x ^= lut[m.lutOff+(uint32(e>>(m.base&63))&m.spanMask)]
		x ^= (x >> (m.width & 63)) & m.newMask
		words[w] = x & m.valueMask
	}
	// Refresh the unpacked mirror while the words are cache-hot. One pass
	// over the live lanes; inert folds keep their permanent zero.
	vals := p.vals
	refs := p.refs
	for i := range refs {
		r := &refs[i]
		vals[i] = uint32(words[r.word]>>(r.shift&63)) & r.mask
	}
}

// Reset clears every fold to zero (the state matching an empty history).
func (p *PackedFolds) Reset() {
	for i := range p.words {
		p.words[i] = 0
	}
	for i := range p.vals {
		p.vals[i] = 0
	}
}

// Recompute recalculates every fold from the underlying history from
// scratch — the ground truth for tests.
func (p *PackedFolds) Recompute(g *Global) {
	p.Reset()
	for id := range p.refs {
		r := &p.refs[id]
		if r.mask == 0 {
			continue
		}
		var v uint64
		for i := 0; i < int(r.length); i++ {
			v ^= uint64(g.Bit(i)) << (uint(i) % uint(r.width))
		}
		p.words[r.word] |= v << (r.shift & 63)
		p.vals[id] = uint32(v)
	}
}
