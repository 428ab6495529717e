package engine

import (
	"math/bits"

	"repro/internal/rule"
)

// The software comparator bank, stored the way the device stores a leaf.
//
// The accelerator keeps a leaf's rules side by side in one wide memory
// word, reads the word in one access and fires every range comparator on
// it at once (§3-4, Eqs. 5-7). soaBank is that memory, sized for the
// host: a bankWord holds the bounds of wordSlots consecutive slots of the
// ruleIDs pool, and a window scan reads one word per wordSlots rules.
//
// A word is five 64-byte lines, one per dimension in natural order, each
// lo[wordSlots] | hi[wordSlots]. One line per dimension because that is
// what one comparator round consumes: a 32-byte load of eight lower
// bounds, a 32-byte load of eight upper bounds, both from the same cache
// line (arenas of more than 32 KiB are page-aligned, so the lines are
// real cache lines wherever scan speed matters), and the five lines of a
// word are adjacent, so a word is one prefetchable 320-byte run instead
// of ten streams.
//
// Slot order is the pool order, and windows are not aligned to words: a
// window [off, off+n) starts in lane off%wordSlots of word off/wordSlots
// and the kernels mask the lanes of its first and last word that belong
// to its neighbours. Aligning every window would cost a second offset
// per leaf and about wordSlots/2 dead slots per window (the benchmark
// rulesets build thousands of windows of 20-130 slots); the masks cost
// two scalar instructions per word.
//
// The arena grows append-only, in lock-step with ruleIDs, and a patch
// never writes a word a published snapshot can load: the device's write
// port likewise takes an update as whole words the classifier is not
// reading. PatchBatch starts its first window on a fresh word, padding
// the pool to a word boundary with noRule slots whose lanes keep
// blankWord's bounds, so the receiver's last word is left as it was; the
// batch's later windows pack densely into words the batch appended
// itself, which no reader sees before the batch is published.
type soaBank struct {
	// words is the published comparator arena (COW, append-only after
	// publish; see Engine.cuts). Lanes past the pool's slot count, and
	// the lanes of noRule pads, hold blankWord's bounds.
	words []bankWord
	// order ranks the dimensions, most selective first, from the
	// ruleset's wildcard densities at Compile time — every recompile
	// (including the GarbageRatio-triggered background one) re-measures
	// it over the then-current arena. The portable kernel sweeps
	// order[0]; the whole ranking travels in the engine image. Patches
	// intentionally do NOT recompute it: windows they append keep the
	// stale compile-time order, because order is a scan heuristic, not a
	// correctness input — a slot matches only if every dimension does,
	// whichever is looked at first. Heavy churn can therefore drift
	// order away from the live selectivity ranking until the next
	// recompile restores it (TestOrderRecomputedOnRecompile).
	order [rule.NumDims]uint8
}

// wordSlots is the number of pool slots per bank word: the lane count of
// one AVX2 register of 32-bit bounds, which the amd64 kernel hard-codes.
const wordSlots = 8

// bankWord is one word of the bank: bankWord[d] is dimension d's line,
// lanes [0, wordSlots) the lower bounds and [wordSlots, 2*wordSlots) the
// upper bounds of the word's slots.
type bankWord [rule.NumDims][2 * wordSlots]uint32

// blankWord is what appended words hold before their lanes are filled:
// lo=1 > hi=0 in every dimension, bounds no packet field lies in.
var blankWord = func() (w bankWord) {
	for d := range w {
		for l := 0; l < wordSlots; l++ {
			w[d][l] = 1
		}
	}
	return w
}()

// noRule is a ruleIDs pool slot that holds no rule: one of the pads
// PatchBatch appends to start its first window on a fresh word. Its lane
// keeps blankWord's bounds, and no leaf window covers it.
const noRule = -1

// defaultOrder returns the identity sweep order.
func defaultOrder() [rule.NumDims]uint8 {
	var o [rule.NumDims]uint8
	for d := range o {
		o[d] = uint8(d)
	}
	return o
}

// build fills a fresh bank from its source of truth: slot i holds the
// bounds of rule ids[i], for the whole ruleIDs pool at once. Compile and
// image restore both call it, so the bank is a function of (rules,
// ruleIDs) by construction. Every id is noRule or indexes rules.
func (b *soaBank) build(rules []flatRule, ids []int32) {
	b.words = make([]bankWord, 0, (len(ids)+wordSlots-1)/wordSlots)
	b.appendWindow(0, rules, ids)
}

// appendWindow stores the bounds of each rule in ids in slots at,
// at+1, ... — Patch's mirror of appending a rewritten window's ids to
// the ruleIDs pool, whose length at is — appending words as the slots
// reach them and leaving noRule slots blank. It fills lanes of the last
// word in place, so that word must be one no published snapshot holds:
// a fresh bank's, or one the current patch batch appended.
func (b *soaBank) appendWindow(at int, rules []flatRule, ids []int32) {
	for i, id := range ids {
		s := at + i
		if s/wordSlots == len(b.words) {
			b.words = append(b.words, blankWord)
		}
		if id == noRule {
			continue
		}
		w, l, r := &b.words[s/wordSlots], s%wordSlots, &rules[id]
		for d := 0; d < rule.NumDims; d++ {
			w[d][l], w[d][wordSlots+l] = r.lo[d], r.hi[d]
		}
	}
}

// computeOrder ranks the dimensions by measured selectivity over the
// bank's first slots slots: dimensions whose slots are least often
// full-range wildcards go first, so the portable kernel's one sweep per
// word leaves as few lanes to verify as possible.
func (b *soaBank) computeOrder(slots int) {
	b.order = defaultOrder()
	var selective [rule.NumDims]int
	for s := 0; s < slots; s++ {
		w, l := &b.words[s/wordSlots], s%wordSlots
		for d := 0; d < rule.NumDims; d++ {
			if w[d][l] != 0 || w[d][wordSlots+l] != uint32(1)<<rule.DimBits[d]-1 {
				selective[d]++
			}
		}
	}
	// Insertion sort of 5 elements, descending selectivity, stable so
	// equal dimensions keep the natural (cheap-fields-first) order.
	for i := 1; i < rule.NumDims; i++ {
		for j := i; j > 0 && selective[b.order[j]] > selective[b.order[j-1]]; j-- {
			b.order[j], b.order[j-1] = b.order[j-1], b.order[j]
		}
	}
}

// rangeBit reports, branch-free, whether v lies in [lo, hi]: v-lo wraps
// past hi-lo exactly when v is outside the interval (unsigned-wraparound
// range check), so the borrow bit of the 64-bit difference is the
// comparator output.
func rangeBit(v, lo, hi uint32) uint64 {
	return (uint64(hi-lo)-uint64(v-lo))>>63 ^ 1
}

// sweep returns one dimension's match bits for lanes [l0, l1) of a word
// line: bit l is set when v lies within lane l's bounds. It reads no
// other lane.
func sweep(v uint32, line *[2 * wordSlots]uint32, l0, l1 int32) uint32 {
	if l0 == 0 && l1 == wordSlots {
		return uint32(rangeBit(v, line[0], line[8]) | rangeBit(v, line[1], line[9])<<1 |
			rangeBit(v, line[2], line[10])<<2 | rangeBit(v, line[3], line[11])<<3 |
			rangeBit(v, line[4], line[12])<<4 | rangeBit(v, line[5], line[13])<<5 |
			rangeBit(v, line[6], line[14])<<6 | rangeBit(v, line[7], line[15])<<7)
	}
	var m uint64
	for l := l0; l < l1; l++ {
		m |= rangeBit(v, line[l&(wordSlots-1)], line[wordSlots+l&(wordSlots-1)]) << uint(l)
	}
	return uint32(m)
}

// scanWindow is the portable scan kernel: the pool slot of the first
// rule of window l whose bounds contain the packet fields f, or -1. It
// walks the window's words in order. Per word, one branch-free sweep of
// the most selective dimension over the window's lanes leaves a mask of
// surviving lanes — usually empty, and the word is done after reading
// one line — and each survivor, lowest lane first (windows are
// priority-ordered, like the pool), is checked against its bounds in
// every dimension with early exit. The check is written out with
// constant dimension indexes: looping over order instead costs the
// bounds checks back (acl1@10k: 103 vs 93 ns/packet).
//
//repro:hotpath
func (b *soaBank) scanWindow(l leafRef, f *[rule.NumDims]uint32) int32 {
	if l.n <= 0 {
		return -1
	}
	end := l.off + l.n
	l0 := l.off % wordSlots
	for s := l.off - l0; s < end; s += wordSlots {
		w := &b.words[s/wordSlots]
		l1 := min(end-s, wordSlots)
		d0 := b.order[0]
		for m := sweep(f[d0], &w[d0], l0, l1); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & (wordSlots - 1)
			if w[0][l] <= f[0] && f[0] <= w[0][wordSlots+l] &&
				w[1][l] <= f[1] && f[1] <= w[1][wordSlots+l] &&
				w[2][l] <= f[2] && f[2] <= w[2][wordSlots+l] &&
				w[3][l] <= f[3] && f[3] <= w[3][wordSlots+l] &&
				w[4][l] <= f[4] && f[4] <= w[4][wordSlots+l] {
				return s + int32(l)
			}
		}
		l0 = 0
	}
	return -1
}
