package engine

import (
	"math/bits"
	"unsafe"

	"repro/internal/rule"
)

// Structure-of-arrays leaf storage: the software comparator bank.
//
// The accelerator evaluates a leaf by firing 30 range comparators in
// parallel over the 160-bit rule slots of one wide memory word. The
// array-of-structs scan ([]flatRule, 40 bytes per rule) is the obvious
// software rendering, but it serializes the comparators: each rule costs
// up to ten compares and data-dependent branches, so deep scans pay a
// mispredict per rule.
//
// soaBank stores the same bounds as ten per-dimension arenas —
// lo[d][i]/hi[d][i] are the bounds of the rule in leaf-scan slot i, laid
// out in exactly the order of the ruleIDs pool — so evaluating a window
// becomes contiguous per-dimension sweeps, each accumulating a match
// bitmask with branch-free compares over a block of slots. The first set
// bit of the surviving mask is the highest-priority match (windows are
// priority-ordered, like the pool). The sweeps are 4-wide unrolled over
// bounds-check-eliminated slices: a portable form wide enough for the
// compiler to keep the adjacent loads and the wraparound compares in
// independent registers, and the natural shape for AVX2/NEON lanes
// should a SIMD backend land.
//
// Two workload facts (measured on ACL1 traces, see TestScanStats) shape
// the kernel:
//
//   - Matches cluster at the window head: Zipf-popular rules are the
//     high-priority ones, so ~half of all scans end in the first slot.
//     scanLeaf therefore peels the first soaPeel slots with the AoS
//     early-exit compare before starting the bank — the block setup can
//     never be amortized over a one-slot scan.
//   - Dimensions differ wildly in selectivity (most slots are wildcard
//     in some dimensions). The sweeps run in compile-time selectivity
//     order (order[]), so a block of non-matching slots usually dies
//     after one or two sweeps instead of five.
//
// The arenas grow append-only, in lock-step with ruleIDs: Patch appends
// a rewritten leaf's bounds past the receiver's length exactly as it
// appends the window's rule IDs, so snapshot sharing and the race-free
// epoch swap are untouched (readers of older snapshots never index past
// their snapshot's length, and published slots are never rewritten).
type soaBank struct {
	// lo/hi are the published per-dimension comparator arenas (COW,
	// append-only after publish; see Engine.cuts).
	//repro:arena
	lo [rule.NumDims][]uint32
	//repro:arena
	hi [rule.NumDims][]uint32
	// order is the dimension sweep order, most selective first, computed
	// from the ruleset's wildcard densities at Compile time — every
	// recompile (including the GarbageRatio-triggered background one)
	// re-measures it over the then-current arenas. Patches intentionally
	// do NOT recompute it: windows they append keep the stale compile-time
	// order, because order is a scan heuristic, not a correctness input —
	// all kernels sweep every dimension of a surviving slot — and
	// re-sorting it mid-chain would force concurrent snapshot readers to
	// re-resolve sweep pointers. Heavy churn can therefore drift order
	// away from the live selectivity ranking until the next recompile
	// restores it (TestOrderRecomputedOnRecompile).
	order [rule.NumDims]uint8
	// pLo/pHi are the order-permuted arena base pointers (pLo[i] =
	// &lo[order[i]][0]), resolved by pad() at every publish point so
	// scanSIMD builds its argument block with five pointer adds instead
	// of bounds-checked slice indexing. Snapshots copy the bank by
	// value, so each snapshot's pointers pin its own backing arrays.
	pLo, pHi [rule.NumDims]*uint32
}

// scanBlockLen is the comparator-bank width of the first block after the
// peel: small enough that a match just past the peel costs a few short
// sweeps. Deeper blocks widen to scanTailLen — matches that deep are
// rare, so the tail is tuned for miss throughput (fewer per-block
// setups), not match latency. Both fit one uint64 mask.
const (
	scanBlockLen = 16
	scanTailLen  = 64
)

// soaPadSlots is the over-read slack every published arena carries past
// its length: the SIMD kernels (scanWindowASM) round block sweeps up to
// full 8-lane rounds instead of peeling scalar tails, so the last round
// of the last window may read up to 7 slots past the arena's high
// watermark. pad() extends each arena's allocation by this many slots at
// every publish point (Compile, PatchBatch, image restore); the garbage
// lanes are discarded by the kernels' block mask. The portable kernels
// never read past len, so padding costs them nothing.
const soaPadSlots = 8

// soaPeel is the number of head slots scanLeaf checks with the AoS
// early-exit compare before switching to the bank. Windows of at most
// soaScanCutoff slots are peeled whole: below that length the bank's
// block setup cannot beat the early-exit loop even on full misses (the
// measured crossover on ACL1 workloads sits between 16 and 32 slots).
//
// The native SIMD kernels move the crossover down: one fused asm call
// replaces all per-block slice setup, so the bank starts paying for
// itself on much shorter windows (measured on ACL1@10k: the vector
// kernel beats the early-exit loop from ~8 slots). They keep only a
// one-slot peel: a first-slot match — still ~half of all scans — skips
// the asm call entirely, while the branchy AoS compare is exactly what
// profiles show dominating scanLeaf at deeper peels (a deeper head is
// cheaper swept 8-wide inside the kernel's first block).
const (
	soaPeel       = 4
	soaScanCutoff = 24

	soaPeelNative       = 1
	soaScanCutoffNative = 8
)

// peelLen returns how many head slots of an n-slot window the AoS peel
// covers under the given scan kernel: all of a short window, the
// kernel's peel depth of a long one.
func peelLen(kern uint8, n int32) int32 {
	if kern == kernNative {
		if n <= soaScanCutoffNative {
			return n
		}
		return soaPeelNative
	}
	if n <= soaScanCutoff {
		return n
	}
	return soaPeel
}

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
// ruleIDs) by construction. Every arena is allocated with the SIMD
// over-read slack, so the pad() that follows only resolves pointers.
// Every id must index rules.
//
//repro:arena-writer fills the arenas of a brand-new unpublished engine
func (b *soaBank) build(rules []flatRule, ids []int32) {
	for d := 0; d < rule.NumDims; d++ {
		b.lo[d] = make([]uint32, len(ids), len(ids)+soaPadSlots)
		b.hi[d] = make([]uint32, len(ids), len(ids)+soaPadSlots)
	}
	for i, id := range ids {
		r := &rules[id]
		for d := 0; d < rule.NumDims; d++ {
			b.lo[d][i], b.hi[d][i] = r.lo[d], r.hi[d]
		}
	}
}

// appendRule appends one rule's bounds to the bank (slot order = call
// order = ruleIDs pool order).
//
//repro:arena-writer appends one rule's bounds past the published length (COW append protocol)
func (b *soaBank) appendRule(fr *flatRule) {
	for d := 0; d < rule.NumDims; d++ {
		b.lo[d] = append(b.lo[d], fr.lo[d])
		b.hi[d] = append(b.hi[d], fr.hi[d])
	}
}

// appendWindow appends the bounds of each rule in ids, resolving them
// through the rule table — Patch's SoA mirror of appending a rewritten
// window's ids to the ruleIDs pool.
//
//repro:arena-writer appends a rewritten window past the published length (COW append protocol)
func (b *soaBank) appendWindow(rules []flatRule, ids []int32) {
	for _, id := range ids {
		b.appendRule(&rules[id])
	}
}

// slots returns the arena length (equals the ruleIDs pool length).
func (b *soaBank) slots() int { return len(b.lo[0]) }

// pad guarantees soaPadSlots of allocated slack past every arena's
// length — the SIMD kernels' over-read contract (see soaPadSlots).
// Called at every publish point, after all appends of a batch. When an
// arena already carries the slack (the common case: append growth
// doubles), pad is a no-op and the arena stays shared with prior
// snapshots; otherwise the reallocation copies it, which is safe for
// the same reason Patch's copy-on-write is — prior snapshots keep their
// own backing array.
//
//repro:unsafe-shape resolves arena base pointers once per publish; unsafe.SliceData preserves the slice's own alignment
//repro:arena-writer re-establishes the SIMD over-read slack at publish; reallocation is COW-safe
func (b *soaBank) pad() {
	for d := 0; d < rule.NumDims; d++ {
		b.lo[d] = padArena(b.lo[d])
		b.hi[d] = padArena(b.hi[d])
	}
	for i := 0; i < rule.NumDims; i++ {
		d := b.order[i]
		b.pLo[i] = unsafe.SliceData(b.lo[d])
		b.pHi[i] = unsafe.SliceData(b.hi[d])
	}
}

func padArena(a []uint32) []uint32 {
	if cap(a)-len(a) >= soaPadSlots {
		return a
	}
	na := make([]uint32, len(a), len(a)+soaPadSlots)
	copy(na, a)
	return na
}

// computeOrder fixes the sweep order by measured selectivity: dimensions
// whose slots are least often full-range wildcards go first, so the
// per-block mask collapses to zero after as few sweeps as possible.
func (b *soaBank) computeOrder() {
	b.order = defaultOrder()
	var selective [rule.NumDims]int
	for d := 0; d < rule.NumDims; d++ {
		full := uint32(1)<<rule.DimBits[d] - 1
		for i, lo := range b.lo[d] {
			if lo != 0 || b.hi[d][i] != full {
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

// sweep accumulates the match bits of one dimension over lo/hi (equal
// length, at most 64 — the uint64 mask width; callers block their
// windows at scanBlockLen/scanTailLen, both within the bound), 4-wide
// unrolled. The hi reslice pins its length to lo's so the unrolled body
// compiles without bounds checks.
func sweep(v uint32, lo, hi []uint32) uint64 {
	hi = hi[:len(lo)]
	var m uint64
	j := 0
	for ; j+4 <= len(lo); j += 4 {
		b0 := rangeBit(v, lo[j], hi[j])
		b1 := rangeBit(v, lo[j+1], hi[j+1])
		b2 := rangeBit(v, lo[j+2], hi[j+2])
		b3 := rangeBit(v, lo[j+3], hi[j+3])
		m |= (b0 | b1<<1 | b2<<2 | b3<<3) << uint(j)
	}
	for ; j < len(lo); j++ {
		m |= rangeBit(v, lo[j], hi[j]) << uint(j)
	}
	return m
}

// soaDenseCut is the candidate-count threshold above which candidates
// spends a second sweep: verifying a candidate costs about as much as
// sweeping four slots, so a first-dimension mask with only a few
// survivors is cheaper to verify directly than to keep masking.
const soaDenseCut = 3

// candidates returns the mask of slots in [base, base+bl) that survive
// the comparator bank's prefilter: a sweep of the most selective
// dimension, plus a second sweep when too many slots survive the first.
// Bit j corresponds to slot base+j. Callers verify surviving slots
// against the full rule bounds in ascending-bit (priority) order; a
// zero return proves no slot in the block matches (sweeps never produce
// false negatives).
func (b *soaBank) candidates(base, bl int32, f *[rule.NumDims]uint32) uint64 {
	d0 := b.order[0]
	m := sweep(f[d0], b.lo[d0][base:base+bl], b.hi[d0][base:base+bl])
	if m != 0 && bits.OnesCount64(m) > soaDenseCut {
		d1 := b.order[1]
		m &= sweep(f[d1], b.lo[d1][base:base+bl], b.hi[d1][base:base+bl])
	}
	return m
}
