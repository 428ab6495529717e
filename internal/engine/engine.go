// Package engine compiles a built core.Tree into a flat, pointer-free
// classification engine for the software fast path.
//
// The layout mirrors the paper's §4 memory image, translated from
// 4800-bit hardware words into cache-line-friendly Go slices:
//
//   - Internal nodes live in one contiguous []node slice, indexed by the
//     same Word number core.Tree.layout assigns (root = entry 0, the word
//     the hardware keeps in register A). A node's entry holds int32
//     offsets into two shared pools instead of the word's bit fields:
//     its mask/shift cut header goes to the cuts pool (the per-dimension
//     mask and barrel-shift bytes of the word header) and its child
//     pointer array goes to the kids pool (the word's 18-bit cut
//     entries).
//   - A child reference is one int32: values >= 0 index the node slice
//     (an internal "word pointer"), values < 0 are ^v into the leaf
//     table (the hardware's leaf flag + Word/Pos pair). Empty regions
//     point at a shared empty leaf, exactly like the hardware's shared
//     sentinel.
//   - Leaf rule IDs are packed, in priority order, into one shared
//     []int32 pool (the rules-in-leaf storage of §3; deduplicated leaves
//     keep their sharing, so the pool is the software twin of the leaf
//     words). The rules' bounds are stored twice: as a flat []flatRule
//     array indexed by rule ID (the source of truth, and the AoS
//     baseline), and word-packed in pool order — the software
//     comparator bank (soa.go): one 320-byte word holds the bounds of
//     eight consecutive pool slots, so a leaf scan reads one memory
//     word per eight rules and compares all eight at once, as the
//     device reads one 4800-bit word per 30 rules. The bank is derived
//     state: Compile and image restore build it from the rule table and
//     the pool (soaBank.build), Patch appends to it in lock-step with
//     the pool.
//
// Traversal therefore never chases a Go pointer: it walks int32 indices
// through three flat arrays, computing child indexes with the identical
// mask/shift/add datapath the accelerator implements. ClassifyBatch
// works in blocks of blockLen packets: it walks every packet of a block
// to its leaf window first, then hands the whole block to the scan
// kernel (soa_dispatch.go) in one call; Classify is the same kernel on
// a block of one. Both perform zero allocations. The one place a batch
// is spread over cores is Handle.ClassifySharded (handle.go).
//
// Each Engine value is an immutable snapshot. Live updates do not mutate
// it: core.Tree.InsertDelta/DeleteDelta produce structured deltas that
// Patch replays into the next snapshot, sharing unchanged pool segments
// copy-on-write (see patch.go). Handle (handle.go) publishes the chain of
// snapshots through an epoch-versioned atomic pointer, so readers
// classify lock-free against a consistent image while a single updater
// swaps in the next epoch, and GarbageRatio tells the control plane when
// to fold the accumulated patch garbage into a fresh Compile.
package engine

import (
	"repro/internal/core"
	"repro/internal/rule"
)

// cut is one dimension of an internal node's cut header: the hardware's
// 8-bit mask plus signed barrel-shift (positive = right shift).
type cut struct {
	dim   uint8
	mask  uint8
	shift int8
}

// node is one internal node: a view into the shared cuts pool and the
// offset and length of its child-reference block in the kids pool. The
// explicit length lets Patch relocate a single node's block to the end of
// the kids arena (copy-on-write at block granularity) without touching
// its neighbours.
type node struct {
	cutOff int32
	cutLen int32
	kidOff int32
	kidLen int32
}

// leafRef locates one deduplicated leaf's rule IDs in the shared pool.
type leafRef struct {
	off int32
	n   int32
}

// The leaf table is stored in fixed-size chunks so Patch can share every
// chunk the update leaves untouched between snapshots: a patch copies
// only the chunks containing edited leaf indices (from the delta's first
// dirty leaf on) plus the chunk directory, making the leaf-table side of
// an update O(edited chunks), not O(leaves). 256 entries × 8 bytes = 2
// KiB per chunk keeps the copy cost of one edit trivial while the extra
// indirection on the classify path is a single additional index split.
const (
	leafChunkBits = 8
	leafChunkLen  = 1 << leafChunkBits
	leafChunkMask = leafChunkLen - 1
)

// flatRule is the match form of one rule: closed [lo,hi] per dimension,
// indexed by rule ID. 40 bytes, so a 30-rule leaf scan touches the same
// order of memory as one 600-byte hardware word.
type flatRule struct {
	lo [rule.NumDims]uint32
	hi [rule.NumDims]uint32
}

// Engine is a flat, immutable, pointer-free classification engine. All
// methods are safe for concurrent use.
//
// An Engine value is one epoch's snapshot of the image: readers holding
// it classify against a consistent structure forever. After a
// core.Tree.InsertDelta/DeleteDelta, Patch derives the next epoch's
// snapshot by copy-on-write — unchanged pool segments are shared between
// epochs, abandoned segments are counted as garbage until a full Compile
// replaces the chain (see GarbageRatio). Handle wraps the chain in an
// atomic, epoch-versioned pointer for lock-free readers.
type Engine struct {
	nodes []node
	// cuts / kids / ruleIDs / rules are COW arenas shared between
	// snapshots. Once an engine is published they are written only past
	// their lengths (kids also in blocks relocated by the same patch
	// batch), so no reader of a snapshot loads a word a later patch
	// writes; TestPatchLeavesReceiverUntouched checks it after every
	// patch.
	cuts []cut
	kids []int32
	// leaves is the chunked leaf table: entry i lives at
	// leaves[i>>leafChunkBits][i&leafChunkMask]. Chunks are immutable
	// once published; Patch copies only the chunks it edits and shares
	// the rest with the previous snapshot.
	leaves    [][]leafRef
	numLeaves int
	// ruleIDs holds the leaf windows' rule IDs; between windows it may
	// hold noRule pads (PatchBatch).
	ruleIDs []int32
	rules   []flatRule
	// soa holds the leaf windows' rule bounds word-packed in ruleIDs
	// order — the software comparator bank the leaf scan reads (see
	// soa.go). Like ruleIDs it is an append-only arena: Patch writes
	// rewritten windows into words past the receiver's last one, so the
	// arena is shared between snapshots exactly like the pool.
	soa soaBank

	// kern is the scan kernel tag (kernPortable/kernNative), stamped
	// at Compile from the process default and carried unchanged through
	// Patch: a published snapshot never changes kernels mid-flight. See
	// soa_dispatch.go; WithKernel derives a re-stamped view for A/B runs.
	kern uint8

	// deadRuleSlots / deadKidSlots count pool entries abandoned by
	// patches (rewritten leaf windows, relocated kid blocks). They feed
	// GarbageRatio, the recompile trigger.
	deadRuleSlots int
	deadKidSlots  int
}

// Compile flattens a built tree into an Engine. The tree's layout (Word
// numbering of internal nodes, first-encounter order of deduplicated
// leaves) carries over verbatim, so the engine is a software rendering of
// the exact memory image the accelerator would load.
func Compile(t *core.Tree) *Engine {
	internals := t.Internals()
	leafNodes := t.Leaves()
	rs := t.Rules()

	e := &Engine{
		nodes: make([]node, len(internals)),
		rules: make([]flatRule, len(rs)),
		kern:  defaultKern,
	}
	for i := range rs {
		for d := 0; d < rule.NumDims; d++ {
			e.rules[i].lo[d] = rs[i].F[d].Lo
			e.rules[i].hi[d] = rs[i].F[d].Hi
		}
	}

	leafIdx := make(map[*core.Node]int32, len(leafNodes))
	total := 0
	for _, l := range leafNodes {
		total += len(l.Rules)
	}
	e.ruleIDs = make([]int32, 0, total)
	flat := make([]leafRef, len(leafNodes))
	for i, l := range leafNodes {
		leafIdx[l] = int32(i)
		flat[i] = leafRef{off: int32(len(e.ruleIDs)), n: int32(len(l.Rules))}
		e.ruleIDs = append(e.ruleIDs, l.Rules...)
	}
	e.soa.build(e.rules, e.ruleIDs)

	for w, n := range internals {
		// layout() numbers internal nodes breadth-first: n.Word == w.
		nd := node{
			cutOff: int32(len(e.cuts)),
			cutLen: int32(len(n.Cuts)),
			kidOff: int32(len(e.kids)),
			kidLen: int32(len(n.Children)),
		}
		for _, c := range n.Cuts {
			e.cuts = append(e.cuts, cut{dim: uint8(c.Dim), mask: c.Mask, shift: c.Shift})
		}
		// core.Build never leaves a child slot nil: empty regions share
		// one empty leaf.
		for _, c := range n.Children {
			ref := int32(c.Word)
			if c.Leaf {
				ref = ^leafIdx[c]
			}
			e.kids = append(e.kids, ref)
		}
		e.nodes[w] = nd
	}
	e.setLeaves(flat)
	e.soa.computeOrder(len(e.ruleIDs))
	return e
}

// setLeaves chunks a flat leaf table into the engine's two-level form.
// One slab allocation backs all chunks of a fresh compile; patched
// snapshots replace individual chunks with private copies.
func (e *Engine) setLeaves(flat []leafRef) {
	e.numLeaves = len(flat)
	nch := (len(flat) + leafChunkLen - 1) / leafChunkLen
	e.leaves = make([][]leafRef, nch)
	slab := make([]leafRef, nch*leafChunkLen)
	copy(slab, flat)
	for i := range e.leaves {
		e.leaves[i] = slab[i*leafChunkLen : (i+1)*leafChunkLen : (i+1)*leafChunkLen]
	}
}

// leafAt returns leaf-table entry i (valid for 0 <= i < numLeaves).
func (e *Engine) leafAt(i int32) leafRef {
	return e.leaves[i>>leafChunkBits][i&leafChunkMask]
}

// blockLen is the number of packets ClassifyBatch walks before it calls
// the scan kernel once for all of them. Measured against 1, 4, 16, 64
// and 256 (DESIGN.md §10): one call per packet costs half again as much,
// and past 4-8 packets a longer block buys nothing.
const blockLen = 8

// scanStage is one block of walked packets awaiting the scan kernel:
// packet j's leaf window and field vector. It lives on the caller's
// stack.
type scanStage struct {
	refs [blockLen]leafRef
	f    [blockLen][rule.NumDims]uint32
}

// stage walks p to its leaf window, leaving its field vector in f.
func (e *Engine) stage(p rule.Packet, f *[rule.NumDims]uint32) leafRef {
	*f = [rule.NumDims]uint32{p.SrcIP, p.DstIP, uint32(p.SrcPort), uint32(p.DstPort), uint32(p.Proto)}
	return e.walk(f)
}

// Classify returns the highest-priority matching rule ID for p, or -1.
// It allocates nothing. It is ClassifyBatch on a block of one: the walk,
// then the engine's scan kernel over the comparator bank (soa.go).
// ClassifyAoS is the array-of-structs baseline it is measured against.
//
//repro:hotpath
func (e *Engine) Classify(p rule.Packet) int {
	var f [1][rule.NumDims]uint32
	var out [1]int32
	ref := [1]leafRef{e.stage(p, &f[0])}
	e.scanBlock(ref[:], f[:], out[:])
	return int(out[0])
}

// ClassifyAoS is Classify with the array-of-structs leaf scan: one rule
// at a time over []flatRule with early exit. It is the portable baseline
// the SoA comparator bank is measured against (benchmark/'s
// engine.classify_aos_ns_pkt, BenchmarkLeafScan) and the differential
// oracle of the SoA tests; the two are packet-identical by construction
// and by test.
func (e *Engine) ClassifyAoS(p rule.Packet) int {
	var f [rule.NumDims]uint32
	return e.aosScanLeaf(e.stage(p, &f), &f)
}

// aosScanLeaf is the array-of-structs window scan: one rule at a time
// with early exit. The ten-compare bounds check is written out because
// as a flatRule method it exceeds the inliner's budget, and a call per
// scanned rule costs this path ~25% of its throughput.
func (e *Engine) aosScanLeaf(l leafRef, f *[rule.NumDims]uint32) int {
	for _, id := range e.ruleIDs[l.off : l.off+l.n] {
		r := &e.rules[id]
		if f[0] >= r.lo[0] && f[0] <= r.hi[0] &&
			f[1] >= r.lo[1] && f[1] <= r.hi[1] &&
			f[2] >= r.lo[2] && f[2] <= r.hi[2] &&
			f[3] >= r.lo[3] && f[3] <= r.hi[3] &&
			f[4] >= r.lo[4] && f[4] <= r.hi[4] {
			return int(id)
		}
	}
	return -1
}

// walk runs the internal-node traversal — the identical mask/shift/add
// datapath the accelerator implements — and returns the leaf window the
// packet lands in. Shared by the SoA and AoS classify paths, so the two
// differ only in the leaf scan.
func (e *Engine) walk(f *[rule.NumDims]uint32) leafRef {
	// The hardware's register B: the top 8 bits of every field, computed
	// once per packet instead of once per cut evaluation.
	var t8 [rule.NumDims]uint8
	t8[0] = uint8(f[0] >> 24)
	t8[1] = uint8(f[1] >> 24)
	t8[2] = uint8(f[2] >> 8)
	t8[3] = uint8(f[3] >> 8)
	t8[4] = uint8(f[4])

	ni := int32(0)
	for {
		n := &e.nodes[ni]
		idx := int32(0)
		for _, c := range e.cuts[n.cutOff : n.cutOff+n.cutLen] {
			v := uint32(t8[c.dim] & c.mask)
			if c.shift >= 0 {
				idx += int32(v >> uint(c.shift))
			} else {
				idx += int32(v << uint(-c.shift))
			}
		}
		ref := e.kids[n.kidOff+idx]
		if ref >= 0 {
			ni = ref
			continue
		}
		li := ^ref
		return e.leaves[li>>leafChunkBits][li&leafChunkMask]
	}
}

// ClassifyBatch classifies pkts[i] into out[i] for every i. It performs
// zero heap allocations; out must be at least as long as pkts.
//
// The batch is worked in blocks of blockLen in two stages. Stage one
// walks each packet of the block to its leaf window: the walks are
// independent of one another, so their cache misses (child slot, leaf
// table entry) overlap instead of queueing behind the previous packet's
// scan. Stage two is one scan-kernel call for the whole block, which
// writes the answers straight into out.
//
//repro:hotpath
func (e *Engine) ClassifyBatch(pkts []rule.Packet, out []int32) {
	out = out[:len(pkts)] // bounds check once; panics if out is short
	var st scanStage
	for len(pkts) > 0 {
		n := min(len(pkts), blockLen)
		for j, p := range pkts[:n] {
			st.refs[j] = e.stage(p, &st.f[j])
		}
		e.scanBlock(st.refs[:n], st.f[:n], out[:n])
		pkts, out = pkts[n:], out[n:]
	}
}

// classifyMarked is ClassifyBatch for the packets whose out entry holds
// mark, and leaves every other entry alone: classifyCachedRange's form,
// whose engine-bound packets are scattered among cached answers. The
// marked packets are gathered into blocks; at[j] is staged packet j's
// place in the batch.
func (e *Engine) classifyMarked(pkts []rule.Packet, out []int32, mark int32) {
	var st scanStage
	var at, res [blockLen]int32
	n := 0
	for i := 0; ; i++ {
		if i == len(pkts) || n == blockLen {
			e.scanBlock(st.refs[:n], st.f[:n], res[:n])
			for j, k := range at[:n] {
				out[k] = res[j]
			}
			if n = 0; i == len(pkts) {
				return
			}
		}
		if out[i] == mark {
			st.refs[n] = e.stage(pkts[i], &st.f[n])
			at[n] = int32(i)
			n++
		}
	}
}

// ClassifyBatchAoS is ClassifyBatch over the array-of-structs leaf scan
// (see ClassifyAoS); the baseline's measurement surface.
func (e *Engine) ClassifyBatchAoS(pkts []rule.Packet, out []int32) {
	_ = out[:len(pkts)]
	for i := range pkts {
		out[i] = int32(e.ClassifyAoS(pkts[i]))
	}
}

// NumNodes returns the number of internal nodes in the flat image.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// NumLeaves returns the number of deduplicated leaves.
func (e *Engine) NumLeaves() int { return e.numLeaves }

// NumRules returns the ruleset size.
func (e *Engine) NumRules() int { return len(e.rules) }

// MemoryBytes returns the engine's flat-image footprint: the node, cut,
// child, leaf and rule arrays plus the SoA comparator-bank arenas (the
// software counterpart of core.Tree.MemoryBytes).
func (e *Engine) MemoryBytes() int {
	return len(e.nodes)*16 + len(e.cuts)*3 + len(e.kids)*4 +
		len(e.leaves)*(leafChunkLen*8+24) + len(e.ruleIDs)*4 + len(e.rules)*40 +
		len(e.soa.words)*8*wordSlots*rule.NumDims
}
