package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rule"
)

// Patch derives the next snapshot of the flat image from a structured
// update delta (core.Tree.InsertDelta / DeleteDelta) without recompiling.
// The receiver is not modified; the returned engine shares every
// unchanged pool segment with it:
//
//   - cuts never change (internal-node cut headers are invariant under
//     incremental updates) and are always shared;
//   - rules, ruleIDs, the comparator bank (soa.go) and kids are
//     append-only arenas: new rule entries, rewritten leaf windows (IDs
//     and word-packed bounds alike) and relocated kid blocks are
//     appended past the receiver's length, and a batch's first window
//     starts on a fresh bank word (padToWord), so nothing a reader of
//     an older snapshot can load is written — not even a spare lane of
//     its last bank word (TestPatchLeavesReceiverUntouched; this is
//     what makes the snapshot swap race-detector clean);
//   - the leaf table is chunked (leafChunkLen entries per chunk), and
//     only the chunks containing edited leaf indices are copied — every
//     chunk before the delta's first dirty leaf, and every untouched
//     chunk between edits, is shared with the receiver, so the
//     leaf-table cost of a patch is O(edited chunks) rather than
//     O(leaves);
//   - nodes (16 bytes per node) is copied when any child slot is
//     repointed (kid edits are the rarest delta component — only
//     shared-leaf unsharing produces them — and the node array is the
//     smallest, so a flat copy keeps the two-array traversal hot path
//     free of further indirection); a repointed node's whole kid block
//     moves to the arena end rather than being edited in place.
//
// Abandoned windows, noRule pads and relocated blocks are counted in
// deadRuleSlots/deadKidSlots; when GarbageRatio crosses the operator's
// threshold, a fresh Compile of the (relaid-out) tree replaces the patch
// chain.
//
// Patch must be applied to the newest snapshot only, in delta order, and
// by one updater at a time — Handle.Apply enforces exactly that. A delta
// taken across a core.Tree.Relayout is invalid here (leaf indices move);
// recompile instead.
func (e *Engine) Patch(d *core.Delta) (*Engine, error) {
	return e.PatchBatch([]*core.Delta{d})
}

// PatchBatch replays a burst of deltas (in order) into one new snapshot
// with one copy-on-write pass: the leaf table and node array are copied at
// most once for the whole batch, and a node's kid block is relocated at
// most once no matter how many deltas repoint its slots. A BGP-style
// storm of control-plane updates therefore costs one patch and — through
// Handle.ApplyBatch — one epoch bump instead of one per Insert/Delete,
// which is what keeps the flow cache from being invalidated per update.
//
// The deltas must be consecutive (each taken from the tree state the
// previous one left) and start at the receiver's state, exactly as if
// Patch were called once per delta; the result is packet-identical to
// that chain, minus the intermediate snapshots.
func (e *Engine) PatchBatch(ds []*core.Delta) (*Engine, error) {
	ne := &Engine{
		nodes:         e.nodes,
		cuts:          e.cuts,
		kids:          e.kids,
		leaves:        e.leaves,
		numLeaves:     e.numLeaves,
		ruleIDs:       e.ruleIDs,
		rules:         e.rules,
		soa:           e.soa,
		kern:          e.kern,
		deadRuleSlots: e.deadRuleSlots,
		deadKidSlots:  e.deadKidSlots,
	}
	var st patchState
	windows := false
	for _, d := range ds {
		for _, le := range d.LeafEdits {
			windows = true
			if le.New {
				st.newLeaves++
			}
		}
	}
	if windows {
		ne.padToWord()
	}
	for _, d := range ds {
		if err := ne.applyOne(d, &st); err != nil {
			return nil, err
		}
	}
	return ne, nil
}

// padToWord starts the batch's windows on a fresh bank word. Readers of
// the receiver load its last word whole, so the batch writes none of its
// spare lanes: the pool skips them with noRule pads, counted as dead
// slots, and the bank's lanes for them keep blankWord's bounds. The
// batch's later windows pack densely into words it appended itself.
func (ne *Engine) padToWord() {
	for len(ne.ruleIDs)%wordSlots != 0 {
		ne.ruleIDs = append(ne.ruleIDs, noRule)
		ne.deadRuleSlots++
	}
}

// patchState tracks the copy-on-write work already done for one
// PatchBatch, so later deltas in the burst reuse it.
type patchState struct {
	// newLeaves is the whole batch's leaf-table growth, counted up
	// front so the one-time chunk-directory copy is sized for every
	// delta's appends.
	newLeaves int
	// dirCopied records that the chunk directory (the outer slice) was
	// privatized for this batch; individual chunks stay shared until
	// they are edited.
	dirCopied bool
	// privChunks marks chunks already copied (or freshly appended) this
	// batch; later edits in the burst hit the private copy directly.
	privChunks  map[int32]bool
	nodesCopied bool
	// moved records nodes whose kid block was already relocated to the
	// arena end this batch; further KidEdits hit the relocated block.
	moved map[int]bool
}

// ensureLeafDir privatizes the chunk directory once per batch, with
// capacity for the whole burst's appends.
func (ne *Engine) ensureLeafDir(st *patchState) {
	if st.dirCopied {
		return
	}
	st.dirCopied = true
	st.privChunks = make(map[int32]bool, 4)
	need := (ne.numLeaves + st.newLeaves + leafChunkLen - 1) / leafChunkLen
	if need < len(ne.leaves) {
		need = len(ne.leaves)
	}
	dir := make([][]leafRef, len(ne.leaves), need)
	copy(dir, ne.leaves)
	ne.leaves = dir
}

// leafChunkCOW returns chunk ci of the leaf table, copying it first if
// this batch has not privatized it yet. This is the dirty-range copy:
// chunks without edits — in particular everything before the delta's
// first dirty leaf — are never touched and stay shared with the
// receiver snapshot.
func (ne *Engine) leafChunkCOW(st *patchState, ci int32) []leafRef {
	ne.ensureLeafDir(st)
	if !st.privChunks[ci] {
		st.privChunks[ci] = true
		fresh := make([]leafRef, leafChunkLen)
		copy(fresh, ne.leaves[ci])
		ne.leaves[ci] = fresh
	}
	return ne.leaves[ci]
}

// appendLeaf grows the leaf table by one entry, extending the directory
// with a fresh chunk at chunk boundaries and privatizing the current
// tail chunk otherwise.
func (ne *Engine) appendLeaf(st *patchState, ref leafRef) {
	idx := int32(ne.numLeaves)
	ci := idx >> leafChunkBits
	if idx&leafChunkMask == 0 {
		ne.ensureLeafDir(st)
		ne.leaves = append(ne.leaves, make([]leafRef, leafChunkLen))
		st.privChunks[ci] = true
		ne.leaves[ci][0] = ref
	} else {
		ne.leafChunkCOW(st, ci)[idx&leafChunkMask] = ref
	}
	ne.numLeaves++
}

// applyOne replays a single delta into ne (the batch's under-construction
// snapshot), copying shared segments on first touch.
func (ne *Engine) applyOne(d *core.Delta, st *patchState) error {
	if d.RuleAppended {
		if d.AppendedRule.ID != len(ne.rules) {
			return fmt.Errorf("engine: patch appends rule %d but the image holds %d rules (delta applied out of order?)",
				d.AppendedRule.ID, len(ne.rules))
		}
		var fr flatRule
		for dim := 0; dim < rule.NumDims; dim++ {
			fr.lo[dim] = d.AppendedRule.F[dim].Lo
			fr.hi[dim] = d.AppendedRule.F[dim].Hi
		}
		ne.rules = append(ne.rules, fr)
	}
	// A deleted rule needs no rule-table edit: every live leaf window
	// that referenced it is rewritten below, so the entry is unreachable.

	for _, le := range d.LeafEdits {
		slot := int32(le.Index)
		ref := leafRef{off: int32(len(ne.ruleIDs)), n: int32(len(le.Rules))}
		// The comparator bank grows in lock-step with the ruleIDs pool,
		// in words past the receiver's last one (padToWord).
		ne.soa.appendWindow(len(ne.ruleIDs), ne.rules, le.Rules)
		ne.ruleIDs = append(ne.ruleIDs, le.Rules...)
		if le.New {
			if int(slot) != ne.numLeaves {
				return fmt.Errorf("engine: patch appends leaf %d but the leaf table holds %d entries (delta applied out of order?)",
					le.Index, ne.numLeaves)
			}
			ne.appendLeaf(st, ref)
			continue
		}
		if int(slot) >= ne.numLeaves {
			return fmt.Errorf("engine: patch edits leaf %d of %d", le.Index, ne.numLeaves)
		}
		c := ne.leafChunkCOW(st, slot>>leafChunkBits)
		ne.deadRuleSlots += int(c[slot&leafChunkMask].n)
		c[slot&leafChunkMask] = ref
	}

	// Orphaned leaves keep their (stable) table entries but lose their
	// last reference: their rule windows are unreachable garbage from
	// this snapshot on. Accounting reads the entry in place — orphaning
	// never copies a chunk.
	for _, oi := range d.Orphaned {
		slot := int32(oi)
		if int(slot) >= ne.numLeaves {
			return fmt.Errorf("engine: patch orphans leaf %d of %d", oi, ne.numLeaves)
		}
		ne.deadRuleSlots += int(ne.leafAt(slot).n)
	}

	if len(d.KidEdits) > 0 {
		if !st.nodesCopied {
			st.nodesCopied = true
			nodes := make([]node, len(ne.nodes))
			copy(nodes, ne.nodes)
			ne.nodes = nodes
			st.moved = make(map[int]bool, 4)
		}
		for _, ke := range d.KidEdits {
			if ke.Word < 0 || ke.Word >= len(ne.nodes) {
				return fmt.Errorf("engine: patch repoints node %d of %d", ke.Word, len(ne.nodes))
			}
			nd := &ne.nodes[ke.Word]
			if ke.Slot < 0 || int32(ke.Slot) >= nd.kidLen {
				return fmt.Errorf("engine: patch repoints slot %d of node %d (%d slots)", ke.Slot, ke.Word, nd.kidLen)
			}
			if !st.moved[ke.Word] {
				// Copy-on-write at kid-block granularity: the node's
				// block is appended to the arena end and the node
				// repointed; the original block becomes garbage but
				// stays intact for readers of older snapshots. One
				// relocation per node per batch — later edits in the
				// burst land in the already-moved block.
				st.moved[ke.Word] = true
				off := int32(len(ne.kids))
				ne.kids = append(ne.kids, ne.kids[nd.kidOff:nd.kidOff+nd.kidLen]...)
				ne.deadKidSlots += int(nd.kidLen)
				nd.kidOff = off
			}
			leaf := int32(ke.Leaf)
			if int(leaf) >= ne.numLeaves {
				return fmt.Errorf("engine: patch points slot at leaf %d of %d", ke.Leaf, ne.numLeaves)
			}
			ne.kids[nd.kidOff+int32(ke.Slot)] = ^leaf
		}
	}
	return nil
}

// VerifyPatched cross-checks a live-updated image against a fresh
// recompile, packet-exact: patched is the engine produced by replaying
// update deltas (Patch) since some earlier Compile, fresh is Compile of
// the tree's current state. It returns an error naming the first
// divergent packet, or nil when the patch pipeline reproduced the
// recompiled image's behaviour exactly. The update-churn benchmark and
// the facade's tests run every churn sequence through this before
// trusting its throughput numbers; hwsim.RunVerified extends the same
// cross-check to the encoded hardware image.
func VerifyPatched(trace []rule.Packet, patched, fresh *Engine) error {
	got := make([]int32, len(trace))
	want := make([]int32, len(trace))
	patched.ClassifyBatch(trace, got)
	fresh.ClassifyBatch(trace, want)
	for i := range trace {
		if got[i] != want[i] {
			return fmt.Errorf("engine: packet %d: patched engine matched rule %d, fresh recompile matched %d",
				i, got[i], want[i])
		}
	}
	return nil
}

// GarbageRatio reports the fraction of the kids and ruleIDs arenas
// abandoned by patches: rewritten leaf windows, noRule pads and
// relocated kid blocks accumulate until a full Compile resets the pools.
// It is the engine-side degradation signal, the analogue of
// core.Tree.Degradation for the tree: recompile when either crosses the
// operator's threshold.
func (e *Engine) GarbageRatio() float64 {
	total := len(e.ruleIDs) + len(e.kids)
	if total == 0 {
		return 0
	}
	return float64(e.deadRuleSlots+e.deadKidSlots) / float64(total)
}
