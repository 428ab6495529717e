package core

import "repro/internal/rule"

// Delta is the structured difference one incremental update (Insert or
// Delete) makes to the laid-out tree. It is the unit of the paper's §4
// control-plane update path: the logical tree held off-chip absorbs the
// change, and the delta carries exactly the leaf-level edits a loaded
// image (engine.Patch, or the hardware write interface) must replay to
// stay equivalent — no full recompile, no re-encoding of untouched words.
//
// Internal nodes never change under incremental updates: Insert and
// Delete only grow, shrink or replace leaves, so a delta is leaf edits
// plus child-slot repointings. Deltas are positional: LeafEdit.Index and
// KidEdit.Word refer to the tree's layout numbering as of the update, so
// deltas must be applied to an image compiled from the tree state
// immediately before the update, in order.
type Delta struct {
	// RuleAppended reports that AppendedRule was appended to the ruleset
	// (an Insert); the image must extend its rule table by one.
	RuleAppended bool
	// AppendedRule is the inserted rule when RuleAppended.
	AppendedRule rule.Rule
	// DisabledRule is the rule ID a Delete disabled, or -1. The edited
	// leaves no longer reference it, so images need not touch their rule
	// tables; the ID is carried for observability and the hardware path.
	DisabledRule int
	// LeafEdits lists leaves whose rule lists changed. Edits with New set
	// extend the leaf table (indices are contiguous from its prior
	// length); the rest rewrite existing entries in place.
	LeafEdits []LeafEdit
	// KidEdits repoint child slots of internal nodes at (new) leaves.
	KidEdits []KidEdit
	// Orphaned lists leaf-table indices that lost their last reference;
	// they stay allocated (stable indices) until the next full relayout.
	Orphaned []int

	// FirstDirtyLeaf is the smallest leaf-table index whose packing or
	// content changed, or -1 when the update touched no leaf storage.
	// Leaves (and the memory words holding them) strictly before it keep
	// the layout of the previous epoch, so image patchers can start
	// their copy/rewrite there instead of at word 0.
	FirstDirtyLeaf int
	// DirtyWords lists the half-open memory-word ranges whose encoded
	// content this update changed, ascending and non-overlapping: the
	// repacked leaf segments plus one single-word range per repointed
	// internal node. Replaying the delta into a device image
	// (Tree.PatchImage, hwsim.Sim.ApplyDelta) rewrites exactly these
	// words — the paper's §4 claim that an update is a handful of word
	// writes, not a reload.
	DirtyWords []WordRange
	// WordsBefore and WordsAfter are the structure's total word count on
	// either side of the update; they differ when leaf storage grew past
	// (or shrank under) a word boundary, telling image holders to extend
	// or truncate before rewriting dirty words.
	WordsBefore, WordsAfter int
}

// WordRange is a half-open [Lo,Hi) range of memory-word indices.
type WordRange struct {
	Lo, Hi int
}

// DirtyWordCount returns the number of memory words the delta rewrites —
// the write-interface cycles the paper's §4 update path charges.
func (d *Delta) DirtyWordCount() int {
	n := 0
	for _, r := range d.DirtyWords {
		n += r.Hi - r.Lo
	}
	return n
}

// LeafEdit is one leaf's new rule list.
type LeafEdit struct {
	// Index is the leaf's position in Tree.Leaves() (and the compiled
	// engine's leaf table).
	Index int
	// New marks an edit that appends a fresh leaf rather than rewriting
	// an existing one.
	New bool
	// Rules is the leaf's rule IDs after the edit, in priority order.
	Rules []int32
	// Keep counts the leading rule slots the edit left bit-identical:
	// an append changes only the new slot and the previous end flag
	// (Keep = len-2 of the new list), a removal shifts slots from the
	// removal point on. When the leaf itself does not move, word-level
	// image patching starts the rewrite at slot Keep instead of the
	// leaf's first word — for a 20-word leaf that is the difference
	// between rewriting 20 words and 1.
	Keep int
}

// KidEdit repoints one child slot of an internal node at a leaf.
type KidEdit struct {
	// Word is the internal node's layout number (engine node index).
	Word int
	// Slot is the child slot (cut entry) within the node.
	Slot int
	// Leaf is the leaf-table index the slot now references.
	Leaf int
}
