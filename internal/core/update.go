package core

import (
	"fmt"
	"sort"

	"repro/internal/rule"
)

// Incremental updates (paper §2.1 notes HiCuts/HyperCuts support them;
// §4: "incremental updates to the search structure can be made if a copy
// of the search structure is kept in off-chip memory for the control
// plane processor to use when updating").
//
// The control-plane model implemented here mirrors that description: the
// logical tree is the off-chip copy; an insert or delete modifies the leaves
// the rule overlaps without re-cutting, and the change is captured as a
// structured Delta (leaf edits + child-slot repointings) that loaded
// images replay via engine.Patch instead of recompiling. Only the leaf
// packing is refreshed per update (applyDelta); internal-node words never
// move. Tree quality can degrade after many updates (leaves grow past
// Binth, unshared leaves orphan their originals), so Degradation reports
// how far the structure has drifted and callers trigger Relayout plus a
// full recompile when it exceeds their threshold.

// InsertDelta adds r to the tree and returns the structured delta the
// update makes to the laid-out image. The rule's ID must extend the
// current ruleset (len(rules)) — rule priority is its position, so
// arbitrary priority insertion requires a rebuild.
func (t *Tree) InsertDelta(r rule.Rule) (*Delta, error) {
	if r.ID != len(t.rules) {
		return nil, fmt.Errorf("core: incremental insert requires ID %d (lowest priority), got %d", len(t.rules), r.ID)
	}
	for d := 0; d < rule.NumDims; d++ {
		f := r.F[d]
		if f.Lo > f.Hi || f.Hi > rule.MaxValue(d) {
			return nil, fmt.Errorf("core: invalid range in %s", rule.DimNames[d])
		}
	}
	t.rules = append(t.rules, r)
	d := &Delta{RuleAppended: true, AppendedRule: r, DisabledRule: -1}
	t.insertInto(t.Root, &t.rules[len(t.rules)-1], [rule.NumDims]int{}, [rule.NumDims]uint32{}, d)
	t.applyDelta(d)
	return d, nil
}

// insertInto adds the rule to every leaf whose region it overlaps,
// following the same child-span arithmetic the builder uses, recording
// every leaf replacement in d.
func (t *Tree) insertInto(n *Node, r *rule.Rule, prefixLen [rule.NumDims]int, prefixVal [rule.NumDims]uint32, d *Delta) {
	if n.Leaf {
		// Only reachable for a leaf root, which ensureInternalRoot
		// prevents; kept as a defensive in-place edit.
		n.Rules = append(n.Rules[:len(n.Rules):len(n.Rules)], int32(r.ID))
		t.occAdd(int32(r.ID), int32(t.leafIndex[n]))
		d.LeafEdits = append(d.LeafEdits, LeafEdit{Index: t.leafIndex[n], Rules: n.Rules, Keep: appendKeep(len(n.Rules))})
		return
	}
	// Compute the child index span of the rule for this node's cut.
	spans := make([][2]int, len(n.Cuts))
	strides := make([]int, len(n.Cuts))
	s := 0
	for i := len(n.Cuts) - 1; i >= 0; i-- {
		strides[i] = s
		s += n.Cuts[i].Bits
	}
	for i, c := range n.Cuts {
		dim := c.Dim
		avail := 8 - prefixLen[dim]
		w := rule.DimBits[dim]
		var regionLo, regionHi uint32
		if prefixLen[dim] == 0 {
			regionLo, regionHi = 0, rule.MaxValue(dim)
		} else {
			shift := w - uint(prefixLen[dim])
			regionLo = prefixVal[dim] << shift
			regionHi = regionLo | (uint32(1)<<shift - 1)
		}
		lo, hi := r.F[dim].Lo, r.F[dim].Hi
		if hi < regionLo || lo > regionHi {
			return // rule does not touch this subtree
		}
		if lo < regionLo {
			lo = regionLo
		}
		if hi > regionHi {
			hi = regionHi
		}
		availMask := uint32(1)<<uint(avail) - 1
		rlo := int(((lo >> (w - 8)) & availMask) >> uint(avail-c.Bits))
		rhi := int(((hi >> (w - 8)) & availMask) >> uint(avail-c.Bits))
		spans[i] = [2]int{rlo, rhi}
	}
	// Recurse into each overlapped child. Leaves may be shared between
	// many slots (the builder deduplicates identical leaves), so a
	// mutated leaf is first unshared via copy-on-write; every overlapped
	// slot that pointed at the same old leaf gets the same fresh copy,
	// while slots outside the rule's span correctly keep the old one.
	// Each unsharing appends a leaf-table entry (LeafEdit{New}) and each
	// repointed slot becomes a KidEdit, so a compiled image can replay
	// the exact same copy-on-write.
	freshened := map[*Node]*Node{}
	visited := map[*Node]bool{}
	idx := make([]int, len(spans))
	enumerateBox(spans, strides, idx, func(child int) {
		c := n.Children[child]
		if c == nil {
			return
		}
		if c.Leaf {
			fresh, unsharing := freshened[c]
			if !unsharing && t.leafRefs[c] == 1 {
				// This slot is the leaf's only reference, so no
				// unsharing is needed: rewrite it in place (a non-New
				// LeafEdit, the same image edit a Delete emits) instead
				// of orphaning the original and growing the leaf table.
				c.Rules = append(c.Rules[:len(c.Rules):len(c.Rules)], int32(r.ID))
				t.occAdd(int32(r.ID), int32(t.leafIndex[c]))
				d.LeafEdits = append(d.LeafEdits, LeafEdit{Index: t.leafIndex[c], Rules: c.Rules, Keep: appendKeep(len(c.Rules))})
				return
			}
			// Shared leaf: unshare via copy-on-write. Every spanned slot
			// of this node repoints at one fresh copy — including the
			// last reference (the freshened-map hit takes priority over
			// the in-place path above), so dedup within the span is
			// preserved and a fully-covered leaf is orphaned.
			if !unsharing {
				fresh = &Node{Leaf: true, Rules: append([]int32(nil), c.Rules...)}
				fresh.Rules = append(fresh.Rules, int32(r.ID))
				freshened[c] = fresh
				fi := len(t.leafOrder)
				t.leafOrder = append(t.leafOrder, fresh)
				t.leafIndex[fresh] = fi
				for _, rid := range fresh.Rules {
					t.occAdd(rid, int32(fi))
				}
				d.LeafEdits = append(d.LeafEdits, LeafEdit{Index: fi, New: true, Rules: fresh.Rules})
			}
			n.Children[child] = fresh
			t.leafRefs[fresh]++
			t.addParent(fresh, n.Word)
			t.leafRefs[c]--
			t.removeParent(c, n.Word)
			if t.leafRefs[c] == 0 {
				t.orphans++
				oi := t.leafIndex[c]
				for _, rid := range c.Rules {
					t.occRemove(rid, int32(oi))
				}
				d.Orphaned = append(d.Orphaned, oi)
			}
			d.KidEdits = append(d.KidEdits, KidEdit{Word: n.Word, Slot: child, Leaf: t.leafIndex[fresh]})
			return
		}
		if visited[c] {
			return
		}
		visited[c] = true
		childLen := prefixLen
		childVal := prefixVal
		for j, cut := range n.Cuts {
			comp := (child >> uint(strides[j])) & (1<<uint(cut.Bits) - 1)
			childVal[cut.Dim] = childVal[cut.Dim]<<uint(cut.Bits) | uint32(comp)
			childLen[cut.Dim] += cut.Bits
		}
		t.insertInto(c, r, childLen, childVal, d)
	})
}

// DeleteDelta removes the rule with the given ID from every live leaf and
// returns the structured delta. The affected leaves are resolved through
// the rule→leaves occupancy index — O(occupied leaves), never a scan of
// the whole leaf table. The rule stays in the ruleset slice (IDs are
// positional) but is disabled; its slots are reclaimed at the next full
// relayout.
func (t *Tree) DeleteDelta(id int) (*Delta, error) {
	if id < 0 || id >= len(t.rules) {
		return nil, fmt.Errorf("core: no rule %d", id)
	}
	d := &Delta{DisabledRule: id}
	// Sorted for deterministic delta order (and ascending LeafEdits let
	// image patchers stream the dirty region front to back).
	for _, i := range t.RuleLeaves(id) {
		l := t.leafOrder[i]
		out := l.Rules[:0:0]
		keep := 0
		for k, rid := range l.Rules {
			if rid != int32(id) {
				out = append(out, rid)
			} else {
				keep = k
			}
		}
		if keep == len(out) && keep > 0 {
			keep-- // removed the last rule: its predecessor's end flag moves
		}
		l.Rules = out
		d.LeafEdits = append(d.LeafEdits, LeafEdit{Index: i, Rules: out, Keep: keep})
	}
	delete(t.occ, int32(id))
	// Disable the rule so Classify/Walk never match it again even if a
	// stale reference survives (an orphaned leaf may still list it; the
	// encoder stores such slots as sentinels).
	t.rules[id].F[rule.DimProto] = rule.Range{Lo: 1, Hi: 0} // empty range matches nothing
	t.applyDelta(d)
	return d, nil
}

// applyDelta is the delta-apply half of the layout split: internal nodes
// never move under incremental updates, so only the leaf packing (Word/
// Pos assignment and the word count) needs refreshing — and only
// incrementally. Leaves strictly before the first edited index keep
// their layout untouched; from each edited index the repack runs forward
// only until the packing cursor reconverges with the stored layout
// (with speed-1 packing a size change is absorbed at the next
// word-boundary jump, so the repacked span is a few leaves, not the
// table). The repacked spans become the delta's DirtyWords: the exact
// memory words an image patcher must rewrite. Orphaned leaves keep their
// storage until Relayout compacts them, so leaf-table indices stay
// stable for images replaying deltas.
func (t *Tree) applyDelta(d *Delta) {
	d.WordsBefore = t.words
	d.FirstDirtyLeaf = -1
	dirty := make([]WordRange, 0, len(d.KidEdits)+2)
	for _, ke := range d.KidEdits {
		// A repointed child slot changes the internal node's word.
		dirty = append(dirty, WordRange{Lo: ke.Word, Hi: ke.Word + 1})
	}
	if len(d.LeafEdits) > 0 {
		newCount := 0
		edited := make([]int, 0, len(d.LeafEdits))
		keep := make(map[int]int, len(d.LeafEdits))
		for _, le := range d.LeafEdits {
			edited = append(edited, le.Index)
			keep[le.Index] = le.Keep
			if le.New {
				newCount++
			}
		}
		sort.Ints(edited)
		d.FirstDirtyLeaf = edited[0]
		dirty = append(dirty, t.repackFrom(edited, keep, newCount)...)
	}
	// Orphaned leaves count as dirty too: their storage is rewritten to
	// sentinel slots below, so patchers starting at FirstDirtyLeaf must
	// not skip them.
	for _, oi := range d.Orphaned {
		if d.FirstDirtyLeaf < 0 || oi < d.FirstDirtyLeaf {
			d.FirstDirtyLeaf = oi
		}
	}
	// A leaf orphaned by this update keeps its span but its storage
	// turns into sentinel slots (dead words hold nothing matchable and
	// stop depending on live rule state); rewrite it once, now. Spans
	// use the final placement — if the repack also moved the orphan,
	// the segment ranges above already cover both locations.
	for _, oi := range d.Orphaned {
		l := t.leafOrder[oi]
		n := len(l.Rules)
		if n == 0 {
			n = 1
		}
		end := l.Word + (l.Pos+n-1)/t.leafSlots()
		dirty = append(dirty, WordRange{Lo: l.Word, Hi: end + 1})
	}
	t.recomputeWords()
	d.WordsAfter = t.words
	d.DirtyWords = mergeWordRanges(dirty)
}

// repackFrom reruns the leaf packing over the minimal spans that a set
// of edited leaf-table indices can have moved, and returns the memory-
// word ranges those spans occupy (under the old and the new layout —
// by construction the same range, see below). edited is sorted;
// newCount of its entries are freshly appended leaves.
//
// Each span starts at an edited index, with the packing cursor derived
// O(1) from the preceding (final) leaf, and ends when the cursor again
// equals a later leaf's stored placement: from that leaf on, placements
// are a pure function of an unchanged cursor over unchanged rule lists,
// so nothing after it can differ. Because convergence means the span
// consumed exactly as many rule slots as before, its old and new
// contents occupy the same word range, which is what makes the returned
// ranges a complete dirty set for word-level image patching.
//
// Freshly appended leaves never converge (they have no previous
// placement), so a span reaching them runs to the end of the table and
// the dirty range extends to cover both the old and new image tails.
func (t *Tree) repackFrom(edited []int, keep map[int]int, newCount int) []WordRange {
	slots := t.leafSlots()
	oldCount := len(t.leafOrder) - newCount
	oldWords := t.words
	isEdited := make(map[int]bool, len(edited))
	for _, e := range edited {
		isEdited[e] = true
	}
	var ranges []WordRange
	covered := -1 // leaves <= covered already carry final placements
	for _, e := range edited {
		if e <= covered {
			continue // repacked as part of an earlier span
		}
		word, pos := t.cursorAfter(e, slots)
		lo := word
		i := e
		converged := false
		for ; i < len(t.leafOrder); i++ {
			l := t.leafOrder[i]
			if i < oldCount && !isEdited[i] {
				// Would this unedited leaf land exactly where it
				// already is? Replicate placeLeaf's decision without
				// committing it.
				w, p := word, pos
				n := len(l.Rules)
				if n == 0 {
					n = 1
				}
				if t.cfg.Speed == 1 && p > 0 && p+n > slots {
					w++
					p = 0
				}
				if l.Word == w && l.Pos == p {
					converged = true
					break
				}
			}
			ow, op := l.Word, l.Pos
			word, pos = t.placeLeaf(l, word, pos, slots)
			if l.Word != ow || l.Pos != op {
				// The leaf moved: every internal word whose cut entries
				// embed its (Word, Pos) must be rewritten too.
				for pw := range t.leafParents[l] {
					ranges = append(ranges, WordRange{Lo: pw, Hi: pw + 1})
				}
			} else if i == e && i < oldCount {
				// The span's first leaf stayed put, so its leading
				// unchanged slots (LeafEdit.Keep of them) keep their
				// words clean: the rewrite starts at the word holding
				// the first changed slot, not at the leaf's first word.
				// For an append into a 20-word leaf that is 1 word
				// rewritten instead of 20.
				lo = ow + (op+keep[i])/slots
			}
		}
		hi := word
		if pos > 0 {
			hi = word + 1
		}
		if !converged {
			// Ran to the end of the table: the image tail is dirty up
			// to whichever layout (old or new) extends further. The
			// leaf region ends at hi; the old total may include more.
			if oldWords > hi {
				hi = oldWords
			}
			covered = len(t.leafOrder) - 1
		} else {
			covered = i - 1
		}
		ranges = append(ranges, WordRange{Lo: lo, Hi: hi})
		if !converged {
			break
		}
	}
	return ranges
}

// appendKeep returns LeafEdit.Keep for an append that grew a leaf to
// newLen rules: every slot but the appended one and its predecessor
// (whose end-of-leaf flag clears) is bit-identical.
func appendKeep(newLen int) int {
	if newLen < 2 {
		return 0
	}
	return newLen - 2
}

// mergeWordRanges sorts and coalesces overlapping or adjacent ranges.
func mergeWordRanges(rs []WordRange) []WordRange {
	if len(rs) == 0 {
		return nil
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// Relayout runs the full layout pass: breadth-first renumbering of
// internal words, rediscovery of live leaves (dropping orphans) and a
// fresh leaf packing. It invalidates all outstanding deltas — images must
// be recompiled, not patched, across a Relayout. Callers use it when
// Degradation crosses their rebuild threshold.
func (t *Tree) Relayout() { t.layout() }

// Orphans returns the number of leaves that lost their last reference to
// incremental updates and await compaction by Relayout.
func (t *Tree) Orphans() int { return t.orphans }

// Degradation reports how far incremental updates have pushed the tree
// from its built quality: the fraction of leaf-table entries that are
// either overgrown (live leaves holding more than Binth rules — their
// scans exceed the built worst case) or orphaned (unshared originals
// still occupying device words). Rebuild (Relayout + recompile) when this
// exceeds the operator's threshold.
func (t *Tree) Degradation() float64 {
	if len(t.leafOrder) == 0 {
		return 0
	}
	over := 0
	for _, l := range t.leafOrder {
		if t.leafRefs[l] > 0 && len(l.Rules) > t.cfg.Binth {
			over++
		}
	}
	return float64(over+t.orphans) / float64(len(t.leafOrder))
}
