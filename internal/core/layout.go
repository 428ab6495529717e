package core

import (
	"sort"

	"repro/internal/rule"
)

// layout is the full-relayout path: it rearranges nodes into accelerator
// memory — all internal nodes first (breadth-first, root in word 0), then
// leaf storage packed according to the speed parameter (paper §3) — and
// rebuilds the leaf identity maps incremental updates maintain. The
// delta-apply path (Tree.applyDelta) refreshes only the leaf packing.
func (t *Tree) layout() {
	t.internals = t.internals[:0]
	t.leafOrder = t.leafOrder[:0]

	// Breadth-first over internal nodes; collect distinct leaves in
	// first-encounter order. Distinctness is by pointer: the builder
	// already merged identical leaves. Leaf reference counts drive the
	// copy-on-write orphan tracking of Insert/Delete.
	t.leafIndex = map[*Node]int{}
	t.leafRefs = map[*Node]int{}
	t.leafParents = map[*Node]map[int]int{}
	t.orphans = 0
	seenI := map[*Node]bool{}
	queue := []*Node{t.Root}
	seenI[t.Root] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.Word = len(t.internals)
		n.Pos = 0
		t.internals = append(t.internals, n)
		for _, c := range n.Children {
			if c == nil {
				continue
			}
			if c.Leaf {
				if _, ok := t.leafIndex[c]; !ok {
					t.leafIndex[c] = len(t.leafOrder)
					t.leafOrder = append(t.leafOrder, c)
				}
				t.leafRefs[c]++
				t.addParent(c, n.Word)
				continue
			}
			if !seenI[c] {
				seenI[c] = true
				queue = append(queue, c)
			}
		}
	}
	t.rebuildOccupancy()
	t.packLeaves()
}

// rebuildOccupancy reconstructs the rule→leaves index from a scan of the
// leaf table. Called from layout(), where every leafOrder entry is live.
func (t *Tree) rebuildOccupancy() {
	t.occ = make(map[int32]map[int32]struct{}, len(t.rules))
	for i, l := range t.leafOrder {
		for _, rid := range l.Rules {
			t.occAdd(rid, int32(i))
		}
	}
}

// addParent records one more internal word slot referencing leaf c.
func (t *Tree) addParent(c *Node, word int) {
	m := t.leafParents[c]
	if m == nil {
		m = make(map[int]int, 2)
		t.leafParents[c] = m
	}
	m[word]++
}

// removeParent drops one internal word slot reference to leaf c.
func (t *Tree) removeParent(c *Node, word int) {
	m := t.leafParents[c]
	if m[word]--; m[word] == 0 {
		delete(m, word)
		if len(m) == 0 {
			delete(t.leafParents, c)
		}
	}
}

// occAdd records that leaf li's rule list contains rid.
func (t *Tree) occAdd(rid, li int32) {
	s := t.occ[rid]
	if s == nil {
		s = make(map[int32]struct{}, 4)
		t.occ[rid] = s
	}
	s[li] = struct{}{}
}

// occRemove drops leaf li from rid's occupancy set.
func (t *Tree) occRemove(rid, li int32) {
	s := t.occ[rid]
	delete(s, li)
	if len(s) == 0 {
		delete(t.occ, rid)
	}
}

// RuleLeaves returns the live leaf-table indices whose rule lists contain
// rule id, ascending. It is an O(occupied leaves) read of the occupancy
// index DeleteDelta resolves updates through.
func (t *Tree) RuleLeaves(id int) []int {
	s := t.occ[int32(id)]
	if len(s) == 0 {
		return nil
	}
	out := make([]int, 0, len(s))
	for li := range s {
		out = append(out, int(li))
	}
	sort.Ints(out)
	return out
}

// packLeaves assigns Word/Pos to every leaf-table entry and recomputes
// the word count. It is shared by the full relayout and the per-update
// delta-apply path: leaf lists grow and shrink under incremental updates,
// so their packing must be refreshed, but internal words never move.
// Orphaned leaves still occupy storage here (their indices must stay
// stable for delta replay); Relayout compacts them away.
//
// With the LeafPointers ablation, leaves hold 20-bit rule pointers (240
// per word) instead of full 160-bit rules, and a rule table (30 rules per
// word) is appended after the leaves.
func (t *Tree) packLeaves() {
	slots := t.leafSlots()
	word := len(t.internals)
	pos := 0
	for _, l := range t.leafOrder {
		word, pos = t.placeLeaf(l, word, pos, slots)
	}
	t.recomputeWords()
	// Structures larger than the pointer field can address are still
	// useful analytically (paper Table 4 reports sizes well beyond the
	// 1024-word device); Encode enforces addressability when an actual
	// memory image is requested.
}

// placeLeaf assigns l's Word/Pos given the packing cursor and returns the
// cursor after l. It is the one packing step shared by the full repack
// and the incremental per-update repack.
func (t *Tree) placeLeaf(l *Node, word, pos, slots int) (int, int) {
	n := len(l.Rules)
	if n == 0 {
		n = 1 // the empty leaf stores one sentinel slot
	}
	if t.cfg.Speed == 1 && pos > 0 && pos+n > slots {
		// Eq. 6: with speed 1 a leaf starts mid-word only if it
		// fits entirely in the word.
		word++
		pos = 0
	}
	l.Word = word
	l.Pos = pos
	pos += n
	word += pos / slots
	pos %= slots
	return word, pos
}

// cursorAfter returns the packing cursor immediately past leaf-table
// entry i-1 (equivalently, where entry i's placement decision starts) in
// O(1), derived from the stored layout of the preceding leaf. Valid only
// when entries before i carry final Word/Pos values.
func (t *Tree) cursorAfter(i, slots int) (word, pos int) {
	if i == 0 {
		return len(t.internals), 0
	}
	prev := t.leafOrder[i-1]
	n := len(prev.Rules)
	if n == 0 {
		n = 1
	}
	pos = prev.Pos + n
	word = prev.Word + pos/slots
	pos %= slots
	return word, pos
}

// recomputeWords refreshes the total word count from the last leaf's
// stored placement (plus the LeafPointers rule table, which grows with
// the ruleset under inserts even when no leaf moved).
func (t *Tree) recomputeWords() {
	slots := t.leafSlots()
	word, pos := t.cursorAfter(len(t.leafOrder), slots)
	if pos > 0 {
		word++
	}
	if t.cfg.LeafPointers {
		// Rule table: the actual rules, stored once.
		word += (len(t.rules) + RulesPerWord - 1) / RulesPerWord
	}
	t.words = word
}

// Internals returns the internal nodes in layout order (root first).
func (t *Tree) Internals() []*Node { return t.internals }

// Leaves returns the distinct leaves in layout order.
func (t *Tree) Leaves() []*Node { return t.leafOrder }

// PointerSlotsPerWord is the leaf capacity under the LeafPointers
// ablation: 20-bit pointers (12-bit word + 5-bit position + flags), 240
// to a 4800-bit word.
const PointerSlotsPerWord = WordBits / 20

// leafSlots returns the per-word leaf capacity for this tree's layout.
func (t *Tree) leafSlots() int {
	if t.cfg.LeafPointers {
		return PointerSlotsPerWord
	}
	return RulesPerWord
}

// LeafWords returns how many memory words leaf l's storage spans.
func LeafWords(l *Node) int {
	n := len(l.Rules)
	if n == 0 {
		n = 1
	}
	return (l.Pos+n-1)/RulesPerWord + 1
}

// leafWordsIn is LeafWords under a configurable per-word slot count.
func leafWordsIn(l *Node, slots int) int {
	n := len(l.Rules)
	if n == 0 {
		n = 1
	}
	return (l.Pos+n-1)/slots + 1
}

// PathInfo describes the traversal cost of one packet through the tree.
type PathInfo struct {
	// Internal is the number of internal nodes traversed including the
	// root (the x of Eqs. 5 and 7).
	Internal int
	// LeafWords is the number of leaf memory words read (scan stops at
	// the first match).
	LeafWords int
	// MatchPos is the 0-based position of the matching rule within the
	// leaf (the z of Eqs. 5 and 7), or -1 when no rule matches.
	MatchPos int
	// Match is the matching rule ID or -1.
	Match int
}

// Cycles returns the unpipelined clock-cycle count of the classification:
// Eq. 5 (speed 0) / Eq. 7 (speed 1) when a match is found, where the
// root-node computation accounts for one cycle and each further internal
// node and each leaf word read accounts for one cycle.
func (pi PathInfo) Cycles() int { return pi.Internal + pi.LeafWords }

// Walk classifies p on the logical tree and reports the traversal cost the
// accelerator would incur. It is the analytical counterpart of the
// cycle-accurate simulator in internal/hwsim: the simulator's measured
// cycle counts are property-tested against Walk's Eq. 5/7 predictions.
func (t *Tree) Walk(p rule.Packet) PathInfo {
	pi := PathInfo{Match: -1, MatchPos: -1}
	n := t.Root
	for n != nil && !n.Leaf {
		pi.Internal++
		n = n.Children[ChildIndex(n.Cuts, p)]
	}
	if n == nil {
		// Empty region: the hardware encodes these as a pointer to the
		// shared empty leaf, whose single sentinel word is still read.
		pi.LeafWords = 1
		return pi
	}
	// Scan the leaf word by word; within a word the 30 comparators work
	// in parallel, so cost is counted per word.
	slots := t.leafSlots()
	extra := 0
	if t.cfg.LeafPointers {
		// Pointer leaves add one dependent rule-table fetch before data
		// can be presented (the cycle the rules-in-leaf modification
		// saves, paper §3).
		extra = 1
	}
	count := len(n.Rules)
	if count == 0 {
		pi.LeafWords = 1
		return pi
	}
	for z, id := range n.Rules {
		if t.rules[id].Matches(p) {
			pi.Match = int(id)
			pi.MatchPos = z
			pi.LeafWords = (n.Pos+z)/slots + 1 + extra
			return pi
		}
	}
	pi.LeafWords = (n.Pos+count-1)/slots + 1 + extra
	return pi
}

// WorstCaseCycles returns the worst-case clock cycles (equivalently,
// memory accesses) to classify any packet: the deepest root-leaf path plus
// a full scan of its leaf storage. This is the hardware quantity of paper
// Tables 4 and 8. The pipelined accelerator overlaps the root cycle of
// one packet with the leaf search of the previous, so sustained
// throughput is one packet per max(1, WorstCaseCycles-1) cycles in the
// worst case (paper §4).
func (t *Tree) WorstCaseCycles() int {
	slots := t.leafSlots()
	extra := 0
	if t.cfg.LeafPointers {
		extra = 1
	}
	memo := map[*Node]int{}
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if n == nil {
			return 1 // empty leaf read
		}
		if n.Leaf {
			return leafWordsIn(n, slots) + extra
		}
		if v, ok := memo[n]; ok {
			return v
		}
		worst := 0
		for _, c := range n.Children {
			if w := walk(c); w > worst {
				worst = w
			}
		}
		v := 1 + worst
		memo[n] = v
		return v
	}
	return walk(t.Root)
}
