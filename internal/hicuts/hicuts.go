// Package hicuts implements the original (software) HiCuts decision-tree
// packet classification algorithm of Gupta & McKeown, as described in §2.1
// of the paper. It is one of the two software baselines the hardware
// accelerator is compared against.
//
// HiCuts views each rule as a hypercube in the 5-dimensional space of
// packet header fields and recursively cuts that space along one dimension
// at a time into equal-width sub-regions until no region holds more than
// binth rules. The number of cuts np at an internal node starts at 2 and
// doubles while the space measure permits (paper Eq. 1):
//
//	spfac * rules(node)  >=  sum(rules(child)) + np
//
// The dimension-selection heuristic is the one the paper states it uses:
// for each dimension record the largest number of rules landing in any
// child and pick the dimension minimizing that number.
//
// Children holding identical rule sets are merged and empty children are
// removed, as in the original algorithm.
package hicuts

import (
	"fmt"

	"repro/internal/rule"
)

// Config holds the HiCuts tuning parameters.
type Config struct {
	// Binth is the leaf threshold: regions with at most Binth rules
	// become leaves. The paper's worked example (Fig. 1) uses 3.
	Binth int
	// Spfac is the space factor of Eq. 1 trading memory for depth. The
	// paper's tables use 4.
	Spfac float64
	// MaxDepth caps recursion as a safety net (0 = default 64).
	MaxDepth int
}

// DefaultConfig returns the configuration used by the paper's tables
// (spfac = 4) with a binth of 16.
func DefaultConfig() Config { return Config{Binth: 16, Spfac: 4} }

func (c *Config) sanitize() {
	if c.Binth <= 0 {
		c.Binth = 16
	}
	if c.Spfac <= 0 {
		c.Spfac = 4
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 64
	}
}

// Node is one decision-tree node.
type Node struct {
	// Leaf nodes carry the IDs of rules to linear-search, in priority
	// order. Internal nodes carry the cut description and children.
	Leaf  bool
	Rules []int32 // rule IDs (leaf only)

	Dim      int     // cut dimension (internal only)
	NumCuts  int     // number of equal-width cuts (internal only)
	Lo, Hi   uint32  // region bounds along Dim at this node
	Children []*Node // len == NumCuts; nil entries are empty regions

	addr uint32 // synthetic byte address for the memory/cache model
}

// BuildStats counts the work done while constructing the tree; the SA-1100
// energy model converts these counts into cycles and Joules (Table 3).
type BuildStats struct {
	Nodes           int   // nodes created (internal + leaf)
	Internal        int   // internal nodes
	Leaves          int   // leaf nodes
	MaxDepth        int   // deepest leaf
	CutEvaluations  int64 // candidate (dim, np) evaluations
	RuleChildOps    int64 // rule-to-child interval computations
	RulePushes      int64 // rule appends into child lists (replication work)
	MemoryBytes     int   // software structure size incl. stored ruleset
	ReplicatedRules int64 // total rule references in leaves
}

// Tree is a built HiCuts classifier.
type Tree struct {
	Root  *Node
	cfg   Config
	rules rule.RuleSet
	stats BuildStats

	// leafCache deduplicates leaves with identical rule lists (the safe
	// form of the paper's "merge child nodes with the same set of
	// rules": a leaf's behaviour depends only on its rule list, whereas
	// merging internal nodes across different regions can misroute).
	leafCache map[string]*Node
}

// Build constructs the HiCuts decision tree for rs.
func Build(rs rule.RuleSet, cfg Config) (*Tree, error) {
	cfg.sanitize()
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("hicuts: %w", err)
	}
	t := &Tree{cfg: cfg, rules: rs, leafCache: make(map[string]*Node)}
	ids := make([]int32, len(rs))
	for i := range rs {
		ids[i] = int32(i)
	}
	region := fullRegion()
	t.Root = t.build(ids, region, 0)
	t.layout()
	return t, nil
}

func fullRegion() [rule.NumDims]rule.Range {
	var reg [rule.NumDims]rule.Range
	for d := 0; d < rule.NumDims; d++ {
		reg[d] = rule.FullRange(d)
	}
	return reg
}

func (t *Tree) build(ids []int32, region [rule.NumDims]rule.Range, depth int) *Node {
	if depth > t.stats.MaxDepth {
		t.stats.MaxDepth = depth
	}
	if len(ids) <= t.cfg.Binth || depth >= t.cfg.MaxDepth {
		return t.makeLeaf(ids)
	}
	dim, np := t.chooseCut(ids, region)
	if np < 2 {
		return t.makeLeaf(ids)
	}
	node := &Node{Dim: dim, NumCuts: np, Lo: region[dim].Lo, Hi: region[dim].Hi}
	t.stats.Nodes++
	t.stats.Internal++

	childIDs := t.distribute(ids, region[dim], dim, np)
	// No progress: every child got every rule; cutting is useless.
	progress := false
	for _, c := range childIDs {
		if len(c) < len(ids) {
			progress = true
			break
		}
	}
	if !progress {
		t.stats.Nodes--
		t.stats.Internal--
		return t.makeLeaf(ids)
	}

	node.Children = make([]*Node, np)
	for i, c := range childIDs {
		if len(c) == 0 {
			continue // empty child removed
		}
		childRegion := region
		childRegion[dim] = cutInterval(region[dim], np, i)
		node.Children[i] = t.build(c, childRegion, depth+1)
	}
	return node
}

func (t *Tree) makeLeaf(ids []int32) *Node {
	key := idsKey(ids)
	if l, ok := t.leafCache[key]; ok {
		return l
	}
	t.stats.Nodes++
	t.stats.Leaves++
	t.stats.ReplicatedRules += int64(len(ids))
	l := &Node{Leaf: true, Rules: ids}
	t.leafCache[key] = l
	return l
}

// cutInterval returns child i's sub-interval when r is cut into np
// equal-width pieces. Widths are rounded up so the last child may be
// narrower.
func cutInterval(r rule.Range, np, i int) rule.Range {
	size := r.Size()
	width := (size + uint64(np) - 1) / uint64(np)
	lo := uint64(r.Lo) + uint64(i)*width
	hi := lo + width - 1
	if hi > uint64(r.Hi) {
		hi = uint64(r.Hi)
	}
	return rule.Range{Lo: uint32(lo), Hi: uint32(hi)}
}

// childSpan returns the inclusive child-index interval [c1,c2] that rule
// range f occupies when region r is cut into np pieces, or ok=false when f
// does not intersect r.
func childSpan(f, r rule.Range, np int) (c1, c2 int, ok bool) {
	if !f.Overlaps(r) {
		return 0, 0, false
	}
	size := r.Size()
	width := (size + uint64(np) - 1) / uint64(np)
	lo := f.Lo
	if lo < r.Lo {
		lo = r.Lo
	}
	hi := f.Hi
	if hi > r.Hi {
		hi = r.Hi
	}
	c1 = int((uint64(lo) - uint64(r.Lo)) / width)
	c2 = int((uint64(hi) - uint64(r.Lo)) / width)
	if c2 >= np {
		c2 = np - 1
	}
	return c1, c2, true
}

// chooseCut implements the paper's heuristics: for each dimension compute
// np by doubling from 2 under Eq. 1, then pick the dimension whose cut
// yields the smallest maximum child population.
func (t *Tree) chooseCut(ids []int32, region [rule.NumDims]rule.Range) (dim, np int) {
	bestDim, bestNp, bestMax := -1, 0, len(ids)+1
	n := float64(len(ids))
	for d := 0; d < rule.NumDims; d++ {
		r := region[d]
		if r.Size() < 2 {
			continue
		}
		cand := t.growCuts(ids, r, d, n)
		if cand < 2 {
			continue
		}
		maxChild := t.maxChildCount(ids, r, d, cand)
		t.stats.CutEvaluations++
		if maxChild < bestMax || (maxChild == bestMax && cand < bestNp) {
			bestDim, bestNp, bestMax = d, cand, maxChild
		}
	}
	if bestDim < 0 {
		return -1, 0
	}
	// A cut that cannot separate anything is useless.
	if bestMax >= len(ids) {
		return -1, 0
	}
	return bestDim, bestNp
}

// growCuts doubles np from 2 while Eq. 1 holds and np does not exceed the
// region size.
func (t *Tree) growCuts(ids []int32, r rule.Range, d int, n float64) int {
	maxNp := 1
	for uint64(maxNp) < r.Size() && maxNp < 1<<16 {
		maxNp <<= 1
	}
	np := 2
	if np > maxNp {
		return 0
	}
	for {
		next := np * 2
		if next > maxNp {
			return np
		}
		sm := t.spaceMeasure(ids, r, d, next)
		t.stats.CutEvaluations++
		if float64(sm) > t.cfg.Spfac*n {
			return np
		}
		np = next
	}
}

// spaceMeasure computes sum(rules per child) + np for a candidate cut.
func (t *Tree) spaceMeasure(ids []int32, r rule.Range, d, np int) int64 {
	var total int64
	for _, id := range ids {
		c1, c2, ok := childSpan(t.rules[id].F[d], r, np)
		t.stats.RuleChildOps++
		if ok {
			total += int64(c2 - c1 + 1)
		}
	}
	return total + int64(np)
}

// maxChildCount returns the largest child population for a candidate cut,
// computed with a difference array in O(n + np).
func (t *Tree) maxChildCount(ids []int32, r rule.Range, d, np int) int {
	diff := make([]int32, np+1)
	for _, id := range ids {
		c1, c2, ok := childSpan(t.rules[id].F[d], r, np)
		t.stats.RuleChildOps++
		if ok {
			diff[c1]++
			diff[c2+1]--
		}
	}
	maxC, cur := 0, int32(0)
	for i := 0; i < np; i++ {
		cur += diff[i]
		if int(cur) > maxC {
			maxC = int(cur)
		}
	}
	return maxC
}

// distribute builds the per-child rule-ID lists for the chosen cut.
func (t *Tree) distribute(ids []int32, r rule.Range, d, np int) [][]int32 {
	children := make([][]int32, np)
	for _, id := range ids {
		c1, c2, ok := childSpan(t.rules[id].F[d], r, np)
		t.stats.RuleChildOps++
		if !ok {
			continue
		}
		for c := c1; c <= c2; c++ {
			children[c] = append(children[c], id)
			t.stats.RulePushes++
		}
	}
	return children
}

func idsKey(ids []int32) string {
	b := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// Software memory accounting, used by Table 2. Sizes model a compact C
// implementation: an internal node stores a small header plus one 4-byte
// child pointer per cut; a leaf stores a header plus one 4-byte rule
// pointer per rule; the ruleset itself is stored once at 20 bytes per rule
// (4-byte src/dst addresses plus prefix bytes, 2-byte port bounds, 1-byte
// protocol/flag pair).
const (
	internalHeaderBytes = 16
	leafHeaderBytes     = 8
	pointerBytes        = 4
	softwareRuleBytes   = 20
)

// layout assigns synthetic byte addresses to nodes (for the cache model)
// and fills in MemoryBytes.
func (t *Tree) layout() {
	var next uint32
	var walk func(n *Node)
	seen := map[*Node]bool{}
	walk = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		n.addr = next
		if n.Leaf {
			next += uint32(leafHeaderBytes + pointerBytes*len(n.Rules))
			return
		}
		next += uint32(internalHeaderBytes + pointerBytes*len(n.Children))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	t.stats.MemoryBytes = int(next) + len(t.rules)*softwareRuleBytes
}

// Stats returns the build statistics.
func (t *Tree) Stats() BuildStats { return t.stats }

// Classify walks the tree for packet p and returns the matching rule ID or
// -1. It is equivalent to ClassifyTraced with a nil tracer.
func (t *Tree) Classify(p rule.Packet) int {
	m, _ := t.ClassifyTraced(p, nil)
	return m
}

// ClassifyTraced classifies p, reporting every memory access to trace (node
// reads and rule reads with synthetic addresses) and returning the match
// and the number of memory accesses performed. The access count is the
// quantity reported for the software algorithms in paper Table 8.
func (t *Tree) ClassifyTraced(p rule.Packet, trace func(addr, size uint32)) (match, accesses int) {
	n := t.Root
	for n != nil && !n.Leaf {
		accesses++
		if trace != nil {
			trace(n.addr, internalHeaderBytes)
		}
		r := rule.Range{Lo: n.Lo, Hi: n.Hi}
		v := p.Field(n.Dim)
		if !r.Contains(v) {
			return -1, accesses
		}
		size := r.Size()
		width := (size + uint64(n.NumCuts) - 1) / uint64(n.NumCuts)
		c := int((uint64(v) - uint64(n.Lo)) / width)
		if c >= len(n.Children) {
			c = len(n.Children) - 1
		}
		// One more access for the child pointer slot.
		accesses++
		if trace != nil {
			trace(n.addr+uint32(internalHeaderBytes+pointerBytes*c), pointerBytes)
		}
		n = n.Children[c]
	}
	if n == nil {
		return -1, accesses
	}
	accesses++ // leaf header
	if trace != nil {
		trace(n.addr, leafHeaderBytes)
	}
	for i, id := range n.Rules {
		accesses++
		if trace != nil {
			trace(n.addr+uint32(leafHeaderBytes+pointerBytes*i), softwareRuleBytes)
		}
		if t.rules[id].Matches(p) {
			return int(id), accesses
		}
	}
	return -1, accesses
}

// WorstCaseAccesses returns the maximum memory accesses any packet can
// incur: the deepest path's internal node + pointer reads plus a full scan
// of the largest leaf on that path (paper Table 8, software columns).
func (t *Tree) WorstCaseAccesses() int {
	var walk func(n *Node, pathAccesses int) int
	memo := map[*Node]int{}
	walk = func(n *Node, pathAccesses int) int {
		if n == nil {
			return pathAccesses
		}
		if n.Leaf {
			return pathAccesses + 1 + len(n.Rules)
		}
		if v, ok := memo[n]; ok {
			return pathAccesses + v
		}
		worstBelow := 0
		for _, c := range n.Children {
			if w := walk(c, 2); w > worstBelow { // 2 = node header + pointer
				worstBelow = w
			}
		}
		memo[n] = worstBelow
		return pathAccesses + worstBelow
	}
	return walk(t.Root, 0) // root contributes via its own 2 accesses
}

// Depth returns the maximum depth of the tree (root = depth 0).
func (t *Tree) Depth() int { return t.stats.MaxDepth }

// NumRules returns the size of the ruleset the tree was built from.
func (t *Tree) NumRules() int { return len(t.rules) }
