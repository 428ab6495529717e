// Package hypercuts implements the original (software) HyperCuts
// decision-tree packet classification algorithm of Singh, Baboescu,
// Varghese and Wang, as described in §2.2 of the paper. It is the second
// software baseline the hardware accelerator is compared against.
//
// HyperCuts generalizes HiCuts by cutting several dimensions at once at an
// internal node. The dimensions considered for cutting are those whose
// number of distinct range specifications is at least the mean across all
// five dimensions. The number of children created by the combined cuts is
// bounded by the space measure of paper Eq. 2:
//
//	max children at node  <=  spfac * sqrt(rules(node))
//
// Among all feasible combinations of per-dimension cut counts the builder
// picks the one minimizing the largest child population (the criterion the
// paper says it uses).
//
// The two extra heuristics the paper later *removes* for the hardware
// version are implemented here and on by default:
//
//   - region compaction: each node shrinks its region to the bounding box
//     of its rules before cutting, so cuts spend resolution only where
//     rules live (this is the heuristic that requires division when
//     traversing, which is why the hardware variant drops it);
//   - pushing common rule subsets upwards: rules that would replicate into
//     every child are stored once in the parent and linear-searched during
//     traversal.
package hypercuts

import (
	"fmt"
	"math"

	"repro/internal/cutgrid"
	"repro/internal/rule"
)

// Config holds HyperCuts tuning parameters.
type Config struct {
	// Binth is the leaf threshold (paper example uses 3, tables use a
	// production value; we default to 16).
	Binth int
	// Spfac is the space factor of Eq. 2. The paper's tables use 4.
	Spfac float64
	// MaxDepth caps recursion (0 = 64).
	MaxDepth int
	// DisableRegionCompaction turns off the region-compaction heuristic.
	DisableRegionCompaction bool
	// DisablePushCommon turns off pushing common rule subsets upwards.
	DisablePushCommon bool
	// MaxCutBitsPerDim caps log2(cuts) in one dimension per node (0 = 6).
	MaxCutBitsPerDim int
}

// DefaultConfig returns the configuration matching the paper's tables
// (spfac = 4, both heuristics enabled).
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
	if c.MaxCutBitsPerDim <= 0 {
		c.MaxCutBitsPerDim = 6
	}
}

// DimCut describes one cut dimension of an internal node.
type DimCut struct {
	Dim     int
	NumCuts int    // power of two
	Lo, Hi  uint32 // (possibly compacted) region bounds along Dim
}

// Node is one HyperCuts tree node.
type Node struct {
	Leaf   bool
	Rules  []int32 // leaf: rules to linear-search
	Pushed []int32 // internal: common rules stored at this node

	Cuts     []DimCut
	Children []*Node // len == product of NumCuts; nil entries are empty

	addr uint32 // synthetic address for the cache model
}

// BuildStats mirrors hicuts.BuildStats; converted to energy by the SA-1100
// model for Table 3.
type BuildStats struct {
	Nodes           int
	Internal        int
	Leaves          int
	MaxDepth        int
	CutEvaluations  int64 // candidate combination evaluations
	RuleChildOps    int64
	RulePushes      int64
	PushedUp        int64 // rules moved to internal nodes
	CompactionOps   int64 // bounding-box computations
	MemoryBytes     int
	ReplicatedRules int64
}

// Tree is a built HyperCuts classifier.
type Tree struct {
	Root      *Node
	cfg       Config
	rules     rule.RuleSet
	stats     BuildStats
	leafCache map[string]*Node
}

// Build constructs a HyperCuts tree over rs.
func Build(rs rule.RuleSet, cfg Config) (*Tree, error) {
	cfg.sanitize()
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("hypercuts: %w", err)
	}
	t := &Tree{cfg: cfg, rules: rs, leafCache: make(map[string]*Node)}
	ids := make([]int32, len(rs))
	for i := range rs {
		ids[i] = int32(i)
	}
	var region [rule.NumDims]rule.Range
	for d := 0; d < rule.NumDims; d++ {
		region[d] = rule.FullRange(d)
	}
	t.Root = t.build(ids, region, 0)
	t.layout()
	return t, nil
}

func (t *Tree) build(ids []int32, region [rule.NumDims]rule.Range, depth int) *Node {
	if depth > t.stats.MaxDepth {
		t.stats.MaxDepth = depth
	}
	if len(ids) <= t.cfg.Binth || depth >= t.cfg.MaxDepth {
		return t.makeLeaf(ids)
	}

	if !t.cfg.DisableRegionCompaction {
		region = t.compact(ids, region)
	}

	combo := t.chooseCombo(ids, region)
	if combo == nil {
		return t.makeLeaf(ids)
	}

	node := &Node{Cuts: combo}
	t.stats.Nodes++
	t.stats.Internal++

	np := 1
	for _, c := range combo {
		np *= c.NumCuts
	}
	childIDs := t.distribute(ids, combo, np)

	// Push rules common to every child up into this node.
	if !t.cfg.DisablePushCommon {
		var kept [][]int32
		node.Pushed, kept = t.pushCommon(ids, combo, childIDs)
		childIDs = kept
	}

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
		t.stats.PushedUp -= int64(len(node.Pushed))
		return t.makeLeaf(ids)
	}

	node.Children = make([]*Node, np)
	for i, c := range childIDs {
		if len(c) == 0 {
			continue
		}
		childRegion := region
		for _, dc := range combo {
			idx := childIndexComponent(i, combo, dc.Dim)
			childRegion[dc.Dim] = cutInterval(rule.Range{Lo: dc.Lo, Hi: dc.Hi}, dc.NumCuts, idx)
		}
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

// compact shrinks the region to the bounding box of the node's rules (the
// region-compaction heuristic). This is what forces a division during
// traversal and is removed in the hardware variant.
func (t *Tree) compact(ids []int32, region [rule.NumDims]rule.Range) [rule.NumDims]rule.Range {
	out := region
	for d := 0; d < rule.NumDims; d++ {
		lo, hi := uint32(math.MaxUint32), uint32(0)
		first := true
		for _, id := range ids {
			f := t.rules[id].F[d]
			t.stats.CompactionOps++
			l := f.Lo
			if l < region[d].Lo {
				l = region[d].Lo
			}
			h := f.Hi
			if h > region[d].Hi {
				h = region[d].Hi
			}
			if l > h {
				continue // rule does not intersect region in d (possible only transiently)
			}
			if first {
				lo, hi, first = l, h, false
				continue
			}
			if l < lo {
				lo = l
			}
			if h > hi {
				hi = h
			}
		}
		if !first {
			out[d] = rule.Range{Lo: lo, Hi: hi}
		}
	}
	return out
}

// chooseCombo selects the dimensions to cut and the per-dimension cut
// counts. It returns nil when no useful cut exists.
func (t *Tree) chooseCombo(ids []int32, region [rule.NumDims]rule.Range) []DimCut {
	n := len(ids)
	// Count distinct range specifications per dimension.
	distinct := make([]int, rule.NumDims)
	for d := 0; d < rule.NumDims; d++ {
		set := make(map[rule.Range]struct{}, n)
		for _, id := range ids {
			set[t.rules[id].F[d]] = struct{}{}
		}
		distinct[d] = len(set)
	}
	mean := 0.0
	for _, c := range distinct {
		mean += float64(c)
	}
	mean /= rule.NumDims

	var cand []int
	for d := 0; d < rule.NumDims; d++ {
		if float64(distinct[d]) >= mean && distinct[d] > 1 && region[d].Size() >= 2 {
			cand = append(cand, d)
		}
	}
	if len(cand) == 0 {
		return nil
	}

	// Eq. 2: max children <= spfac * sqrt(n).
	limit := int(t.cfg.Spfac * math.Sqrt(float64(n)))
	if limit < 2 {
		limit = 2
	}

	maxBits := make([]int, len(cand))
	for i, d := range cand {
		b := 0
		for s := region[d].Size(); s > 1 && b < t.cfg.MaxCutBitsPerDim; s >>= 1 {
			b++
		}
		maxBits[i] = b
	}

	var best []DimCut
	bestMax := n + 1
	bestNp := 0

	cur := make([]int, len(cand)) // log2 cuts per candidate dim
	var dfs func(i, np int)
	dfs = func(i, np int) {
		if i == len(cand) {
			if np < 2 {
				return
			}
			combo := make([]DimCut, 0, len(cand))
			for j, d := range cand {
				if cur[j] > 0 {
					combo = append(combo, DimCut{Dim: d, NumCuts: 1 << cur[j], Lo: region[d].Lo, Hi: region[d].Hi})
				}
			}
			maxChild := t.maxChildCount(ids, combo)
			t.stats.CutEvaluations++
			if maxChild < bestMax || (maxChild == bestMax && np < bestNp) {
				bestMax, bestNp = maxChild, np
				best = combo
			}
			return
		}
		for b := 0; b <= maxBits[i] && np<<b <= limit; b++ {
			cur[i] = b
			dfs(i+1, np<<b)
		}
		cur[i] = 0
	}
	dfs(0, 1)

	if best == nil || bestMax >= n {
		return nil
	}
	return best
}

// cutInterval is identical to HiCuts' equal-width child interval.
func cutInterval(r rule.Range, np, i int) rule.Range {
	size := r.Size()
	width := (size + uint64(np) - 1) / uint64(np)
	lo := uint64(r.Lo) + uint64(i)*width
	hi := lo + width - 1
	if hi > uint64(r.Hi) {
		hi = uint64(r.Hi)
	}
	if lo > uint64(r.Hi) {
		lo = uint64(r.Hi) // degenerate trailing child
	}
	return rule.Range{Lo: uint32(lo), Hi: uint32(hi)}
}

// childSpan is the per-dimension child interval of a rule under a cut.
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

// maxChildCount computes the largest child population for a multi-dim cut
// using a k-dimensional difference grid (k = len(combo)).
func (t *Tree) maxChildCount(ids []int32, combo []DimCut) int {
	sizes := make([]int, len(combo))
	for i, c := range combo {
		sizes[i] = c.NumCuts
	}
	var grid cutgrid.Grid
	grid.Reset(sizes)
	spans := make([][2]int, len(combo))
	for _, id := range ids {
		okAll := true
		for i, c := range combo {
			c1, c2, ok := childSpan(t.rules[id].F[c.Dim], rule.Range{Lo: c.Lo, Hi: c.Hi}, c.NumCuts)
			t.stats.RuleChildOps++
			if !ok {
				okAll = false
				break
			}
			spans[i] = [2]int{c1, c2}
		}
		if !okAll {
			continue
		}
		grid.AddBox(spans)
	}
	return grid.Max()
}

// comboStrides returns mixed-radix strides: child index = sum idx_i*stride_i.
func comboStrides(combo []DimCut) []int {
	strides := make([]int, len(combo))
	s := 1
	for i := len(combo) - 1; i >= 0; i-- {
		strides[i] = s
		s *= combo[i].NumCuts
	}
	return strides
}

// distribute assigns rules to children of the multi-dimensional cut.
func (t *Tree) distribute(ids []int32, combo []DimCut, np int) [][]int32 {
	strides := comboStrides(combo)
	children := make([][]int32, np)
	spans := make([][2]int, len(combo))
	for _, id := range ids {
		okAll := true
		for i, c := range combo {
			c1, c2, ok := childSpan(t.rules[id].F[c.Dim], rule.Range{Lo: c.Lo, Hi: c.Hi}, c.NumCuts)
			t.stats.RuleChildOps++
			if !ok {
				okAll = false
				break
			}
			spans[i] = [2]int{c1, c2}
		}
		if !okAll {
			continue
		}
		// Enumerate the box of child indexes.
		enumerateBox(spans, strides, func(child int) {
			children[child] = append(children[child], id)
			t.stats.RulePushes++
		})
	}
	return children
}

func enumerateBox(spans [][2]int, strides []int, fn func(int)) {
	k := len(spans)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = spans[i][0]
	}
	for {
		child := 0
		for i := 0; i < k; i++ {
			child += idx[i] * strides[i]
		}
		fn(child)
		// Odometer increment.
		i := k - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] <= spans[i][1] {
				break
			}
			idx[i] = spans[i][0]
		}
		if i < 0 {
			return
		}
	}
}

// pushCommon removes rules present in every child and returns them plus
// the filtered child lists.
func (t *Tree) pushCommon(ids []int32, combo []DimCut, children [][]int32) (pushed []int32, kept [][]int32) {
	// A rule lands in every child exactly when it spans the full cut
	// range in every cut dimension.
	common := make(map[int32]bool)
	for _, id := range ids {
		all := true
		for _, c := range combo {
			f := t.rules[id].F[c.Dim]
			if !(f.Lo <= c.Lo && f.Hi >= c.Hi) {
				all = false
				break
			}
		}
		if all {
			common[id] = true
		}
	}
	if len(common) == 0 {
		return nil, children
	}
	for _, id := range ids {
		if common[id] {
			pushed = append(pushed, id)
		}
	}
	t.stats.PushedUp += int64(len(pushed))
	kept = make([][]int32, len(children))
	for i, c := range children {
		out := c[:0:0]
		for _, id := range c {
			if !common[id] {
				out = append(out, id)
			}
		}
		kept[i] = out
	}
	return pushed, kept
}

// childIndexComponent extracts the per-dimension child coordinate from a
// flat child index.
func childIndexComponent(flat int, combo []DimCut, dim int) int {
	strides := comboStrides(combo)
	for i, c := range combo {
		if c.Dim == dim {
			return (flat / strides[i]) % c.NumCuts
		}
	}
	return 0
}

func idsKey(ids []int32) string {
	b := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// Software memory accounting (Table 2): HyperCuts internal nodes are
// larger than HiCuts nodes because they carry a multi-dimension cut
// description and region bounds, plus pointers for children and pushed
// rules; the ruleset is stored once at 20 bytes per rule.
const (
	internalHeaderBytes = 24
	perDimCutBytes      = 12 // dim id + cut count + lo/hi bounds
	leafHeaderBytes     = 8
	pointerBytes        = 4
	softwareRuleBytes   = 20
)

func (t *Tree) layout() {
	var next uint32
	seen := map[*Node]bool{}
	var walk func(n *Node)
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
		next += uint32(internalHeaderBytes + perDimCutBytes*len(n.Cuts) +
			pointerBytes*len(n.Children) + pointerBytes*len(n.Pushed))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	t.stats.MemoryBytes = int(next) + len(t.rules)*softwareRuleBytes
}

// Stats returns build statistics.
func (t *Tree) Stats() BuildStats { return t.stats }

// NumRules returns the ruleset size.
func (t *Tree) NumRules() int { return len(t.rules) }

// Depth returns the tree depth.
func (t *Tree) Depth() int { return t.stats.MaxDepth }

// Classify returns the highest-priority matching rule ID or -1.
func (t *Tree) Classify(p rule.Packet) int {
	m, _ := t.ClassifyTraced(p, nil)
	return m
}

// ClassifyTraced classifies p while reporting each memory access; the
// return values are the match (lowest matching rule ID, -1 for none) and
// the total access count (paper Table 8 software columns).
func (t *Tree) ClassifyTraced(p rule.Packet, trace func(addr, size uint32)) (match, accesses int) {
	best := -1
	consider := func(id int32) {
		if t.rules[id].Matches(p) && (best < 0 || int(id) < best) {
			best = int(id)
		}
	}
	n := t.Root
	for n != nil && !n.Leaf {
		accesses++
		if trace != nil {
			trace(n.addr, internalHeaderBytes)
		}
		// Pushed rules are linear-searched while traversing (paper §2.2).
		for i, id := range n.Pushed {
			accesses++
			if trace != nil {
				trace(n.addr+uint32(internalHeaderBytes+pointerBytes*i), softwareRuleBytes)
			}
			consider(id)
		}
		child := 0
		strides := comboStrides(n.Cuts)
		outside := false
		for i, c := range n.Cuts {
			v := p.Field(c.Dim)
			r := rule.Range{Lo: c.Lo, Hi: c.Hi}
			if !r.Contains(v) {
				outside = true
				break
			}
			size := r.Size()
			width := (size + uint64(c.NumCuts) - 1) / uint64(c.NumCuts)
			idx := int((uint64(v) - uint64(c.Lo)) / width)
			if idx >= c.NumCuts {
				idx = c.NumCuts - 1
			}
			child += idx * strides[i]
		}
		if outside {
			// The packet is outside the compacted region: no rule below
			// this node can match.
			return best, accesses
		}
		accesses++ // child pointer read
		if trace != nil {
			trace(n.addr+uint32(internalHeaderBytes+pointerBytes*child), pointerBytes)
		}
		n = n.Children[child]
	}
	if n == nil {
		return best, accesses
	}
	accesses++
	if trace != nil {
		trace(n.addr, leafHeaderBytes)
	}
	for i, id := range n.Rules {
		accesses++
		if trace != nil {
			trace(n.addr+uint32(leafHeaderBytes+pointerBytes*i), softwareRuleBytes)
		}
		if best >= 0 && int(id) > best {
			break // leaf rules are priority-ordered; cannot improve
		}
		consider(id)
	}
	return best, accesses
}

// WorstCaseAccesses returns an upper bound on per-packet memory accesses:
// the worst root-leaf path counting node headers, pushed-rule scans, child
// pointer reads and a full scan of the terminal leaf.
func (t *Tree) WorstCaseAccesses() int {
	memo := map[*Node]int{}
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if n == nil {
			return 0
		}
		if n.Leaf {
			return 1 + len(n.Rules)
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
		v := 2 + len(n.Pushed) + worst // header + pointer + pushed scan
		memo[n] = v
		return v
	}
	return walk(t.Root)
}
