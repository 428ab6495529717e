package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cutgrid"
	"repro/internal/rule"
)

// Build constructs the modified decision tree for rs and lays it out into
// accelerator memory words.
//
// The build fans the child-subtree recursion out over a bounded worker
// pool (Config.Workers): whenever a worker is free, a child subtree is
// handed to it instead of being built inline. Every worker carries its own
// scratch buffers and BuildStats, merged when its subtree completes, so
// the hot loops stay allocation-free and lock-free; only the shared leaf
// cache takes a mutex. Because each subtree's cut decisions depend only on
// its own rule list and region prefix, the parallel build produces a tree
// whose structure, layout and statistics are identical to the sequential
// (Workers=1) build.
func Build(rs rule.RuleSet, cfg Config) (*Tree, error) {
	buildStart := time.Now()
	if err := cfg.sanitize(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(rs) > 1<<16-1 {
		return nil, fmt.Errorf("core: ruleset size %d exceeds the 16-bit rule ID field", len(rs))
	}
	// Own a copy: incremental updates (Insert/Delete) mutate the stored
	// ruleset and must not corrupt the caller's slice.
	rs = append(rule.RuleSet(nil), rs...)
	sh := &buildShared{cfg: cfg, rules: rs, leafCache: make(map[uint64][]*Node)}
	if extra := cfg.Workers - 1; extra > 0 {
		sh.sem = make(chan struct{}, extra)
	}
	b := sh.newWorker()
	ids := make([]int32, len(rs))
	for i := range rs {
		ids[i] = int32(i)
	}
	root := b.build(ids, [rule.NumDims]int{}, [rule.NumDims]uint32{}, 0)
	t := &Tree{Root: root, cfg: cfg, rules: rs, stats: b.stats}
	t.ensureInternalRoot()
	t.layout()
	t.buildNanos = int64(time.Since(buildStart))
	return t, nil
}

// buildShared is the build state common to all workers: the immutable
// inputs, the worker-pool semaphore and the mutex-guarded leaf cache.
type buildShared struct {
	cfg   Config
	rules rule.RuleSet

	// sem holds one token per additional worker; a child subtree is built
	// on its own goroutine only while a token is available, bounding
	// concurrency at Config.Workers. nil disables fan-out entirely.
	sem chan struct{}

	// leafCache deduplicates leaves with identical rule lists across the
	// whole tree (including the shared empty leaf), keyed by a 64-bit
	// hash of the ID list with chained equality on collision — no string
	// key is materialized per leaf.
	mu        sync.Mutex
	leafCache map[uint64][]*Node
}

func (sh *buildShared) newWorker() *builder {
	return &builder{shared: sh, cfg: sh.cfg, rules: sh.rules}
}

// builder is one build worker: private statistics plus reusable scratch
// buffers so the per-node hot loops (remainders, cut evaluation,
// distribution) allocate nothing after warm-up.
type builder struct {
	shared *buildShared
	cfg    Config
	rules  rule.RuleSet
	stats  BuildStats

	// rlo/rhi hold one dimension's per-rule footprint (chooseHiCuts).
	rlo, rhi []uint8
	// dimLo/dimHi hold per-dimension footprints that must stay live
	// simultaneously (chooseHyperCuts candidates, distribute).
	dimLo, dimHi [rule.NumDims][]uint8
	// spanBuf holds distribute's per-cut-dimension child spans.
	spanBuf [rule.NumDims][][2]int
	// idxBuf is the enumerateBox odometer, hoisted out of the per-rule
	// distribution loop.
	idxBuf [rule.NumDims]int
	// grid counts rules per child for maxChild1D and evalMulti.
	grid cutgrid.Grid
}

// grow returns b resized to n, reallocating only when capacity is short.
// Contents are unspecified; every caller fully overwrites (or zeroes) the
// returned slice.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// merge folds a finished child worker's statistics into the parent's.
func (s *BuildStats) merge(o BuildStats) {
	s.Nodes += o.Nodes
	s.Internal += o.Internal
	s.Leaves += o.Leaves
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	s.CutEvaluations += o.CutEvaluations
	s.RuleChildOps += o.RuleChildOps
	s.RulePushes += o.RulePushes
	s.ReplicatedRules += o.ReplicatedRules
	s.OverflowLeaves += o.OverflowLeaves
}

// remainders computes, for every rule at a node and one dimension, the
// inclusive interval [rlo, rhi] of the rule's footprint in the node's
// remaining top-8 bit space (the avail = 8-L unfixed most significant
// bits). Rules are assumed to overlap the node's region.
func (b *builder) remainders(ids []int32, d, prefixLen int, prefixVal uint32, rlo, rhi []uint8) {
	w := rule.DimBits[d]
	avail := 8 - prefixLen
	availMask := uint32(1)<<uint(avail) - 1
	// Region bounds in full field width.
	shift := w - uint(prefixLen)
	var regionLo, regionHi uint32
	if prefixLen == 0 {
		regionLo, regionHi = 0, rule.MaxValue(d)
	} else {
		regionLo = prefixVal << shift
		regionHi = regionLo | (uint32(1)<<shift - 1)
	}
	for i, id := range ids {
		f := b.rules[id].F[d]
		lo, hi := f.Lo, f.Hi
		if lo < regionLo {
			lo = regionLo
		}
		if hi > regionHi {
			hi = regionHi
		}
		rlo[i] = uint8((lo >> (w - 8)) & availMask)
		rhi[i] = uint8((hi >> (w - 8)) & availMask)
		b.stats.RuleChildOps++
	}
}

func (b *builder) build(ids []int32, prefixLen [rule.NumDims]int, prefixVal [rule.NumDims]uint32, depth int) *Node {
	if depth > b.stats.MaxDepth {
		b.stats.MaxDepth = depth
	}
	if len(ids) <= b.cfg.Binth || depth >= b.cfg.MaxDepth {
		return b.makeLeaf(ids)
	}
	// Termination on unseparable rules: a rule covering the node's whole
	// remaining top-8 region in every cuttable dimension lands in every
	// child of every further cut, so it can never be separated from the
	// others. When the separable remainder is within binth, more cutting
	// only replicates storage without shortening any leaf scan.
	if len(ids)-b.stuckRules(ids, prefixLen, prefixVal) <= b.cfg.Binth {
		return b.makeLeaf(ids)
	}

	var dims []int
	var bits []int
	if b.cfg.Algorithm == HiCuts {
		dims, bits = b.chooseHiCuts(ids, prefixLen, prefixVal)
	} else {
		dims, bits = b.chooseHyperCuts(ids, prefixLen, prefixVal)
	}
	if dims == nil {
		return b.makeLeaf(ids)
	}

	node := &Node{prefixLen: prefixLen}
	node.Cuts = makeCuts(dims, bits, prefixLen)
	b.stats.Nodes++
	b.stats.Internal++

	np := 1
	for _, k := range bits {
		np <<= uint(k)
	}
	childIDs, broad := b.distribute(ids, dims, bits, prefixLen, prefixVal, np)

	// Broad-rule termination: rules that land in at least half of this
	// cut's children (wide ranges, wildcards) are near-unseparable — they
	// will replicate through every further cut while staying together.
	// When the narrow remainder is within binth, cutting only multiplies
	// storage without shortening the worst leaf scan materially, so the
	// node becomes an overflow leaf (scanned at 30 rules per cycle).
	if len(ids)-broad <= b.cfg.Binth {
		b.stats.Nodes--
		b.stats.Internal--
		return b.makeLeaf(ids)
	}

	progress := false
	for _, c := range childIDs {
		if len(c) < len(ids) {
			progress = true
			break
		}
	}
	if !progress {
		b.stats.Nodes--
		b.stats.Internal--
		return b.makeLeaf(ids)
	}

	strides := bitStrides(bits)
	node.Children = make([]*Node, np)
	// Fan child subtrees out over the worker pool. Children that stay
	// inline reuse this worker's scratch; spawned children get a fresh
	// worker whose stats are merged after the join, so no ordering of
	// goroutine completion can change the totals.
	var wg sync.WaitGroup
	var spawned []*builder
	for i, c := range childIDs {
		if len(c) == 0 {
			// Empty regions all point at one shared empty leaf (the
			// paper "removes" empty children; in hardware the cut entry
			// must still point somewhere, so a single sentinel leaf is
			// shared by every empty region).
			node.Children[i] = b.makeLeaf(nil)
			continue
		}
		childLen := prefixLen
		childVal := prefixVal
		for j, d := range dims {
			comp := (i >> strides[j]) & (1<<uint(bits[j]) - 1)
			childVal[d] = childVal[d]<<uint(bits[j]) | uint32(comp)
			childLen[d] += bits[j]
		}
		// Only subtrees above the leaf threshold are worth a goroutine;
		// anything at or below Binth terminates immediately.
		if b.shared.sem != nil && len(c) > b.cfg.Binth {
			select {
			case b.shared.sem <- struct{}{}:
				w := b.shared.newWorker()
				spawned = append(spawned, w)
				wg.Add(1)
				go func(slot int, cids []int32, cl [rule.NumDims]int, cv [rule.NumDims]uint32) {
					defer wg.Done()
					node.Children[slot] = w.build(cids, cl, cv, depth+1)
					<-b.shared.sem
				}(i, c, childLen, childVal)
				continue
			default:
			}
		}
		node.Children[i] = b.build(c, childLen, childVal, depth+1)
	}
	wg.Wait()
	for _, w := range spawned {
		b.stats.merge(w.stats)
	}
	return node
}

// stuckRules counts rules that cover the node's entire remaining top-8
// region in every dimension that still has available bits; no cut can
// separate such a rule from any other rule of the node.
func (b *builder) stuckRules(ids []int32, prefixLen [rule.NumDims]int, prefixVal [rule.NumDims]uint32) int {
	stuck := 0
	for _, id := range ids {
		all := true
		for d := 0; d < rule.NumDims; d++ {
			avail := 8 - prefixLen[d]
			if avail <= 0 {
				continue
			}
			w := rule.DimBits[d]
			var regionLo, regionHi uint32
			if prefixLen[d] == 0 {
				regionLo, regionHi = 0, rule.MaxValue(d)
			} else {
				shift := w - uint(prefixLen[d])
				regionLo = prefixVal[d] << shift
				regionHi = regionLo | (uint32(1)<<shift - 1)
			}
			f := b.rules[id].F[d]
			// The rule must cover every child of any cut of dim d: its
			// clipped top-8 footprint spans the whole remaining space.
			top := uint(w - 8)
			availMask := uint32(1)<<uint(avail) - 1
			lo := f.Lo
			if lo < regionLo {
				lo = regionLo
			}
			hi := f.Hi
			if hi > regionHi {
				hi = regionHi
			}
			if (lo>>top)&availMask != 0 || (hi>>top)&availMask != availMask {
				all = false
				break
			}
		}
		if all {
			stuck++
		}
	}
	return stuck
}

// bitStrides returns, for each cut dimension, the right-shift that
// extracts its component from a flat child index (first dimension has the
// highest weight, matching the hardware's add of shifted components).
func bitStrides(bits []int) []int {
	strides := make([]int, len(bits))
	s := 0
	for i := len(bits) - 1; i >= 0; i-- {
		strides[i] = s
		s += bits[i]
	}
	return strides
}

// makeCuts derives the hardware mask/shift encoding for the chosen cut.
// For cut dimension i with k_i bits at a node whose region fixes L_i top-8
// bits, the hardware extracts top-8 bits [8-L-k, 8-L) and places them at
// the dimension's weight in the child index.
func makeCuts(dims, bits []int, prefixLen [rule.NumDims]int) []DimCut {
	strides := bitStrides(bits)
	cuts := make([]DimCut, len(dims))
	for i, d := range dims {
		k := bits[i]
		L := prefixLen[d]
		mask := uint8((1<<uint(k) - 1) << uint(8-L-k))
		shift := int8(8 - L - k - strides[i])
		cuts[i] = DimCut{Dim: d, Bits: k, Mask: mask, Shift: shift}
	}
	return cuts
}

// ChildIndex computes the hardware child index for packet p at an internal
// node: AND each dimension's top 8 bits with the mask, shift by the shift
// value, and add the results (paper §3). This is exactly the datapath the
// accelerator implements.
func ChildIndex(cuts []DimCut, p rule.Packet) int {
	idx := 0
	for _, c := range cuts {
		v := uint32(p.Top8(c.Dim) & c.Mask)
		if c.Shift >= 0 {
			idx += int(v >> uint(c.Shift))
		} else {
			idx += int(v << uint(-c.Shift))
		}
	}
	return idx
}

func (b *builder) makeLeaf(ids []int32) *Node {
	sh := b.shared
	h := hashIDs(ids)
	sh.mu.Lock()
	for _, l := range sh.leafCache[h] {
		if equalIDs(l.Rules, ids) {
			sh.mu.Unlock()
			return l
		}
	}
	l := &Node{Leaf: true, Rules: ids}
	sh.leafCache[h] = append(sh.leafCache[h], l)
	sh.mu.Unlock()
	b.stats.Nodes++
	b.stats.Leaves++
	b.stats.ReplicatedRules += int64(len(ids))
	if len(ids) > b.cfg.Binth {
		b.stats.OverflowLeaves++
	}
	return l
}

// hashIDs is FNV-1a over the ID words; leaf deduplication keys on it with
// chained equality, so no per-leaf string key is ever allocated.
func hashIDs(ids []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= 1099511628211
	}
	return h
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chooseHiCuts picks a single dimension and cut count per the modified
// HiCuts rule: np starts at 32 (StartCuts) and doubles while Eq. 3 holds:
// spfac*N >= sum(child rules)+np, np < 129, and the dimension has bits
// left. The dimension minimizing the largest child population wins.
func (b *builder) chooseHiCuts(ids []int32, prefixLen [rule.NumDims]int, prefixVal [rule.NumDims]uint32) ([]int, []int) {
	n := len(ids)
	budget := int64(b.cfg.Spfac) * int64(n) // Eq. 1/3 space budget
	b.rlo = grow(b.rlo, n)
	b.rhi = grow(b.rhi, n)
	rlo, rhi := b.rlo, b.rhi
	bestDim, bestBits, bestMax := -1, 0, n+1
	for d := 0; d < rule.NumDims; d++ {
		avail := 8 - prefixLen[d]
		if avail <= 0 {
			continue
		}
		b.remainders(ids, d, prefixLen[d], prefixVal[d], rlo, rhi)
		maxBits := avail
		if cap := log2(b.cfg.CutCap); cap < maxBits {
			maxBits = cap
		}
		k := log2(b.cfg.StartCuts)
		if k > maxBits {
			k = maxBits
		}
		// Shrink below the starting point if even it busts the space
		// budget: the space measure is HiCuts' defence against rule
		// replication blowing up memory, and a cut that exceeds it is
		// refused rather than taken (heavily wildcarded nodes become
		// overflow leaves scanned at 30 rules/cycle instead).
		for k > 0 {
			sm := b.spaceMeasure(rlo, rhi, avail, k)
			b.stats.CutEvaluations++
			if sm <= budget {
				break
			}
			k--
		}
		if k == 0 {
			continue
		}
		// Double while Eq. 3 holds: space measure within budget and
		// np < 129.
		for k < maxBits && 1<<uint(k) < 129 {
			sm := b.spaceMeasure(rlo, rhi, avail, k+1)
			b.stats.CutEvaluations++
			if sm > budget {
				break
			}
			k++
		}
		maxChild := b.maxChild1D(rlo, rhi, avail, k)
		b.stats.CutEvaluations++
		if maxChild < bestMax || (maxChild == bestMax && k < bestBits) {
			bestDim, bestBits, bestMax = d, k, maxChild
		}
	}
	if bestDim < 0 || bestMax >= n {
		return nil, nil
	}
	return []int{bestDim}, []int{bestBits}
}

// spaceMeasure is sum(rules per child) + np for a 1-D cut with 2^k cuts.
func (b *builder) spaceMeasure(rlo, rhi []uint8, avail, k int) int64 {
	sh := uint(avail - k)
	var total int64
	for i := range rlo {
		total += int64(rhi[i]>>sh) - int64(rlo[i]>>sh) + 1
		b.stats.RuleChildOps++
	}
	return total + int64(1)<<uint(k)
}

// maxChild1D is the largest child population of a 1-D cut with 2^k cuts.
func (b *builder) maxChild1D(rlo, rhi []uint8, avail, k int) int {
	sh := uint(avail - k)
	b.grid.Reset([]int{1 << uint(k)})
	for i := range rlo {
		b.grid.AddSpan(int(rlo[i]>>sh), int(rhi[i]>>sh))
	}
	b.stats.RuleChildOps += int64(len(rlo))
	return b.grid.Max()
}

// chooseHyperCuts picks the multi-dimensional cut per the modified rule:
// dimensions with at least the mean number of distinct range
// specifications are candidates; every combination of per-dimension
// power-of-two cut counts with 32 <= np <= 2^(4+spfac) (Eq. 4) is
// evaluated and the one minimizing the largest child population wins.
func (b *builder) chooseHyperCuts(ids []int32, prefixLen [rule.NumDims]int, prefixVal [rule.NumDims]uint32) ([]int, []int) {
	n := len(ids)
	// Distinct range specifications per dimension.
	distinct := [rule.NumDims]int{}
	for d := 0; d < rule.NumDims; d++ {
		set := make(map[rule.Range]struct{}, n)
		for _, id := range ids {
			set[b.rules[id].F[d]] = struct{}{}
		}
		distinct[d] = len(set)
	}
	mean := 0.0
	for _, c := range distinct {
		mean += float64(c)
	}
	mean /= rule.NumDims

	var cand []dimInfo
	for d := 0; d < rule.NumDims; d++ {
		avail := 8 - prefixLen[d]
		if avail <= 0 || float64(distinct[d]) < mean || distinct[d] <= 1 {
			continue
		}
		b.dimLo[d] = grow(b.dimLo[d], n)
		b.dimHi[d] = grow(b.dimHi[d], n)
		di := dimInfo{d: d, avail: avail, rlo: b.dimLo[d], rhi: b.dimHi[d]}
		b.remainders(ids, d, prefixLen[d], prefixVal[d], di.rlo, di.rhi)
		cand = append(cand, di)
	}
	if len(cand) == 0 {
		return nil, nil
	}

	maxTotalBits := 4 + b.cfg.Spfac // Eq. 4 upper bound: np <= 2^(4+spfac)
	if cap := log2(b.cfg.CutCap); cap < maxTotalBits {
		maxTotalBits = cap
	}
	minTotalBits := log2(b.cfg.StartCuts) // Eq. 4 lower bound: np >= 32
	// When the node has fewer than 5 unfixed bits in total, relax the
	// lower bound to whatever is achievable.
	totalAvail := 0
	for _, di := range cand {
		a := di.avail
		if a > maxTotalBits {
			a = maxTotalBits
		}
		totalAvail += a
	}
	if totalAvail < minTotalBits {
		minTotalBits = totalAvail
	}
	if minTotalBits < 1 {
		minTotalBits = 1
	}

	var bestDims, bestBits []int
	bestMax := n + 1
	bestRefs := int64(1) << 62
	bestNp := 0

	cur := make([]int, len(cand))
	var dfs func(i, sumBits int)
	dfs = func(i, sumBits int) {
		if i == len(cand) {
			// minTotalBits >= 1, so at least one dimension is cut.
			if sumBits < minTotalBits {
				return
			}
			np := 1 << uint(sumBits)
			// Space budget: combos whose replication exceeds spfac*n
			// (refs+np > spfac*n) are refused (the explosion defence the
			// original space measure provided; nodes with only
			// over-budget cuts become overflow leaves searched at 30
			// rules/cycle).
			maxChild, refs, ok := b.evalMulti(cand, cur, int64(b.cfg.Spfac)*int64(n)-int64(np))
			b.stats.CutEvaluations++
			if !ok {
				return
			}
			better := maxChild < bestMax ||
				(maxChild == bestMax && refs < bestRefs) ||
				(maxChild == bestMax && refs == bestRefs && np < bestNp)
			if better {
				bestMax, bestRefs, bestNp = maxChild, refs, np
				bestDims, bestBits = nil, nil
				for j := range cand {
					if cur[j] > 0 {
						bestDims = append(bestDims, cand[j].d)
						bestBits = append(bestBits, cur[j])
					}
				}
			}
			return
		}
		maxK := cand[i].avail
		if maxK > maxTotalBits-sumBits {
			maxK = maxTotalBits - sumBits
		}
		for k := 0; k <= maxK; k++ {
			cur[i] = k
			dfs(i+1, sumBits+k)
		}
		cur[i] = 0
	}
	dfs(0, 0)
	if bestDims == nil && minTotalBits > 1 {
		// No combo satisfying np >= 32 fits the space budget; retry
		// allowing smaller cuts (mirrors HiCuts shrinking below its
		// starting point under the same budget pressure).
		minTotalBits = 1
		dfs(0, 0)
	}

	if bestDims == nil || bestMax >= n {
		return nil, nil
	}
	return bestDims, bestBits
}

// dimInfo caches one candidate dimension's per-rule footprint in the
// node's unfixed top-8 bit space.
type dimInfo struct {
	d     int
	avail int
	rlo   []uint8
	rhi   []uint8
}

// evalMulti evaluates one cut: bits[i] cuts of candidate dimension i.
// The space budget comes first. The single pass over the node's rules
// adds each rule's box volume to refs, the number of rule references the
// cut would create, and refuses the cut (ok false) as soon as refs
// exceeds limit: refs only grows, so the rest of the pass and the grid's
// prefix sums could not rescue it. An accepted cut also returns its
// largest child population, the primary selection criterion. The
// statistics count the whole evaluation either way: BuildStats measure
// the paper algorithm's logical work, which the SA-1100 model prices as
// build energy (Table 3), not the host's shortcuts through it.
func (b *builder) evalMulti(cand []dimInfo, bits []int, limit int64) (maxChild int, refs int64, ok bool) {
	var actArr [rule.NumDims]*dimInfo
	var shArr [rule.NumDims]uint
	var sizeArr [rule.NumDims]int
	act, sh, sizes := actArr[:0], shArr[:0], sizeArr[:0]
	for i := range cand {
		if bits[i] > 0 {
			act = append(act, &cand[i])
			sh = append(sh, uint(cand[i].avail-bits[i]))
			sizes = append(sizes, 1<<uint(bits[i]))
		}
	}
	n := len(cand[0].rlo)
	b.stats.RuleChildOps += int64(n * len(act))
	b.grid.Reset(sizes)
	var spanArr [rule.NumDims][2]int
	spans := spanArr[:len(act)]
	for r := 0; r < n; r++ {
		vol := int64(1)
		for i, di := range act {
			lo, hi := int(di.rlo[r]>>sh[i]), int(di.rhi[r]>>sh[i])
			spans[i] = [2]int{lo, hi}
			vol *= int64(hi - lo + 1)
		}
		if refs += vol; refs > limit {
			return 0, refs, false
		}
		b.grid.AddBox(spans)
	}
	return b.grid.Max(), refs, true
}

// distribute builds per-child rule lists for the chosen cut. It also
// reports how many rules are "broad" — landing in at least half of the
// children — which drives the broad-rule leaf termination.
func (b *builder) distribute(ids []int32, dims, bits []int, prefixLen [rule.NumDims]int, prefixVal [rule.NumDims]uint32, np int) (children [][]int32, broad int) {
	n := len(ids)
	for i, d := range dims {
		b.dimLo[d] = grow(b.dimLo[d], n)
		b.dimHi[d] = grow(b.dimHi[d], n)
		rlo, rhi := b.dimLo[d], b.dimHi[d]
		b.remainders(ids, d, prefixLen[d], prefixVal[d], rlo, rhi)
		avail := 8 - prefixLen[d]
		sh := uint(avail - bits[i])
		b.spanBuf[i] = grow(b.spanBuf[i], n)
		sp := b.spanBuf[i]
		for r := 0; r < n; r++ {
			sp[r] = [2]int{int(rlo[r] >> sh), int(rhi[r] >> sh)}
		}
	}
	strides := bitStrides(bits)
	children = make([][]int32, np)
	var spanArr [rule.NumDims][2]int
	spans := spanArr[:len(dims)]
	idx := b.idxBuf[:len(dims)]
	for r, id := range ids {
		vol := 1
		for i := range dims {
			spans[i] = b.spanBuf[i][r]
			vol *= spans[i][1] - spans[i][0] + 1
		}
		if vol*2 >= np {
			broad++
		}
		enumerateBox(spans, strides, idx, func(child int) {
			children[child] = append(children[child], id)
			b.stats.RulePushes++
		})
	}
	return children, broad
}

// enumerateBox walks every flat child index inside the box of per-dim
// spans; strides here are bit shifts (child = sum comp_i << stride_i).
// idx is the caller-provided odometer buffer (len(spans) entries), hoisted
// out of per-rule loops so enumeration allocates nothing.
func enumerateBox(spans [][2]int, strides, idx []int, fn func(int)) {
	k := len(spans)
	for i := range idx[:k] {
		idx[i] = spans[i][0]
	}
	for {
		child := 0
		for i := 0; i < k; i++ {
			child += idx[i] << uint(strides[i])
		}
		fn(child)
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

func log2(v int) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Classify walks the logical tree using exactly the hardware's
// mask/shift/add child-index computation and a priority-ordered leaf scan.
// It returns the matching rule ID or -1.
//
// This pointer-chasing walk is the readable reference; the flat engine in
// internal/engine compiles the same tree into contiguous arrays and
// classifies several times faster. Both are differentially tested against
// internal/linear.
func (t *Tree) Classify(p rule.Packet) int {
	n := t.Root
	for n != nil && !n.Leaf {
		n = n.Children[ChildIndex(n.Cuts, p)]
	}
	if n == nil {
		return -1
	}
	for _, id := range n.Rules {
		if t.rules[id].Matches(p) {
			return int(id)
		}
	}
	return -1
}

// ensureInternalRoot guarantees the root is an internal node, since the
// accelerator keeps the root's cut information in register A. A leaf root
// (tiny rulesets) is wrapped in a minimal 32-cut internal node whose
// children all point at the leaf.
func (t *Tree) ensureInternalRoot() {
	if !t.Root.Leaf {
		return
	}
	leaf := t.Root
	cuts := makeCuts([]int{rule.DimSrcIP}, []int{5}, [rule.NumDims]int{})
	children := make([]*Node, 32)
	for i := range children {
		children[i] = leaf
	}
	t.Root = &Node{Cuts: cuts, Children: children}
	t.stats.Nodes++
	t.stats.Internal++
}
