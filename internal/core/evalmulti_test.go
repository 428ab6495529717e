package core

import (
	"math/rand"
	"testing"

	"repro/internal/classbench"
	"repro/internal/rule"
)

// evalMultiFullGrid is the HyperCuts cut evaluation as the builder ran it
// before the space budget moved in front of the grid: every rule's box is
// added to the full child grid, the grid is prefix-summed along each
// axis, and the caller applies the budget to the returned refs. It is the
// oracle evalMulti is checked against.
func (b *builder) evalMultiFullGrid(cand []dimInfo, bits []int) (maxChild int, totalRefs int64) {
	type active struct {
		idx int // into cand
		k   int
	}
	var actArr [rule.NumDims]active
	act := actArr[:0]
	np := 1
	for i := range cand {
		if bits[i] > 0 {
			act = append(act, active{i, bits[i]})
			np <<= uint(bits[i])
		}
	}
	if np == 1 {
		return 0, 0
	}
	var strideArr, dimArr [rule.NumDims]int
	strides := strideArr[:len(act)]
	s := 1
	for i := len(act) - 1; i >= 0; i-- {
		strides[i] = s
		s <<= uint(act[i].k)
	}
	dims := dimArr[:len(act)]
	for i, a := range act {
		dims[i] = 1 << uint(a.k)
	}
	grid := make([]int32, np)
	n := len(cand[0].rlo)
	var spanArr [rule.NumDims][2]int
	spans := spanArr[:len(act)]
	for r := 0; r < n; r++ {
		vol := int64(1)
		for i, a := range act {
			di := cand[a.idx]
			sh := uint(di.avail - a.k)
			spans[i] = [2]int{int(di.rlo[r] >> sh), int(di.rhi[r] >> sh)}
			vol *= int64(spans[i][1] - spans[i][0] + 1)
			b.stats.RuleChildOps++
		}
		totalRefs += vol
		addBoxFullGrid(grid, strides, dims, spans)
	}
	for i := range act {
		prefixSumAxisFullGrid(grid, strides, dims, i)
	}
	maxC := int32(0)
	for _, v := range grid {
		if v > maxC {
			maxC = v
		}
	}
	return int(maxC), totalRefs
}

// addBoxFullGrid adds +1 over a hyper-rectangle by inclusion-exclusion.
func addBoxFullGrid(grid []int32, strides, dims []int, spans [][2]int) {
	k := len(spans)
	for corner := 0; corner < 1<<uint(k); corner++ {
		idx := 0
		sign := int32(1)
		valid := true
		for i := 0; i < k; i++ {
			if corner&(1<<uint(i)) == 0 {
				idx += spans[i][0] * strides[i]
			} else {
				hi := spans[i][1] + 1
				if hi >= dims[i] {
					valid = false
					break
				}
				idx += hi * strides[i]
				sign = -sign
			}
		}
		if valid {
			grid[idx] += sign
		}
	}
}

// prefixSumAxisFullGrid prefix-sums axis a, finding each line start by
// dividing every cell index back into its coordinate.
func prefixSumAxisFullGrid(grid []int32, strides, dims []int, a int) {
	stride := strides[a]
	n := dims[a]
	for base := 0; base < len(grid); base++ {
		if (base/stride)%n != 0 {
			continue
		}
		acc := int32(0)
		for j := 0; j < n; j++ {
			acc += grid[base+j*stride]
			grid[base+j*stride] = acc
		}
	}
}

// TestEvalMultiMatchesFullGrid checks evalMulti against the full-grid
// oracle on random nodes (rule subsets of all three profiles inside
// random region prefixes), random candidate dimensions and random cut
// combinations under every spfac: evalMulti refuses exactly the cuts the
// oracle's refs+np > spfac*n refuses, returns the oracle's (maxChild,
// refs) for every cut it accepts, and counts the same RuleChildOps.
func TestEvalMultiMatchesFullGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var sets []rule.RuleSet
	for _, p := range []classbench.Profile{classbench.ACL1(), classbench.FW1(), classbench.IPC1()} {
		sets = append(sets, classbench.Generate(p, 1500, 2008))
	}
	accepted, refused := 0, 0
	for iter := 0; iter < 2000; iter++ {
		rs := sets[iter%len(sets)]
		var prefixLen [rule.NumDims]int
		var prefixVal [rule.NumDims]uint32
		anchor := &rs[rng.Intn(len(rs))]
		for d := 0; d < rule.NumDims; d++ {
			if rng.Intn(3) == 0 {
				prefixLen[d] = 1 + rng.Intn(7)
				f := anchor.F[d]
				v := f.Lo + uint32(rng.Int63n(int64(f.Hi-f.Lo)+1))
				prefixVal[d] = uint32(rule.Top8OfValue(v, d)) >> uint(8-prefixLen[d])
			}
		}
		keep := 0.05 + rng.Float64()
		var ids []int32
		for i := range rs {
			if inRegion(&rs[i], prefixLen, prefixVal) && rng.Float64() < keep {
				ids = append(ids, int32(i))
			}
		}
		if len(ids) == 0 {
			continue
		}

		fast, full := &builder{rules: rs}, &builder{rules: rs}
		var cand []dimInfo
		for d := 0; d < rule.NumDims; d++ {
			if avail := 8 - prefixLen[d]; avail > 0 && rng.Intn(4) != 0 {
				di := dimInfo{d: d, avail: avail, rlo: make([]uint8, len(ids)), rhi: make([]uint8, len(ids))}
				fast.remainders(ids, d, prefixLen[d], prefixVal[d], di.rlo, di.rhi)
				cand = append(cand, di)
			}
		}
		if len(cand) == 0 {
			continue
		}
		spfac := 1 + rng.Intn(4)
		bits := make([]int, len(cand))
		sum := 0
		for sum == 0 {
			sum = 0
			for i := range cand {
				bits[i] = rng.Intn(cand[i].avail + 1)
				if sum+bits[i] > 4+spfac {
					bits[i] = 0
				}
				sum += bits[i]
			}
		}
		np := int64(1) << uint(sum)
		budget := int64(spfac) * int64(len(ids))

		fast.stats, full.stats = BuildStats{}, BuildStats{}
		maxChild, refs, ok := fast.evalMulti(cand, bits, budget-np)
		wantMax, wantRefs := full.evalMultiFullGrid(cand, bits)
		if wantOK := wantRefs+np <= budget; ok != wantOK {
			t.Fatalf("iter %d: n=%d bits=%v spfac=%d: evalMulti ok=%v, oracle refs %d + np %d vs budget %d",
				iter, len(ids), bits, spfac, ok, wantRefs, np, budget)
		}
		if ok {
			accepted++
			if maxChild != wantMax || refs != wantRefs {
				t.Fatalf("iter %d: n=%d bits=%v: evalMulti (maxChild %d, refs %d), oracle (%d, %d)",
					iter, len(ids), bits, maxChild, refs, wantMax, wantRefs)
			}
		} else {
			refused++
		}
		if fast.stats.RuleChildOps != full.stats.RuleChildOps {
			t.Fatalf("iter %d: RuleChildOps %d, oracle %d", iter, fast.stats.RuleChildOps, full.stats.RuleChildOps)
		}
		// The budget's edge, which random spfac rarely lands on: a
		// limit of exactly the cut's refs accepts it, one less refuses.
		if _, _, ok := fast.evalMulti(cand, bits, wantRefs); !ok {
			t.Fatalf("iter %d: refused at limit = refs = %d", iter, wantRefs)
		}
		if _, _, ok := fast.evalMulti(cand, bits, wantRefs-1); ok {
			t.Fatalf("iter %d: accepted at limit = refs-1 = %d", iter, wantRefs-1)
		}
	}
	if accepted < 100 || refused < 100 {
		t.Fatalf("weak sample: %d accepted, %d refused cuts", accepted, refused)
	}
	t.Logf("%d accepted, %d refused cuts", accepted, refused)
}

// inRegion reports whether r overlaps the region fixed by the top-8 bit
// prefixes (the rules a node of that region holds).
func inRegion(r *rule.Rule, prefixLen [rule.NumDims]int, prefixVal [rule.NumDims]uint32) bool {
	for d := 0; d < rule.NumDims; d++ {
		if prefixLen[d] == 0 {
			continue
		}
		shift := rule.DimBits[d] - uint(prefixLen[d])
		lo := prefixVal[d] << shift
		hi := lo | (uint32(1)<<shift - 1)
		if !r.F[d].Overlaps(rule.Range{Lo: lo, Hi: hi}) {
			return false
		}
	}
	return true
}
