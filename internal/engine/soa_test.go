package engine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
)

// Differential identity of the SoA comparator-bank leaf scan against the
// AoS early-exit scan: the correctness spine of the layout change. Every
// test compares Classify (peel + prefilter + verify), ClassifyAoS (pure
// AoS) and soa.scan (the pure five-sweep mask kernel) packet by packet.

// soaFields converts a packet to the scan kernels' field vector.
func soaFields(p rule.Packet) [rule.NumDims]uint32 {
	return [rule.NumDims]uint32{p.SrcIP, p.DstIP, uint32(p.SrcPort), uint32(p.DstPort), uint32(p.Proto)}
}

// scan returns the offset within the window [off, off+n) of the first
// slot whose bounds contain the packet fields, or -1, sweeping all five
// dimensions per block. It is the pure-mask form of the kernel — the
// shape a SIMD backend would take — kept as the reference the
// prefilter+verify fast path (Engine.scanLeaf) is differentially tested
// against; the fast path wins in scalar code because a match-bearing
// block stops masking after at most two sweeps.
func (b *soaBank) scan(off, n int32, f *[rule.NumDims]uint32) int32 {
	end := off + n
	width := int32(scanBlockLen)
	for base := off; base < end; {
		bl := end - base
		if bl > width {
			bl = width
		}
		d0 := b.order[0]
		m := sweep(f[d0], b.lo[d0][base:base+bl], b.hi[d0][base:base+bl])
		for i := 1; i < rule.NumDims && m != 0; i++ {
			d := b.order[i]
			m &= sweep(f[d], b.lo[d][base:base+bl], b.hi[d][base:base+bl])
		}
		if m != 0 {
			return base - off + int32(bits.TrailingZeros64(m))
		}
		base += bl
		width = scanTailLen
	}
	return -1
}

// checkScanIdentity walks every packet and compares the three scan
// implementations on the exact window the walk lands in.
func checkScanIdentity(t *testing.T, e *Engine, trace []rule.Packet) {
	t.Helper()
	for i, p := range trace {
		f := soaFields(p)
		l := e.walk(&f)
		want := e.aosScanLeaf(l, &f)
		if got := e.scanLeaf(l, &f); got != want {
			t.Fatalf("packet %d: scanLeaf=%d aosScanLeaf=%d (window off=%d n=%d)", i, got, want, l.off, l.n)
		}
		mask := -1
		if pos := e.soa.scan(l.off, l.n, &f); pos >= 0 {
			mask = int(e.ruleIDs[l.off+pos])
		}
		if mask != want {
			t.Fatalf("packet %d: soa.scan=%d aosScanLeaf=%d (window off=%d n=%d)", i, mask, want, l.off, l.n)
		}
		if got := e.Classify(p); got != want {
			t.Fatalf("packet %d: Classify=%d ClassifyAoS=%d", i, got, want)
		}
		// The native SIMD kernel (when this CPU has one) must agree with
		// the whole portable family on the same window.
		if nativeKernelOK && l.n > 0 {
			simd := -1
			if pos := e.soa.scanSIMD(l.off, l.n, &f); pos >= 0 {
				simd = int(e.ruleIDs[l.off+pos])
			}
			if simd != want {
				t.Fatalf("packet %d: scanSIMD=%d aosScanLeaf=%d (window off=%d n=%d)", i, simd, want, l.off, l.n)
			}
		}
	}
	if nativeKernelOK {
		ne, err := e.WithKernel("native")
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range trace {
			if got, want := ne.Classify(p), e.ClassifyAoS(p); got != want {
				t.Fatalf("packet %d: native Classify=%d ClassifyAoS=%d", i, got, want)
			}
		}
	}
}

// TestSoADifferentialFresh checks SoA-vs-AoS identity on freshly
// compiled engines for both algorithms and several ruleset profiles.
func TestSoADifferentialFresh(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		for _, profile := range []func() classbench.Profile{classbench.ACL1, classbench.FW1, classbench.IPC1} {
			p := profile()
			t.Run(fmt.Sprintf("%v/%s", algo, p.Name), func(t *testing.T) {
				rs := classbench.Generate(p, 1200, 42)
				tree, err := core.Build(rs, core.DefaultConfig(algo))
				if err != nil {
					t.Fatal(err)
				}
				e := Compile(tree)
				trace := classbench.GenerateTrace(rs, 4000, 43)
				checkScanIdentity(t, e, trace)
				// The walk-independent oracle: the tree itself.
				for i, pk := range trace {
					if got, want := e.Classify(pk), tree.Classify(pk); got != want {
						t.Fatalf("packet %d: engine=%d tree=%d", i, got, want)
					}
				}
			})
		}
	}
}

// TestSoADifferentialPatched drives a randomized insert/delete churn
// through the patch pipeline and checks the three scan paths stay
// packet-identical on every epoch, for both algorithms — the SoA arenas
// must stay in lock-step with the ruleIDs pool across append-only
// copy-on-write patches, not just at compile time.
func TestSoADifferentialPatched(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		t.Run(algo.String(), func(t *testing.T) {
			const seed = 7
			rng := rand.New(rand.NewSource(seed))
			rs := classbench.Generate(classbench.ACL1(), 600, seed)
			tree, err := core.Build(rs, core.DefaultConfig(algo))
			if err != nil {
				t.Fatal(err)
			}
			e := Compile(tree)
			pool := classbench.Generate(classbench.FW1(), 512, seed+1)
			trace := classbench.GenerateTrace(rs, 2500, seed+2)
			live := tree.NumRules()
			for step := 0; step < 120; step++ {
				var d *core.Delta
				if rng.Intn(3) == 0 && live > 1 {
					id := rng.Intn(tree.NumRules())
					d, err = tree.DeleteDelta(id)
					if err != nil {
						continue // already deleted; not what this test probes
					}
					live--
				} else {
					r := pool[rng.Intn(len(pool))]
					r.ID = tree.NumRules()
					d, err = tree.InsertDelta(r)
					if err != nil {
						t.Fatal(err)
					}
					live++
				}
				e, err = e.Patch(d)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if step%20 != 19 {
					continue
				}
				for d := 0; d < rule.NumDims; d++ {
					if len(e.soa.lo[d]) != len(e.ruleIDs) || len(e.soa.hi[d]) != len(e.ruleIDs) {
						t.Fatalf("step %d: soa arena dim %d has %d/%d slots, ruleIDs %d",
							step, d, len(e.soa.lo[d]), len(e.soa.hi[d]), len(e.ruleIDs))
					}
				}
				checkScanIdentity(t, e, trace)
				if err := VerifyPatched(trace, e, Compile(tree)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestSweepKernel exercises the mask kernel directly at and around the
// block and unroll boundaries, against a scalar model.
func TestSweepKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64} {
		lo := make([]uint32, n)
		hi := make([]uint32, n)
		for i := range lo {
			a, b := rng.Uint32()%1000, rng.Uint32()%1000
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
		}
		for trial := 0; trial < 200; trial++ {
			v := rng.Uint32() % 1100
			got := sweep(v, lo, hi)
			var want uint64
			for i := range lo {
				if v >= lo[i] && v <= hi[i] {
					want |= 1 << uint(i)
				}
			}
			if got != want {
				t.Fatalf("n=%d v=%d: sweep=%#x want %#x", n, v, got, want)
			}
		}
	}
}

// TestRangeBit checks the wraparound comparator on interval edges.
func TestRangeBit(t *testing.T) {
	const max = ^uint32(0)
	cases := []struct {
		v, lo, hi uint32
		want      uint64
	}{
		{0, 0, 0, 1}, {1, 0, 0, 0}, {0, 1, 1, 0},
		{5, 1, 9, 1}, {1, 1, 9, 1}, {9, 1, 9, 1}, {0, 1, 9, 0}, {10, 1, 9, 0},
		{max, 0, max, 1}, {max, max, max, 1}, {0, max, max, 0},
		{max - 1, max, max, 0}, {7, 7, 7, 1},
	}
	for _, c := range cases {
		if got := rangeBit(c.v, c.lo, c.hi); got != c.want {
			t.Fatalf("rangeBit(%d, %d, %d) = %d, want %d", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

// TestScanStats records the workload facts the kernel is shaped by (see
// soa.go): matches cluster at the window head, windows are much longer
// than the average scan depth. It guards the peel heuristic against a
// silent workload shift that would invalidate the design.
func TestScanStats(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 10000, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	trace := classbench.GenerateTrace(rs, 8192, 2009)
	var sumLen, sumDepth, headHits int
	for _, p := range trace {
		f := soaFields(p)
		l := e.walk(&f)
		sumLen += int(l.n)
		depth := l.n
		for j := int32(0); j < l.n; j++ {
			id := e.ruleIDs[l.off+j]
			r := &e.rules[id]
			if f[0] >= r.lo[0] && f[0] <= r.hi[0] && f[1] >= r.lo[1] && f[1] <= r.hi[1] &&
				f[2] >= r.lo[2] && f[2] <= r.hi[2] && f[3] >= r.lo[3] && f[3] <= r.hi[3] &&
				f[4] >= r.lo[4] && f[4] <= r.hi[4] {
				depth = j
				break
			}
		}
		if depth < soaPeel {
			headHits++
		}
		sumDepth += int(depth)
	}
	n := len(trace)
	avgLen := float64(sumLen) / float64(n)
	avgDepth := float64(sumDepth) / float64(n)
	t.Logf("avg window %.1f, avg scan depth %.1f, head-hit fraction %.2f",
		avgLen, avgDepth, float64(headHits)/float64(n))
	if avgDepth > avgLen/2 {
		t.Errorf("scan depth %.1f not far below window length %.1f: peel+prefilter premise broken", avgDepth, avgLen)
	}
	if float64(headHits) < 0.3*float64(n) {
		t.Errorf("only %d/%d scans end inside the peel: peel heuristic premise broken", headHits, n)
	}
}
