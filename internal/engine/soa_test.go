package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
)

// Differential identity of the comparator-bank leaf scan against the AoS
// early-exit scan: the correctness spine of the layout. Every test
// compares each scan kernel, at the window level and through Classify
// and ClassifyBatch, with ClassifyAoS packet by packet.

// soaFields converts a packet to the scan kernels' field vector.
func soaFields(p rule.Packet) [rule.NumDims]uint32 {
	return [rule.NumDims]uint32{p.SrcIP, p.DstIP, uint32(p.SrcPort), uint32(p.DstPort), uint32(p.Proto)}
}

// withKernels returns e re-stamped with every scan kernel available on
// this CPU and build, portable first.
func withKernels(t testing.TB, e *Engine) []*Engine {
	t.Helper()
	var es []*Engine
	for _, k := range kernels() {
		ke, err := e.WithKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, ke)
	}
	return es
}

// checkBank verifies the bank is the word-packed image of the pool: a
// whole number of words, no more than the pool needs, slot i holding the
// bounds of rule ruleIDs[i], or blankWord's when it is a noRule pad.
func checkBank(t *testing.T, e *Engine) {
	t.Helper()
	if want := (len(e.ruleIDs) + wordSlots - 1) / wordSlots; len(e.soa.words) != want {
		t.Fatalf("bank has %d words for %d pool slots, want %d", len(e.soa.words), len(e.ruleIDs), want)
	}
	for s, id := range e.ruleIDs {
		w, l := &e.soa.words[s/wordSlots], s%wordSlots
		r := flatRule{lo: [rule.NumDims]uint32{1, 1, 1, 1, 1}} // blankWord's bounds
		if id != noRule {
			r = e.rules[id]
		}
		for d := 0; d < rule.NumDims; d++ {
			if w[d][l] != r.lo[d] || w[d][wordSlots+l] != r.hi[d] {
				t.Fatalf("slot %d dim %d holds [%d,%d], rule %d has [%d,%d]",
					s, d, w[d][l], w[d][wordSlots+l], id, r.lo[d], r.hi[d])
			}
		}
	}
}

// checkScanIdentity walks every packet and compares every scan kernel
// with the AoS scan on the exact window the walk lands in, then the
// whole trace through Classify and ClassifyBatch.
func checkScanIdentity(t *testing.T, e *Engine, trace []rule.Packet) {
	t.Helper()
	es := withKernels(t, e)
	want := make([]int32, len(trace))
	for i, p := range trace {
		f := soaFields(p)
		l := e.walk(&f)
		want[i] = int32(e.aosScanLeaf(l, &f))
		for _, ke := range es {
			var got [1]int32
			ke.scanBlock([]leafRef{l}, [][rule.NumDims]uint32{f}, got[:])
			if got[0] != want[i] {
				t.Fatalf("packet %d: kernel %s scan=%d aosScanLeaf=%d (window off=%d n=%d)",
					i, ke.Kernel(), got[0], want[i], l.off, l.n)
			}
			if got := ke.Classify(p); got != int(want[i]) {
				t.Fatalf("packet %d: kernel %s Classify=%d ClassifyAoS=%d", i, ke.Kernel(), got, want[i])
			}
		}
	}
	got := make([]int32, len(trace))
	for _, ke := range es {
		ke.ClassifyBatch(trace, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("packet %d: kernel %s ClassifyBatch=%d ClassifyAoS=%d", i, ke.Kernel(), got[i], want[i])
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
// through the patch pipeline and checks the scan paths stay
// packet-identical on every epoch, for both algorithms — the bank must
// stay in lock-step with the ruleIDs pool across append-only
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
				checkBank(t, e)
				checkScanIdentity(t, e, trace)
				if err := VerifyPatched(trace, e, Compile(tree)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestSweepKernel exercises the portable kernel's per-line sweep on
// every lane range of a word, against a scalar model: bits outside the
// range must be clear whatever the lanes there hold.
func TestSweepKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		var line [2 * wordSlots]uint32
		for l := 0; l < wordSlots; l++ {
			a, b := rng.Uint32()%1000, rng.Uint32()%1000
			if a > b {
				a, b = b, a
			}
			line[l], line[wordSlots+l] = a, b
		}
		v := rng.Uint32() % 1100
		for l0 := int32(0); l0 <= wordSlots; l0++ {
			for l1 := l0; l1 <= wordSlots; l1++ {
				var want uint32
				for l := l0; l < l1; l++ {
					if v >= line[l] && v <= line[wordSlots+l] {
						want |= 1 << uint(l)
					}
				}
				if got := sweep(v, &line, l0, l1); got != want {
					t.Fatalf("lanes [%d,%d) v=%d: sweep=%#x want %#x", l0, l1, v, got, want)
				}
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
