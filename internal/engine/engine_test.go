package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/linear"
	"repro/internal/rule"
)

func randomPackets(n int, seed int64) []rule.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]rule.Packet, n)
	for i := range pkts {
		pkts[i] = rule.Packet{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(rng.Intn(1 << 16)),
			DstPort: uint16(rng.Intn(1 << 16)),
			Proto:   uint8(rng.Intn(256)),
		}
	}
	return pkts
}

// TestDifferentialClassify asserts, for seeded ClassBench rulesets across
// sizes, that the flat engine, the pointer-walking tree and the linear
// reference return identical match IDs for thousands of packets — for
// both algorithms and both speed settings, and for engines compiled from
// the sequential (Workers=1) and parallel builds.
func TestDifferentialClassify(t *testing.T) {
	profiles := []string{"acl1", "fw1"}
	sizes := []int{60, 300, 1000}
	for _, prof := range profiles {
		p, err := classbench.ProfileByName(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			rs := classbench.Generate(p, n, 2008)
			lin := linear.New(rs)
			// Mix of likely-matching trace packets and uniform noise.
			pkts := append(classbench.GenerateTrace(rs, 1500, 2009), randomPackets(2000, 2010)...)
			for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
				for _, speed := range []int{0, 1} {
					cfg := core.DefaultConfig(algo)
					cfg.Speed = speed
					cfg.Workers = 1
					seqTree, err := core.Build(rs, cfg)
					if err != nil {
						t.Fatalf("%s n=%d %v speed=%d sequential build: %v", prof, n, algo, speed, err)
					}
					cfg.Workers = runtime.GOMAXPROCS(0)
					parTree, err := core.Build(rs, cfg)
					if err != nil {
						t.Fatalf("%s n=%d %v speed=%d parallel build: %v", prof, n, algo, speed, err)
					}
					seqEng := Compile(seqTree)
					parEng := Compile(parTree)
					for i, pkt := range pkts {
						want := lin.Classify(pkt)
						if got := seqTree.Classify(pkt); got != want {
							t.Fatalf("%s n=%d %v speed=%d pkt %d: tree=%d linear=%d", prof, n, algo, speed, i, got, want)
						}
						if got := seqEng.Classify(pkt); got != want {
							t.Fatalf("%s n=%d %v speed=%d pkt %d: engine=%d linear=%d", prof, n, algo, speed, i, got, want)
						}
						if got := parEng.Classify(pkt); got != want {
							t.Fatalf("%s n=%d %v speed=%d pkt %d: parallel-build engine=%d linear=%d", prof, n, algo, speed, i, got, want)
						}
					}
				}
			}
		}
	}
}

func TestClassifyBatchMatchesClassify(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 500, 7)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	pkts := append(classbench.GenerateTrace(rs, 1000, 8), randomPackets(1000, 9)...)
	out := make([]int32, len(pkts))
	e.ClassifyBatch(pkts, out)
	for i, p := range pkts {
		if want := e.Classify(p); int32(want) != out[i] {
			t.Fatalf("pkt %d: batch=%d single=%d", i, out[i], want)
		}
	}
	par := make([]int32, len(pkts))
	NewHandle(e).ClassifySharded(pkts, par, 4, noTail)
	for i := range out {
		if par[i] != out[i] {
			t.Fatalf("pkt %d: sharded=%d batch=%d", i, par[i], out[i])
		}
	}
}

// TestClassifyBatchZeroAlloc pins the acceptance criterion: the batched
// path performs zero heap allocations on every scan kernel — the staged
// block and the block of one are stack arrays handed to the kernel, and
// must not escape.
func TestClassifyBatchZeroAlloc(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 1000, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	pkts := classbench.GenerateTrace(rs, 512+blockLen/2, 2009)
	out := make([]int32, len(pkts))
	for _, e := range withKernels(t, Compile(tree)) {
		if allocs := testing.AllocsPerRun(10, func() {
			e.ClassifyBatch(pkts, out)
		}); allocs != 0 {
			t.Fatalf("kernel %s: ClassifyBatch allocated %.1f times per run, want 0", e.Kernel(), allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			e.Classify(pkts[0])
		}); allocs != 0 {
			t.Fatalf("kernel %s: Classify allocated %.1f times per run, want 0", e.Kernel(), allocs)
		}
	}
}

func TestClassifyBatchShortOutPanics(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 60, 1)
	tree, err := core.Build(rs, core.DefaultConfig(core.HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short out slice")
		}
	}()
	e.ClassifyBatch(make([]rule.Packet, 4), make([]int32, 3))
}

// TestCompileMirrorsLayout checks the flat image against the tree's own
// accounting: node count equals internal words, leaf count equals the
// deduplicated leaf order, and every rule ID pool entry is in range.
func TestCompileMirrorsLayout(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 800, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	if e.NumNodes() != len(tree.Internals()) {
		t.Errorf("NumNodes = %d, want %d", e.NumNodes(), len(tree.Internals()))
	}
	if e.NumLeaves() != len(tree.Leaves()) {
		t.Errorf("NumLeaves = %d, want %d", e.NumLeaves(), len(tree.Leaves()))
	}
	if e.NumRules() != len(rs) {
		t.Errorf("NumRules = %d, want %d", e.NumRules(), len(rs))
	}
	if e.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
	for _, id := range e.ruleIDs {
		if id < 0 || int(id) >= len(rs) {
			t.Fatalf("rule ID %d out of range", id)
		}
	}
}
