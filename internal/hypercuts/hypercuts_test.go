package hypercuts

import (
	"math/rand"
	"testing"

	"repro/internal/classbench"
	"repro/internal/rule"
)

func table1Rules() rule.RuleSet {
	specs := [][2][rule.NumDims]uint8{
		{{128, 15, 40, 180, 120}, {240, 15, 40, 180, 140}},
		{{90, 0, 0, 190, 130}, {100, 80, 200, 200, 132}},
		{{130, 60, 0, 180, 133}, {255, 140, 60, 180, 135}},
		{{90, 200, 40, 180, 136}, {92, 200, 40, 180, 138}},
		{{130, 60, 40, 190, 60}, {255, 140, 40, 200, 63}},
		{{140, 60, 0, 0, 140}, {150, 140, 255, 255, 255}},
		{{160, 80, 0, 0, 0}, {165, 80, 255, 255, 80}},
		{{48, 0, 40, 0, 0}, {50, 80, 40, 255, 10}},
		{{26, 50, 40, 180, 30}, {36, 50, 40, 180, 40}},
		{{40, 40, 40, 0, 0}, {40, 70, 40, 255, 60}},
	}
	rs := make(rule.RuleSet, len(specs))
	for i, s := range specs {
		rs[i] = rule.FromBytes(i, s[0], s[1])
	}
	return rs
}

func TestBuildEmptyAndSingle(t *testing.T) {
	tr, err := Build(nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.Leaf || tr.Classify(rule.Packet{}) != -1 {
		t.Error("empty set should give an empty leaf root")
	}

	rs := rule.RuleSet{rule.New(0, 0x0A000000, 8, 0, 0,
		rule.FullRange(rule.DimSrcPort), rule.Range{Lo: 80, Hi: 80}, 6, false)}
	tr, err = Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Classify(rule.Packet{SrcIP: 0x0A000001, DstPort: 80, Proto: 6}); got != 0 {
		t.Errorf("Classify = %d, want 0", got)
	}
}

func TestTable1ClassificationMatchesLinear(t *testing.T) {
	rs := table1Rules()
	tr, err := Build(rs, Config{Binth: 3, Spfac: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		p := rule.PacketFromBytes([rule.NumDims]uint8{
			uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)),
			uint8(rng.Intn(256)), uint8(rng.Intn(256))})
		if got, want := tr.Classify(p), rs.Match(p); got != want {
			t.Fatalf("packet %d (%+v): tree=%d linear=%d", i, p, got, want)
		}
	}
}

func TestClassifyAgreesWithLinearAllProfiles(t *testing.T) {
	for _, prof := range []classbench.Profile{classbench.ACL1(), classbench.FW1(), classbench.IPC1()} {
		rs := classbench.Generate(prof, 400, 21)
		tr, err := Build(rs, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		trace := classbench.GenerateTrace(rs, 3000, 22)
		for i, p := range trace {
			if got, want := tr.Classify(p), rs.Match(p); got != want {
				t.Fatalf("%s packet %d: tree=%d linear=%d", prof.Name, i, got, want)
			}
		}
	}
}

func TestHeuristicsCanBeDisabled(t *testing.T) {
	rs := classbench.Generate(classbench.FW1(), 500, 13)
	on, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	offCfg := DefaultConfig()
	offCfg.DisablePushCommon = true
	offCfg.DisableRegionCompaction = true
	off, err := Build(rs, offCfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats().PushedUp != 0 {
		t.Errorf("push-common disabled but PushedUp = %d", off.Stats().PushedUp)
	}
	if off.Stats().CompactionOps != 0 {
		t.Errorf("compaction disabled but CompactionOps = %d", off.Stats().CompactionOps)
	}
	if on.Stats().CompactionOps == 0 {
		t.Error("compaction enabled but no CompactionOps recorded")
	}
	// Both variants must classify identically.
	trace := classbench.GenerateTrace(rs, 1500, 14)
	for i, p := range trace {
		if a, b := on.Classify(p), off.Classify(p); a != b {
			t.Fatalf("packet %d: heuristics-on=%d heuristics-off=%d", i, a, b)
		}
	}
}

func TestPushCommonReducesReplication(t *testing.T) {
	// A wildcard-everything rule replicates into every child; pushing it
	// up should keep it out of all leaves below the root.
	rs := classbench.Generate(classbench.ACL1(), 300, 5)
	wild := rule.New(len(rs), 0, 0, 0, 0,
		rule.FullRange(rule.DimSrcPort), rule.FullRange(rule.DimDstPort), 0, true)
	rs = append(rs, wild)
	tr, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats().PushedUp == 0 {
		t.Error("expected the wildcard rule to be pushed up at least once")
	}
	// The wildcard rule must still be found.
	p := rule.Packet{SrcIP: 0xDEADBEEF, DstIP: 0xCAFEBABE, SrcPort: 1, DstPort: 2, Proto: 99}
	if got, want := tr.Classify(p), rs.Match(p); got != want {
		t.Errorf("wildcard classification: tree=%d linear=%d", got, want)
	}
}

func TestMultiDimensionalCutsOccur(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 800, 6)
	tr, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	forEachNode(tr.Root, func(n *Node) {
		if !n.Leaf && len(n.Cuts) > 1 {
			multi = true
		}
	})
	if !multi {
		t.Error("no node cuts more than one dimension; HyperCuts should multi-cut on acl1")
	}
}

func TestStatsAndMemory(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 500, 7)
	tr, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Nodes <= 0 || s.Leaves <= 0 || s.Internal <= 0 {
		t.Errorf("counts: %+v", s)
	}
	if s.MemoryBytes <= len(rs)*softwareRuleBytes {
		t.Errorf("memory %d too small", s.MemoryBytes)
	}
	if tr.Depth() < 1 || tr.NumRules() != 500 {
		t.Errorf("depth=%d rules=%d", tr.Depth(), tr.NumRules())
	}
}

func TestWorstCaseBoundsObserved(t *testing.T) {
	rs := classbench.Generate(classbench.IPC1(), 400, 8)
	tr, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	worst := tr.WorstCaseAccesses()
	maxObs := 0
	for _, p := range classbench.GenerateTrace(rs, 2000, 9) {
		if _, acc := tr.ClassifyTraced(p, nil); acc > maxObs {
			maxObs = acc
		}
	}
	if maxObs > worst {
		t.Errorf("observed %d > declared worst %d", maxObs, worst)
	}
}

func TestTraceCallbackCountMatches(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 300, 10)
	tr, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range classbench.GenerateTrace(rs, 50, 11) {
		fired := 0
		_, acc := tr.ClassifyTraced(p, func(a, s uint32) { fired++ })
		if fired != acc {
			t.Fatalf("callback fired %d, accesses %d", fired, acc)
		}
	}
}

func TestEnumerateBox(t *testing.T) {
	spans := [][2]int{{1, 2}, {0, 1}}
	strides := []int{4, 1} // 4x4 grid flattened
	var got []int
	enumerateBox(spans, strides, func(c int) { got = append(got, c) })
	want := map[int]bool{4: true, 5: true, 8: true, 9: true}
	if len(got) != 4 {
		t.Fatalf("enumerated %d cells, want 4: %v", len(got), got)
	}
	for _, c := range got {
		if !want[c] {
			t.Errorf("unexpected cell %d", c)
		}
	}
}

func TestMaxChildCountAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rs := make(rule.RuleSet, 40)
	for i := range rs {
		lo1 := uint8(rng.Intn(200))
		hi1 := lo1 + uint8(rng.Intn(int(255-lo1)))
		lo2 := uint8(rng.Intn(200))
		hi2 := lo2 + uint8(rng.Intn(int(255-lo2)))
		rs[i] = rule.FromBytes(i,
			[rule.NumDims]uint8{lo1, lo2, 0, 0, 0},
			[rule.NumDims]uint8{hi1, hi2, 255, 255, 255})
	}
	tr := &Tree{rules: rs, leafCache: map[string]*Node{}}
	ids := make([]int32, len(rs))
	for i := range ids {
		ids[i] = int32(i)
	}
	combo := []DimCut{
		{Dim: 0, NumCuts: 4, Lo: 0, Hi: ^uint32(0)},
		{Dim: 1, NumCuts: 2, Lo: 0, Hi: ^uint32(0)},
	}
	got := tr.maxChildCount(ids, combo)

	// Brute force via distribute.
	children := tr.distribute(ids, combo, 8)
	want := 0
	for _, c := range children {
		if len(c) > want {
			want = len(c)
		}
	}
	if got != want {
		t.Errorf("maxChildCount = %d, brute force = %d", got, want)
	}
}

func TestDeterministicBuild(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 250, 17)
	a, _ := Build(rs, DefaultConfig())
	b, _ := Build(rs, DefaultConfig())
	if a.Stats() != b.Stats() {
		t.Errorf("nondeterministic build:\n%+v\n%+v", a.Stats(), b.Stats())
	}
}

func forEachNode(root *Node, fn func(*Node)) {
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		fn(n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
}
