package core

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/classbench"
	"repro/internal/rule"
)

func buildOrDie(t *testing.T, rs rule.RuleSet, cfg Config) *Tree {
	t.Helper()
	tr, err := Build(rs, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 10, 1)
	bad := []Config{
		{Algorithm: HiCuts, Speed: 2},
		{Algorithm: HiCuts, StartCuts: 3},
		{Algorithm: HiCuts, CutCap: 512},
		{Algorithm: HiCuts, StartCuts: 64, CutCap: 32},
		{Algorithm: HyperCuts, Spfac: 9},
	}
	for i, cfg := range bad {
		if _, err := Build(rs, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Build(rs, DefaultConfig(HiCuts)); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestAlgorithmString(t *testing.T) {
	if HiCuts.String() != "HiCuts" || HyperCuts.String() != "HyperCuts" {
		t.Error("Algorithm.String broken")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm should still print")
	}
}

func TestClassifyAgreesWithLinear(t *testing.T) {
	for _, algo := range []Algorithm{HiCuts, HyperCuts} {
		for _, prof := range []classbench.Profile{classbench.ACL1(), classbench.FW1(), classbench.IPC1()} {
			rs := classbench.Generate(prof, 400, 33)
			tr := buildOrDie(t, rs, DefaultConfig(algo))
			trace := classbench.GenerateTrace(rs, 3000, 34)
			for i, p := range trace {
				if got, want := tr.Classify(p), rs.Match(p); got != want {
					t.Fatalf("%v/%s packet %d: tree=%d linear=%d", algo, prof.Name, i, got, want)
				}
			}
		}
	}
}

func TestWalkAgreesWithClassify(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 500, 35)
	for _, speed := range []int{0, 1} {
		cfg := DefaultConfig(HyperCuts)
		cfg.Speed = speed
		tr := buildOrDie(t, rs, cfg)
		for _, p := range classbench.GenerateTrace(rs, 2000, 36) {
			pi := tr.Walk(p)
			if pi.Match != tr.Classify(p) {
				t.Fatalf("speed %d: Walk match %d != Classify %d", speed, pi.Match, tr.Classify(p))
			}
			if pi.Internal < 1 {
				t.Fatalf("path must traverse at least the root, got %d", pi.Internal)
			}
			if pi.LeafWords < 1 {
				t.Fatalf("leaf words %d", pi.LeafWords)
			}
			if pi.Cycles() != pi.Internal+pi.LeafWords {
				t.Fatalf("Cycles() inconsistent")
			}
		}
	}
}

func TestCutCountsRespectHardwareFormat(t *testing.T) {
	for _, algo := range []Algorithm{HiCuts, HyperCuts} {
		rs := classbench.Generate(classbench.ACL1(), 800, 37)
		tr := buildOrDie(t, rs, DefaultConfig(algo))
		for _, n := range tr.Internals() {
			np := len(n.Children)
			if np < 2 || np > MaxCuts || np&(np-1) != 0 {
				t.Fatalf("%v: internal node with %d children", algo, np)
			}
			if algo == HiCuts && len(n.Cuts) != 1 {
				t.Fatalf("HiCuts node cuts %d dimensions", len(n.Cuts))
			}
		}
	}
}

func TestModifiedAlgorithmsStartAt32Cuts(t *testing.T) {
	// The root of a reasonably sized acl1 tree must use at least 32 cuts
	// (the modification of §3: starting position 32 instead of 2).
	for _, algo := range []Algorithm{HiCuts, HyperCuts} {
		rs := classbench.Generate(classbench.ACL1(), 1000, 38)
		tr := buildOrDie(t, rs, DefaultConfig(algo))
		if np := len(tr.Root.Children); np < MinCuts {
			t.Errorf("%v root has %d cuts, want >= %d", algo, np, MinCuts)
		}
	}
}

func TestLayoutInvariants(t *testing.T) {
	for _, speed := range []int{0, 1} {
		cfg := DefaultConfig(HyperCuts)
		cfg.Speed = speed
		rs := classbench.Generate(classbench.ACL1(), 600, 39)
		tr := buildOrDie(t, rs, cfg)

		numInternal := len(tr.Internals())
		for i, n := range tr.Internals() {
			if n.Word != i {
				t.Fatalf("internal %d at word %d", i, n.Word)
			}
			if n.Leaf {
				t.Fatalf("leaf in internal list")
			}
		}
		if tr.Root.Word != 0 {
			t.Fatalf("root at word %d", tr.Root.Word)
		}
		prevEnd := numInternal * RulesPerWord // slot index space
		for _, l := range tr.Leaves() {
			if !l.Leaf {
				t.Fatalf("internal in leaf list")
			}
			if l.Word < numInternal {
				t.Fatalf("leaf at word %d overlaps internal words (%d)", l.Word, numInternal)
			}
			if l.Pos < 0 || l.Pos >= RulesPerWord {
				t.Fatalf("leaf pos %d", l.Pos)
			}
			n := len(l.Rules)
			if n == 0 {
				n = 1
			}
			start := l.Word*RulesPerWord + l.Pos
			if speed == 0 {
				// Speed 0: fully contiguous packing, no gaps.
				if start != prevEnd {
					t.Fatalf("speed 0: leaf starts at slot %d, previous ended at %d", start, prevEnd)
				}
			} else {
				// Eq. 6: leaves that fit a word never straddle one.
				if n <= RulesPerWord && l.Pos+n > RulesPerWord {
					t.Fatalf("speed 1: leaf with %d rules at pos %d straddles a word", n, l.Pos)
				}
				if start < prevEnd {
					t.Fatalf("speed 1: leaf overlaps previous storage")
				}
			}
			prevEnd = start + n
		}
		wantWords := (prevEnd + RulesPerWord - 1) / RulesPerWord
		if tr.Words() != wantWords {
			t.Fatalf("Words=%d want %d", tr.Words(), wantWords)
		}
		if tr.MemoryBytes() != tr.Words()*WordBytes {
			t.Fatalf("MemoryBytes inconsistent")
		}
	}
}

func TestSpeed0NeverUsesMoreMemory(t *testing.T) {
	for _, prof := range []classbench.Profile{classbench.ACL1(), classbench.FW1()} {
		rs := classbench.Generate(prof, 700, 40)
		c0 := DefaultConfig(HyperCuts)
		c0.Speed = 0
		c1 := DefaultConfig(HyperCuts)
		c1.Speed = 1
		t0 := buildOrDie(t, rs, c0)
		t1 := buildOrDie(t, rs, c1)
		if t0.Words() > t1.Words() {
			t.Errorf("%s: speed 0 uses %d words, speed 1 uses %d; speed 0 must be most compact",
				prof.Name, t0.Words(), t1.Words())
		}
	}
}

func TestWorstCaseCyclesBoundsWalk(t *testing.T) {
	rs := classbench.Generate(classbench.IPC1(), 500, 41)
	for _, algo := range []Algorithm{HiCuts, HyperCuts} {
		tr := buildOrDie(t, rs, DefaultConfig(algo))
		worst := tr.WorstCaseCycles()
		if worst < 2 {
			t.Fatalf("%v worst case %d; minimum is root+leaf = 2", algo, worst)
		}
		for _, p := range classbench.GenerateTrace(rs, 3000, 42) {
			if c := tr.Walk(p).Cycles(); c > worst {
				t.Fatalf("%v: packet cycles %d exceed worst case %d", algo, c, worst)
			}
		}
	}
}

func TestTinyRulesetGetsInternalRoot(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 5, 43)
	tr := buildOrDie(t, rs, DefaultConfig(HiCuts))
	if tr.Root.Leaf {
		t.Fatal("root must be internal (register A holds an internal node)")
	}
	for _, p := range classbench.GenerateTrace(rs, 500, 44) {
		if got, want := tr.Classify(p), rs.Match(p); got != want {
			t.Fatalf("tiny set: tree=%d linear=%d", got, want)
		}
	}
	if tr.WorstCaseCycles() < 2 {
		t.Errorf("tiny set worst case %d", tr.WorstCaseCycles())
	}
}

func TestStartCuts2Ablation(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 400, 45)
	cfg := DefaultConfig(HiCuts)
	cfg.StartCuts = 2
	tr := buildOrDie(t, rs, cfg)
	for _, p := range classbench.GenerateTrace(rs, 1000, 46) {
		if got, want := tr.Classify(p), rs.Match(p); got != want {
			t.Fatalf("StartCuts=2: tree=%d linear=%d", got, want)
		}
	}
	// Starting at 2 must do more cut evaluations per node on average
	// than starting at 32 (that is the point of the modification).
	tr32 := buildOrDie(t, rs, DefaultConfig(HiCuts))
	ev2 := float64(tr.Stats().CutEvaluations) / float64(tr.Stats().Internal+1)
	ev32 := float64(tr32.Stats().CutEvaluations) / float64(tr32.Stats().Internal+1)
	if ev2 <= ev32 {
		t.Logf("note: start=2 evals/node %.1f vs start=32 %.1f", ev2, ev32)
	}
}

func TestMemoryGrowsWithRules(t *testing.T) {
	sizes := []int{60, 500, 2000}
	prev := 0
	for _, n := range sizes {
		rs := classbench.Generate(classbench.ACL1(), n, 47)
		tr := buildOrDie(t, rs, DefaultConfig(HyperCuts))
		if tr.MemoryBytes() < prev {
			t.Errorf("memory shrank from %d to %d at %d rules", prev, tr.MemoryBytes(), n)
		}
		prev = tr.MemoryBytes()
	}
}

func TestChildIndexWithinBounds(t *testing.T) {
	rs := classbench.Generate(classbench.FW1(), 500, 48)
	tr := buildOrDie(t, rs, DefaultConfig(HyperCuts))
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < 5000; i++ {
		p := rule.Packet{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: uint8(rng.Intn(256)),
		}
		n := tr.Root
		for !n.Leaf {
			idx := ChildIndex(n.Cuts, p)
			if idx < 0 || idx >= len(n.Children) {
				t.Fatalf("child index %d out of %d children", idx, len(n.Children))
			}
			n = n.Children[idx]
		}
	}
}

func TestIPCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for m := 0; m <= 32; m++ {
		for trial := 0; trial < 50; trial++ {
			pr := rule.PrefixRange(rng.Uint32(), m, 32)
			addr, code, err := encodeIP(pr)
			if err != nil {
				t.Fatalf("/%d: %v", m, err)
			}
			if got := decodeIPLen(addr, code); got != m {
				t.Fatalf("/%d decoded as /%d", m, got)
			}
			// Membership must be preserved.
			inside := pr.Lo + uint32(rng.Int63n(int64(pr.Size())))
			if !prefixMatch(inside, addr, code) {
				t.Fatalf("/%d: inside value %#x rejected", m, inside)
			}
			if m > 0 {
				outside := pr.Lo ^ (uint32(1) << uint(32-m)) // flip last prefix bit
				if prefixMatch(outside, addr, code) {
					t.Fatalf("/%d: outside value %#x accepted", m, outside)
				}
			}
		}
	}
}

func TestEncodedRuleMatchesPacketProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := func(sip, dip uint32, sp, dp uint16, proto uint8) bool {
		r := randomEncodableRule(rng, int(rng.Int31n(1000)))
		er, err := EncodeRule(&r)
		if err != nil {
			return false
		}
		p := rule.Packet{SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp, Proto: proto}
		return er.MatchesPacket(p) == r.Matches(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRuleStoreLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	w := make([]byte, WordBytes)
	for pos := 0; pos < RulesPerWord; pos++ {
		r := randomEncodableRule(rng, pos*7+1)
		er, err := EncodeRule(&r)
		if err != nil {
			t.Fatal(err)
		}
		er.End = pos%3 == 0
		er.store(w, pos)
		got := LoadRule(w, pos)
		if got != er {
			t.Fatalf("slot %d: %+v != %+v", pos, got, er)
		}
	}
	// Re-read all slots to check neighbours did not clobber each other.
	for pos := 0; pos < RulesPerWord; pos++ {
		got := LoadRule(w, pos)
		if got.ID == 0 && pos != 0 {
			continue
		}
		if got.ID == SentinelID {
			t.Fatalf("slot %d became sentinel", pos)
		}
	}
}

func TestEncodeRejectsNonPrefixIP(t *testing.T) {
	r := rule.Rule{ID: 1}
	r.F[rule.DimSrcIP] = rule.Range{Lo: 5, Hi: 6} // not a prefix
	r.F[rule.DimDstIP] = rule.FullRange(rule.DimDstIP)
	r.F[rule.DimSrcPort] = rule.FullRange(rule.DimSrcPort)
	r.F[rule.DimDstPort] = rule.FullRange(rule.DimDstPort)
	r.F[rule.DimProto] = rule.FullRange(rule.DimProto)
	if _, err := EncodeRule(&r); err == nil {
		t.Error("non-prefix source IP accepted")
	}
	r.F[rule.DimSrcIP] = rule.FullRange(rule.DimSrcIP)
	r.F[rule.DimProto] = rule.Range{Lo: 5, Hi: 9}
	if _, err := EncodeRule(&r); err == nil {
		t.Error("range protocol accepted")
	}
}

func TestEncodeImageAndInterpret(t *testing.T) {
	// Decode-level interpreter: classify packets by walking the encoded
	// image words exactly as the accelerator datapath would.
	rs := classbench.Generate(classbench.ACL1(), 400, 53)
	for _, speed := range []int{0, 1} {
		cfg := DefaultConfig(HyperCuts)
		cfg.Speed = speed
		tr := buildOrDie(t, rs, cfg)
		img, err := tr.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if len(img.Words) != tr.Words() {
			t.Fatalf("image has %d words, tree says %d", len(img.Words), tr.Words())
		}
		for i, p := range classbench.GenerateTrace(rs, 2000, 54) {
			got := interpretImage(img, p)
			want := tr.Classify(p)
			if got != want {
				t.Fatalf("speed %d packet %d: image=%d tree=%d", speed, i, got, want)
			}
		}
	}
}

// interpretImage walks the encoded memory image like the hardware: load
// node word, mask/shift/add, follow entries to a leaf, scan rule slots.
func interpretImage(img *Image, p rule.Packet) int {
	word := 0
	for hop := 0; hop < 100; hop++ {
		w := img.Words[word]
		nw := LoadNode(w)
		entry := LoadEntry(w, nw.Index(p))
		if !entry.IsLeaf {
			word = entry.Word
			continue
		}
		lw, pos := entry.Word, entry.Pos
		for {
			er := LoadRule(img.Words[lw], pos)
			if er.MatchesPacket(p) {
				return int(er.ID)
			}
			if er.End {
				return -1
			}
			pos++
			if pos == RulesPerWord {
				pos = 0
				lw++
			}
		}
	}
	return -2 // cycle in image
}

func TestLeafPointersCannotEncode(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 100, 55)
	cfg := DefaultConfig(HiCuts)
	cfg.LeafPointers = true
	tr := buildOrDie(t, rs, cfg)
	if _, err := tr.Encode(); err == nil {
		t.Error("LeafPointers tree encoded; expected analytical-only error")
	}
}

// TestDeterministicBuild: two default builds of one ruleset are the same
// tree, structurally, for both algorithms and both speeds.
func TestDeterministicBuild(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 300, 56)
	for _, algo := range []Algorithm{HiCuts, HyperCuts} {
		for _, speed := range []int{0, 1} {
			cfg := DefaultConfig(algo)
			cfg.Speed = speed
			a, b := buildOrDie(t, rs, cfg), buildOrDie(t, rs, cfg)
			ctx := algo.String() + " speed=" + strconv.Itoa(speed)
			if a.Stats() != b.Stats() || a.Words() != b.Words() {
				t.Errorf("%s: nondeterministic build", ctx)
			}
			assertSameLayout(t, ctx, a, b)
		}
	}
}

// assertSameLayout compares two trees structurally: breadth-first node
// layout, cut headers, child references, leaf packing and rule lists.
func assertSameLayout(t *testing.T, ctx string, a, b *Tree) {
	t.Helper()
	si, pi := a.Internals(), b.Internals()
	if len(si) != len(pi) {
		t.Errorf("%s: internal count %d != %d", ctx, len(si), len(pi))
		return
	}
	for w := range si {
		x, y := si[w], pi[w]
		if x.Word != y.Word || len(x.Cuts) != len(y.Cuts) || len(x.Children) != len(y.Children) {
			t.Errorf("%s: internal %d shape differs", ctx, w)
			return
		}
		for i := range x.Cuts {
			if x.Cuts[i] != y.Cuts[i] {
				t.Errorf("%s: internal %d cut %d: %+v != %+v", ctx, w, i, x.Cuts[i], y.Cuts[i])
				return
			}
		}
		for i := range x.Children {
			if !sameChildRef(x.Children[i], y.Children[i]) {
				t.Errorf("%s: internal %d child %d differs", ctx, w, i)
				return
			}
		}
	}
	sl, pl := a.Leaves(), b.Leaves()
	if len(sl) != len(pl) {
		t.Errorf("%s: leaf count %d != %d", ctx, len(sl), len(pl))
		return
	}
	for i := range sl {
		x, y := sl[i], pl[i]
		if x.Word != y.Word || x.Pos != y.Pos {
			t.Errorf("%s: leaf %d placed at %d.%d vs %d.%d", ctx, i, x.Word, x.Pos, y.Word, y.Pos)
			return
		}
		if len(x.Rules) != len(y.Rules) {
			t.Errorf("%s: leaf %d rule count %d != %d", ctx, i, len(x.Rules), len(y.Rules))
			return
		}
		for j := range x.Rules {
			if x.Rules[j] != y.Rules[j] {
				t.Errorf("%s: leaf %d rule %d: %d != %d", ctx, i, j, x.Rules[j], y.Rules[j])
				return
			}
		}
	}
}

// sameChildRef compares child slots structurally: both nil, both the
// leaf with identical layout position, or both the internal node with the
// same word number (subtree contents are covered by the per-word loop).
func sameChildRef(a, b *Node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Leaf != b.Leaf {
		return false
	}
	return a.Word == b.Word && a.Pos == b.Pos
}

func TestBitsHelpers(t *testing.T) {
	w := make([]byte, 8)
	setBits(w, 3, 12, 0xABC)
	if got := getBits(w, 3, 12); got != 0xABC {
		t.Fatalf("getBits = %#x", got)
	}
	setBits(w, 3, 12, 0x123)
	if got := getBits(w, 3, 12); got != 0x123 {
		t.Fatalf("overwrite failed: %#x", got)
	}
	setBits(w, 0, 3, 0x7)
	if got := getBits(w, 3, 12); got != 0x123 {
		t.Fatalf("neighbour write clobbered: %#x", got)
	}
}

func TestRuleIDOverflowRejected(t *testing.T) {
	rs := make(rule.RuleSet, 1)
	rs[0] = rule.New(SentinelID, 0, 0, 0, 0, rule.FullRange(rule.DimSrcPort), rule.FullRange(rule.DimDstPort), 0, true)
	if _, err := EncodeRule(&rs[0]); err == nil {
		t.Error("rule ID 0xFFFF accepted; it is the sentinel")
	}
}

func randomEncodableRule(rng *rand.Rand, id int) rule.Rule {
	lo := uint32(rng.Intn(65536))
	hi := lo + uint32(rng.Intn(int(65536-lo)))
	lo2 := uint32(rng.Intn(65536))
	hi2 := lo2 + uint32(rng.Intn(int(65536-lo2)))
	return rule.New(id, rng.Uint32(), rng.Intn(33), rng.Uint32(), rng.Intn(33),
		rule.Range{Lo: lo, Hi: hi}, rule.Range{Lo: lo2, Hi: hi2},
		uint8(rng.Intn(256)), rng.Intn(2) == 0)
}

func TestEmptyRulesetEndToEnd(t *testing.T) {
	tr, err := Build(nil, DefaultConfig(HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Leaf {
		t.Fatal("root must be internal even for the empty set")
	}
	img, err := tr.Encode()
	if err != nil {
		t.Fatalf("empty set not encodable: %v", err)
	}
	if got := interpretImage(img, rule.Packet{SrcIP: 123}); got != -1 {
		t.Errorf("empty set matched %d", got)
	}
	if tr.WorstCaseCycles() != 2 {
		t.Errorf("empty set worst case %d, want 2 (root + sentinel word)", tr.WorstCaseCycles())
	}
}

func TestLeafExactlyAtWordBoundary(t *testing.T) {
	// A leaf holding exactly 30 rules must occupy one word and cost one
	// leaf cycle; 31 rules must spill to a second word.
	for _, n := range []int{RulesPerWord, RulesPerWord + 1} {
		rs := make(rule.RuleSet, 0, n)
		for i := 0; i < n; i++ {
			// All rules overlap (same block, adjacent exact ports) so no
			// cut separates them fully and they form big leaves.
			rs = append(rs, rule.New(i, 0x0A000000, 8, 0x0B000000, 8,
				rule.Range{Lo: uint32(i), Hi: uint32(i)}, rule.FullRange(rule.DimDstPort), 6, false))
		}
		cfg := DefaultConfig(HiCuts)
		cfg.Binth = n // force a single leaf under the synthesized root
		tr, err := Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		// Probe the last rule: it sits at slot n-1.
		p := rule.Packet{SrcIP: 0x0A000001, DstIP: 0x0B000001, SrcPort: uint16(n - 1), Proto: 6}
		if got := interpretImage(img, p); got != n-1 {
			t.Fatalf("n=%d: got %d, want %d", n, got, n-1)
		}
		wantWords := (n + RulesPerWord - 1) / RulesPerWord
		maxLeafWords := 0
		for _, l := range tr.Leaves() {
			if w := LeafWords(l); w > maxLeafWords {
				maxLeafWords = w
			}
		}
		if maxLeafWords != wantWords {
			t.Errorf("n=%d: leaf spans %d words, want %d", n, maxLeafWords, wantWords)
		}
	}
}
