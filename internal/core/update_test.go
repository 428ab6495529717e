package core

import (
	"testing"

	"repro/internal/classbench"
	"repro/internal/rule"
)

func TestInsertThenClassify(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 300, 110)
	tr, err := Build(rs, DefaultConfig(HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	// Insert 50 additional rules one at a time.
	extra := classbench.Generate(classbench.IPC1(), 50, 111)
	full := append(append(rule.RuleSet{}, rs...), rule.RuleSet{}...)
	for i := range extra {
		r := extra[i]
		r.ID = len(full)
		if _, err := tr.InsertDelta(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		full = append(full, r)
	}
	trace := classbench.GenerateTrace(full, 4000, 112)
	for i, p := range trace {
		if got, want := tr.Classify(p), full.Match(p); got != want {
			t.Fatalf("packet %d after inserts: tree=%d linear=%d", i, got, want)
		}
	}
	// The updated tree must re-encode and simulate correctly.
	img, err := tr.Encode()
	if err != nil {
		t.Fatalf("encode after insert: %v", err)
	}
	for i, p := range trace[:500] {
		if got, want := interpretImage(img, p), full.Match(p); got != want {
			t.Fatalf("image packet %d after inserts: %d vs %d", i, got, want)
		}
	}
}

func TestInsertRejectsBadID(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 50, 113)
	tr, err := Build(rs, DefaultConfig(HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	r := rule.New(7, 0, 0, 0, 0, rule.FullRange(rule.DimSrcPort), rule.FullRange(rule.DimDstPort), 0, true)
	if _, err := tr.InsertDelta(r); err == nil {
		t.Error("insert with non-appending ID accepted")
	}
	bad := rule.New(50, 0, 0, 0, 0, rule.Range{Lo: 9, Hi: 1}, rule.FullRange(rule.DimDstPort), 0, true)
	if _, err := tr.InsertDelta(bad); err == nil {
		t.Error("insert with inverted range accepted")
	}
}

func TestInsertWildcardReachesEveryPath(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 200, 114)
	tr, err := Build(rs, DefaultConfig(HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	wild := rule.New(len(rs), 0, 0, 0, 0,
		rule.FullRange(rule.DimSrcPort), rule.FullRange(rule.DimDstPort), 0, true)
	if _, err := tr.InsertDelta(wild); err != nil {
		t.Fatal(err)
	}
	// Any packet that misses all original rules must now hit the
	// wildcard.
	p := rule.Packet{SrcIP: 0xFEFEFEFE, DstIP: 0x01010101, SrcPort: 60123, DstPort: 60321, Proto: 201}
	if rs.Match(p) == -1 {
		if got := tr.Classify(p); got != len(rs) {
			t.Errorf("wildcard not found: got %d want %d", got, len(rs))
		}
	}
}

func TestDeleteRule(t *testing.T) {
	rs := classbench.Generate(classbench.FW1(), 250, 115)
	tr, err := Build(rs, DefaultConfig(HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	victim := 3
	if _, err := tr.DeleteDelta(victim); err != nil {
		t.Fatal(err)
	}
	// Build the expected semantics: same set minus the victim.
	expect := func(p rule.Packet) int {
		for i := range rs {
			if i == victim {
				continue
			}
			if rs[i].Matches(p) {
				return i
			}
		}
		return -1
	}
	for i, p := range classbench.GenerateTrace(rs, 4000, 116) {
		if got, want := tr.Classify(p), expect(p); got != want {
			t.Fatalf("packet %d after delete: tree=%d want=%d", i, got, want)
		}
	}
	if _, err := tr.DeleteDelta(999); err == nil {
		t.Error("delete of unknown rule accepted")
	}
}

func TestDeleteThenEncode(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 150, 117)
	tr, err := Build(rs, DefaultConfig(HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 10, 20} {
		if _, err := tr.DeleteDelta(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Encode(); err != nil {
		t.Fatalf("encode after delete: %v", err)
	}
}

func TestDegradationGrowsWithInserts(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 400, 118)
	tr, err := Build(rs, DefaultConfig(HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Degradation()
	// Many broad inserts inflate leaves.
	for i := 0; i < 60; i++ {
		r := rule.New(len(rs)+i, 0, 0, 0, 0,
			rule.Range{Lo: uint32(i), Hi: 65535}, rule.FullRange(rule.DimDstPort), 0, true)
		if _, err := tr.InsertDelta(r); err != nil {
			t.Fatal(err)
		}
	}
	after := tr.Degradation()
	if after < before {
		t.Errorf("degradation fell from %.3f to %.3f after broad inserts", before, after)
	}
}

func TestInsertUnsharesLeaves(t *testing.T) {
	// Regression: a rule overlapping one region of a deduplicated leaf
	// must not appear in the other regions sharing that leaf.
	rs := classbench.Generate(classbench.ACL1(), 300, 119)
	tr, err := Build(rs, DefaultConfig(HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	// Insert a narrow rule (single host, single port).
	narrow := rule.New(len(rs), 0x0A0B0C0D, 32, 0x01020304, 32,
		rule.Range{Lo: 7, Hi: 7}, rule.Range{Lo: 9, Hi: 9}, 6, false)
	if _, err := tr.InsertDelta(narrow); err != nil {
		t.Fatal(err)
	}
	full := append(append(rule.RuleSet{}, rs...), narrow)
	hit := rule.Packet{SrcIP: 0x0A0B0C0D, DstIP: 0x01020304, SrcPort: 7, DstPort: 9, Proto: 6}
	if got := tr.Classify(hit); got != full.Match(hit) {
		t.Errorf("narrow insert not found: %d vs %d", got, full.Match(hit))
	}
	for i, p := range classbench.GenerateTrace(full, 3000, 120) {
		if got, want := tr.Classify(p), full.Match(p); got != want {
			t.Fatalf("packet %d: %d vs %d", i, got, want)
		}
	}
}
