package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/classbench"
	"repro/internal/rule"
)

// Micro-benchmarks for the datapath primitives; these are Go-level costs
// of the simulator (the modelled hardware costs are fixed by the clock).

func BenchmarkChildIndex(b *testing.B) {
	var prefixLen [rule.NumDims]int
	cuts := makeCuts([]int{rule.DimSrcIP, rule.DimDstIP}, []int{4, 4}, prefixLen)
	p := rule.Packet{SrcIP: 0xC0A80101, DstIP: 0x0A0B0C0D, SrcPort: 80, DstPort: 443, Proto: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if idx := ChildIndex(cuts, p); idx < 0 {
			b.Fatal("negative index")
		}
	}
}

func BenchmarkEncodeRule(b *testing.B) {
	r := rule.New(7, 0x0A000000, 8, 0xC0A80000, 16,
		rule.Range{Lo: 1024, Hi: 65535}, rule.Range{Lo: 80, Hi: 80}, 6, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeRule(&r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadRule(b *testing.B) {
	r := rule.New(7, 0x0A000000, 8, 0xC0A80000, 16,
		rule.Range{Lo: 1024, Hi: 65535}, rule.Range{Lo: 80, Hi: 80}, 6, false)
	er, err := EncodeRule(&r)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]byte, WordBytes)
	er.store(w, 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := LoadRule(w, 13); got.ID != 7 {
			b.Fatal("corrupt load")
		}
	}
}

func BenchmarkMatchesPacket(b *testing.B) {
	r := rule.New(7, 0x0A000000, 8, 0xC0A80000, 16,
		rule.Range{Lo: 1024, Hi: 65535}, rule.Range{Lo: 80, Hi: 80}, 6, false)
	er, err := EncodeRule(&r)
	if err != nil {
		b.Fatal(err)
	}
	p := rule.Packet{SrcIP: 0x0A010203, DstIP: 0xC0A80505, SrcPort: 2000, DstPort: 80, Proto: 6}
	for i := 0; i < b.N; i++ {
		if !er.MatchesPacket(p) {
			b.Fatal("should match")
		}
	}
}

func BenchmarkBuildHiCuts1000(b *testing.B) {
	rs := classbench.Generate(classbench.ACL1(), 1000, 2008)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(rs, DefaultConfig(HiCuts)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHyperCuts1000(b *testing.B) {
	rs := classbench.Generate(classbench.ACL1(), 1000, 2008)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(rs, DefaultConfig(HyperCuts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild times the default HyperCuts build on the rulesets the
// benchmark's workloads load: fw1@2500 (fw2k5-nocache), acl1@10k (the
// acl10k workloads) and acl1@2191 (acl2k-hwmodel).
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		prof func() classbench.Profile
		name string
		n    int
	}{
		{classbench.FW1, "fw1", 2500},
		{classbench.ACL1, "acl1", 10000},
		{classbench.ACL1, "acl1", 2191},
	} {
		rs := classbench.Generate(c.prof(), c.n, 2008)
		b.Run(fmt.Sprintf("%s@%d", c.name, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(rs, DefaultConfig(HyperCuts)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTreeClassify(b *testing.B) {
	rs := classbench.Generate(classbench.ACL1(), 1000, 2008)
	tr, err := Build(rs, DefaultConfig(HyperCuts))
	if err != nil {
		b.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, 1024, 2009)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Classify(trace[i&1023])
	}
}

func TestSummarizeAndDescribe(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 600, 140)
	tr, err := Build(rs, DefaultConfig(HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Summarize()
	if st.Rules != 600 || st.Words != tr.Words() || st.WorstCycles != tr.WorstCaseCycles() {
		t.Errorf("summary inconsistent: %+v", st)
	}
	if st.Replication < 1.0 {
		t.Errorf("replication %.2f < 1", st.Replication)
	}
	if st.LeafRuleSlots < st.Rules {
		t.Errorf("leaf slots %d < rules %d", st.LeafRuleSlots, st.Rules)
	}
	desc := tr.Describe()
	if len(desc) == 0 || desc[len(desc)-1] != '\n' {
		t.Error("Describe output malformed")
	}
	for _, want := range []string{"HyperCuts", "internal nodes", "fan-out", "cut dimensions"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}
