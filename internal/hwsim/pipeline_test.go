package hwsim

import (
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
)

func TestPipelinedAgreesWithFunctionalModel(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		for _, prof := range []classbench.Profile{classbench.ACL1(), classbench.FW1()} {
			sim, _, rs := buildSim(t, algo, prof, 400, 1, ASIC)
			trace := classbench.GenerateTrace(rs, 4000, 131)

			funcMatches, funcStats := sim.Run(trace)
			fsmMatches, fsmStats, err := sim.RunPipelined(trace)
			if err != nil {
				t.Fatalf("%v/%s: %v", algo, prof.Name, err)
			}
			for i := range funcMatches {
				if funcMatches[i] != fsmMatches[i] {
					t.Fatalf("%v/%s packet %d: functional=%d fsm=%d",
						algo, prof.Name, i, funcMatches[i], fsmMatches[i])
				}
			}
			if funcStats.Cycles != fsmStats.Cycles {
				t.Fatalf("%v/%s: functional %d cycles, cycle-stepped FSM %d cycles",
					algo, prof.Name, funcStats.Cycles, fsmStats.Cycles)
			}
			if funcStats.MemReads != fsmStats.MemReads {
				t.Fatalf("%v/%s: memory reads differ: %d vs %d",
					algo, prof.Name, funcStats.MemReads, fsmStats.MemReads)
			}
		}
	}
}

func TestPipelinedOnePacketPerCycle(t *testing.T) {
	// Root->single-word-leaf structure: the FSM must sustain exactly one
	// packet per clock, the paper's §4 headline behaviour.
	rs := classbench.Generate(classbench.ACL1(), 10, 132)
	tr, err := core.Build(rs, core.DefaultConfig(core.HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	if tr.WorstCaseCycles() != 2 {
		t.Skipf("worst case %d, need 2", tr.WorstCaseCycles())
	}
	img, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(img, ASIC)
	if err != nil {
		t.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, 3000, 133)
	_, st, err := sim.RunPipelined(trace)
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgCyclesPerPacket > 1.001 {
		t.Errorf("FSM sustained %.4f cycles/packet; want 1.0", st.AvgCyclesPerPacket)
	}
}

func TestFSMReadyProtocol(t *testing.T) {
	sim, _, rs := buildSim(t, core.HyperCuts, classbench.ACL1(), 200, 1, ASIC)
	trace := classbench.GenerateTrace(rs, 200, 134)
	f := NewFSM(sim)

	// Cycle 1 is reset: no packet may be consumed.
	if f.Step(true, trace[0]) {
		t.Fatal("packet consumed during reset cycle")
	}
	if !f.Ready() {
		t.Fatal("Ready must rise after reset")
	}
	next := 0
	for steps := 0; next < len(trace) && steps < 100000; steps++ {
		wasReady := f.Ready()
		consumed := f.Step(true, trace[next])
		if consumed {
			next++
		}
		// A packet can only be consumed on a cycle where the FSM either
		// advertised Ready beforehand or raised it while entering a leaf
		// this very cycle (the paper's same-cycle Start sampling).
		if consumed && !wasReady && f.Ready() {
			t.Fatal("impossible pin combination")
		}
	}
	if next != len(trace) {
		t.Fatalf("only %d of %d packets consumed", next, len(trace))
	}
}

func TestFSMLatencyMatchesClassifyOne(t *testing.T) {
	// With one packet in flight at a time (Start only when idle), the
	// FSM's per-packet latency equals ClassifyOne's.
	sim, _, rs := buildSim(t, core.HiCuts, classbench.IPC1(), 300, 1, ASIC)
	trace := classbench.GenerateTrace(rs, 300, 135)
	for _, p := range trace {
		f := NewFSM(sim)
		f.Step(false, p) // reset
		if !f.Step(true, p) {
			t.Fatal("packet not consumed at Ready")
		}
		accept := f.Cycles()
		for len(f.Results()) == 0 {
			f.Step(false, p)
			if f.Cycles() > 10000 {
				t.Fatal("no completion")
			}
		}
		lat := int(f.Results()[0].FinishCycle - accept + 1)
		want := sim.ClassifyOne(p)
		if lat != want.LatencyCycles {
			t.Fatalf("FSM latency %d, ClassifyOne %d", lat, want.LatencyCycles)
		}
		if f.Results()[0].Match != want.Match {
			t.Fatalf("FSM match %d, ClassifyOne %d", f.Results()[0].Match, want.Match)
		}
	}
}

func TestFSMIdleWithoutStart(t *testing.T) {
	sim, _, _ := buildSim(t, core.HiCuts, classbench.ACL1(), 100, 1, ASIC)
	f := NewFSM(sim)
	for i := 0; i < 50; i++ {
		if f.Step(false, rulePacketZero) {
			t.Fatal("consumed a packet with Start low")
		}
	}
	if f.MemReads() != 0 {
		t.Errorf("idle FSM performed %d memory reads", f.MemReads())
	}
	if !f.Ready() {
		t.Error("idle FSM should stay Ready")
	}
}

var rulePacketZero = classbench.GenerateTrace(nil, 1, 1)[0]

// The default binth leaves the test structures one level deep (root ->
// leaf). A small binth forces internal-node words below the root, so the
// traversal loop of ClassifyOne and the FSM's internal-word cycle are
// exercised too: per-packet latency must still equal the Eq. 5/7 walk
// and the two models must still agree on every statistic.
func TestDeepTreeTraversal(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		rs := classbench.Generate(classbench.FW1(), 400, 141)
		cfg := core.DefaultConfig(algo)
		cfg.Binth = 8
		tr, err := core.Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(img, FPGALarge)
		if err != nil {
			t.Fatal(err)
		}
		trace := classbench.GenerateTrace(rs, 3000, 142)
		deepest := 0
		for i, p := range trace {
			r, pi := sim.ClassifyOne(p), tr.Walk(p)
			if r.Match != pi.Match || r.LatencyCycles != pi.Cycles() {
				t.Fatalf("%v packet %d: sim (%d, %d cycles), walk (%d, %d cycles)",
					algo, i, r.Match, r.LatencyCycles, pi.Match, pi.Cycles())
			}
			deepest = max(deepest, pi.Internal)
		}
		if deepest < 2 {
			t.Fatalf("%v: binth 8 still gave a one-level tree; the case tests nothing", algo)
		}
		_, funcStats := sim.Run(trace)
		_, fsmStats, err := sim.RunPipelined(trace)
		if err != nil {
			t.Fatal(err)
		}
		if funcStats != fsmStats {
			t.Fatalf("%v: functional %+v, cycle-stepped FSM %+v", algo, funcStats, fsmStats)
		}
	}
}
