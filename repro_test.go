package repro

import "testing"

func TestFacadeEndToEnd(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Config.Algorithm's documented zero value; HyperCuts must be named.
	if got := (Config{}).Algorithm; got != HiCuts {
		t.Errorf("Config{}.Algorithm = %v, want HiCuts", got)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewSoftwareBaseline("linear", rs)
	if err != nil {
		t.Fatal(err)
	}
	trace := GenerateTrace(rs, 2000, 6)
	for i, p := range trace {
		if got, want := acc.Classify(p), lin.Classify(p); got != want {
			t.Fatalf("packet %d: accelerator=%d linear=%d", i, got, want)
		}
	}
	if acc.MemoryBytes() != acc.Words()*600 {
		t.Error("memory accounting inconsistent")
	}
	if acc.WorstCaseCycles() < 2 {
		t.Error("worst case below minimum")
	}
	if acc.GuaranteedPPS() <= 0 {
		t.Error("no guaranteed throughput")
	}
	if acc.DeviceName() == "" {
		t.Error("no device name")
	}
	m, lat, reads := acc.ClassifyDetailed(trace[0])
	if lat != reads+1 {
		t.Errorf("latency %d != reads %d + 1", lat, reads)
	}
	if m != lin.Classify(trace[0]) {
		t.Errorf("detailed match mismatch")
	}
}

func TestFacadeTargets(t *testing.T) {
	rs, err := GenerateRuleset("ipc1", 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	asic, err := BuildAccelerator(rs, Config{Target: TargetASIC})
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := BuildAccelerator(rs, Config{Target: TargetFPGA})
	if err != nil {
		t.Fatal(err)
	}
	trace := GenerateTrace(rs, 1000, 8)
	_, stA := asic.Run(trace)
	_, stF := fpga.Run(trace)
	if stA.PacketsPerSecond <= stF.PacketsPerSecond {
		t.Errorf("ASIC (%.0f pps) should outrun FPGA (%.0f pps)", stA.PacketsPerSecond, stF.PacketsPerSecond)
	}
}

func TestFacadeBaselines(t *testing.T) {
	rs, err := GenerateRuleset("fw1", 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	trace := GenerateTrace(rs, 1500, 10)
	for _, kind := range []string{"hicuts", "hypercuts", "linear"} {
		bl, err := NewSoftwareBaseline(kind, rs)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if bl.Name() != kind {
			t.Errorf("Name = %q", bl.Name())
		}
		st := bl.Measure(trace)
		if st.PacketsPerSecond <= 0 || st.EnergyPerPacketJ <= 0 {
			t.Errorf("%s: empty stats", kind)
		}
	}
	if _, err := NewSoftwareBaseline("nope", rs); err == nil {
		t.Error("unknown baseline accepted")
	}
	if _, err := GenerateRuleset("nope", 10, 1); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestFacadeSpeedKnob(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := BuildAccelerator(rs, Config{Algorithm: HiCuts})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := BuildAccelerator(rs, Config{Algorithm: HiCuts, CompactLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if compact.Words() > fast.Words() {
		t.Errorf("speed 0 (%d words) must not exceed speed 1 (%d words)", compact.Words(), fast.Words())
	}
}

func TestFacadeSoftwareEngine(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts})
	if err != nil {
		t.Fatal(err)
	}
	eng := acc.SoftwareEngine()
	if eng.MemoryBytes() <= 0 {
		t.Error("engine footprint not positive")
	}
	trace := GenerateTrace(rs, 2000, 8)
	out := make([]int32, len(trace))
	eng.ClassifyBatch(trace, out)
	par := make([]int32, len(trace))
	acc.handle.ClassifySharded(trace, par, 4, func(k, lo, hi int) {})
	for i, p := range trace {
		want := acc.Classify(p)
		if got := eng.Classify(p); got != want {
			t.Fatalf("pkt %d: engine=%d accelerator=%d", i, got, want)
		}
		if int(out[i]) != want || int(par[i]) != want {
			t.Fatalf("pkt %d: batch=%d sharded=%d accelerator=%d", i, out[i], par[i], want)
		}
	}
}
