package bench

import (
	"fmt"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/hwsim"
	"repro/internal/sa1100"
)

// AblationResult quantifies the design decisions of paper §3/§4 on one
// ruleset (DESIGN.md §5): each row is one decision with the two variants'
// costs.
type AblationResult struct {
	N int

	// Start32 vs Start2: modelled SA-1100 build cycles and memory words.
	Start32BuildCycles, Start2BuildCycles int64
	Start32Words, Start2Words             int

	// Speed 1 vs Speed 0: words and measured average cycles/packet.
	Speed1Words, Speed0Words int
	Speed1Cyc, Speed0Cyc     float64

	// Rules-in-leaf vs pointer leaves: worst-case cycles and memory.
	RulesLeafWorst, PtrLeafWorst int
	RulesLeafWords, PtrLeafWords int

	// Pipelining: cycles/packet with the root-overlap (measured) and
	// without (sum of unpipelined latencies).
	OverlapCyc, NoOverlapCyc float64
}

// RunAblations measures all four ablations on an acl1 ruleset of size n.
func RunAblations(opts Options, n int) (AblationResult, error) {
	opts.sanitize()
	res := AblationResult{N: n}
	rs := classbench.Generate(classbench.ACL1(), n, opts.Seed)
	trace := classbench.GenerateTrace(rs, opts.TracePackets, opts.Seed+1)

	build := func(cfg core.Config) (*core.Tree, error) {
		tr, err := core.Build(rs, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation n=%d: %w", n, err)
		}
		return tr, nil
	}
	cycles := func(t *core.Tree) int64 {
		s := t.Stats()
		return sa1100.BuildCycles(sa1100.BuildWork{
			CutEvaluations: s.CutEvaluations, RuleChildOps: s.RuleChildOps,
			RulePushes: s.RulePushes, Nodes: s.Nodes, Rules: n,
		})
	}

	// Cut starting point.
	t32, err := build(core.DefaultConfig(core.HiCuts))
	if err != nil {
		return res, err
	}
	cfg2 := core.DefaultConfig(core.HiCuts)
	cfg2.StartCuts = 2
	t2, err := build(cfg2)
	if err != nil {
		return res, err
	}
	res.Start32BuildCycles, res.Start2BuildCycles = cycles(t32), cycles(t2)
	res.Start32Words, res.Start2Words = t32.Words(), t2.Words()

	// Speed parameter.
	for _, speed := range []int{0, 1} {
		cfg := core.DefaultConfig(core.HyperCuts)
		cfg.Speed = speed
		tr, err := build(cfg)
		if err != nil {
			return res, err
		}
		img, err := tr.Encode()
		if err != nil {
			return res, err
		}
		sim, err := hwsim.New(img, hwsim.ASIC)
		if err != nil {
			return res, err
		}
		_, st := sim.Run(trace)
		if speed == 0 {
			res.Speed0Words, res.Speed0Cyc = tr.Words(), st.AvgCyclesPerPacket
		} else {
			res.Speed1Words, res.Speed1Cyc = tr.Words(), st.AvgCyclesPerPacket
		}
	}

	// Rules-in-leaf vs pointers.
	tr, err := build(core.DefaultConfig(core.HyperCuts))
	if err != nil {
		return res, err
	}
	cfgP := core.DefaultConfig(core.HyperCuts)
	cfgP.LeafPointers = true
	tp, err := build(cfgP)
	if err != nil {
		return res, err
	}
	res.RulesLeafWorst, res.PtrLeafWorst = tr.WorstCaseCycles(), tp.WorstCaseCycles()
	res.RulesLeafWords, res.PtrLeafWords = tr.Words(), tp.Words()

	// Pipelining overlap.
	img, err := tr.Encode()
	if err != nil {
		return res, err
	}
	sim, err := hwsim.New(img, hwsim.ASIC)
	if err != nil {
		return res, err
	}
	_, st := sim.Run(trace)
	res.OverlapCyc = st.AvgCyclesPerPacket
	var latSum int64
	for _, p := range trace {
		latSum += int64(sim.ClassifyOne(p).LatencyCycles)
	}
	res.NoOverlapCyc = float64(latSum) / float64(len(trace))
	return res, nil
}

// AblationTable renders the ablation comparison.
func AblationTable(r AblationResult) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablations of the paper's design decisions (acl1, %d rules)", r.N),
		Header: []string{"Decision", "Paper variant", "Alternative", "Verdict"},
	}
	add := func(decision, chosen, alt, verdict string) {
		t.Rows = append(t.Rows, []string{decision, chosen, alt, verdict})
	}
	add("cut start (build cycles)",
		fmt.Sprintf("start=32: %d", r.Start32BuildCycles),
		fmt.Sprintf("start=2: %d", r.Start2BuildCycles),
		fmt.Sprintf("%.2fx cheaper", float64(r.Start2BuildCycles)/float64(r.Start32BuildCycles)))
	add("cut start (memory words)",
		fmt.Sprintf("start=32: %d", r.Start32Words),
		fmt.Sprintf("start=2: %d", r.Start2Words),
		fmt.Sprintf("%.2fx", float64(r.Start2Words)/float64(r.Start32Words)))
	add("speed parameter (words)",
		fmt.Sprintf("speed=1: %d", r.Speed1Words),
		fmt.Sprintf("speed=0: %d", r.Speed0Words),
		"speed 0 most compact")
	add("speed parameter (cyc/pkt)",
		fmt.Sprintf("speed=1: %.3f", r.Speed1Cyc),
		fmt.Sprintf("speed=0: %.3f", r.Speed0Cyc),
		"speed 1 never slower")
	add("leaf contents (worst cyc)",
		fmt.Sprintf("rules: %d", r.RulesLeafWorst),
		fmt.Sprintf("pointers: %d", r.PtrLeafWorst),
		fmt.Sprintf("+%d cycle(s) for pointers", r.PtrLeafWorst-r.RulesLeafWorst))
	add("leaf contents (words)",
		fmt.Sprintf("rules: %d", r.RulesLeafWords),
		fmt.Sprintf("pointers: %d", r.PtrLeafWords),
		"small memory delta")
	add("root-overlap pipelining (cyc/pkt)",
		fmt.Sprintf("overlap: %.3f", r.OverlapCyc),
		fmt.Sprintf("none: %.3f", r.NoOverlapCyc),
		"one cycle hidden per packet")
	return t
}
