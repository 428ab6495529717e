// Package bench is the experiment harness: it regenerates every table of
// the paper's evaluation (§5, Tables 2-8) plus the headline claims of
// §5.2/§5.3, using the substrates in internal/... . The cmd/pctables
// binary and the repository-level Go benchmarks are thin wrappers around
// this package.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/hicuts"
	"repro/internal/hwsim"
	"repro/internal/hypercuts"
	"repro/internal/rfc"
	"repro/internal/sa1100"
	"repro/internal/tcam"
)

// Options parameterizes an experiment run.
type Options struct {
	// Seed drives ruleset and trace generation (default 2008).
	Seed int64
	// Sizes overrides the acl1 ruleset sizes (default: paper Table 2
	// sizes 60..2191).
	Sizes []int
	// Table4Sizes overrides the Table 4 sizes (default: paper sizes
	// 300..~25k).
	Table4Sizes []int
	// TracePackets is the trace length per measurement (default 20000).
	TracePackets int
	// Binth/Spfac for the software trees (default 16/4) — the hardware
	// trees always use the paper-table defaults (spfac 4, speed 1, binth 120).
	Binth int
	Spfac float64
}

func (o *Options) sanitize() {
	if o.Seed == 0 {
		o.Seed = 2008
	}
	if len(o.Sizes) == 0 {
		o.Sizes = classbench.PaperSizes(2, "acl1")
	}
	if o.TracePackets <= 0 {
		o.TracePackets = 20000
	}
	if o.Binth <= 0 {
		o.Binth = 16
	}
	if o.Spfac <= 0 {
		o.Spfac = 4
	}
}

// ACL1Row is one measurement row over the paper's acl1 ruleset sizes; it
// feeds Tables 2, 3, 6, 7 and 8.
type ACL1Row struct {
	N int

	// Table 2: memory for search structure + ruleset (bytes).
	SWHiCutsMem, SWHyperMem, HWHiCutsMem, HWHyperMem int

	// Table 3: energy to build the search structure (J, normalized).
	SWHiCutsBuildJ, SWHyperBuildJ, HWHiCutsBuildJ, HWHyperBuildJ float64

	// Table 6: average energy per packet (J, normalized).
	SWHiCutsEnergyJ, SWHyperEnergyJ     float64
	ASICHiCutsEnergyJ, ASICHyperEnergyJ float64
	FPGAHiCutsEnergyJ, FPGAHyperEnergyJ float64

	// Table 7: packets classified per second.
	SWHiCutsPPS, SWHyperPPS     float64
	ASICHiCutsPPS, ASICHyperPPS float64
	FPGAHiCutsPPS, FPGAHyperPPS float64

	// Table 8: worst-case memory accesses.
	SWHiCutsWorst, SWHyperWorst, HWHiCutsWorst, HWHyperWorst int
}

// RunACL1 builds all four classifiers per size, measures software cost on
// the SA-1100 model and hardware cost on the cycle-accurate simulator.
func RunACL1(opts Options) ([]ACL1Row, error) {
	opts.sanitize()
	rows := make([]ACL1Row, 0, len(opts.Sizes))
	for _, n := range opts.Sizes {
		rs := classbench.Generate(classbench.ACL1(), n, opts.Seed)
		trace := classbench.GenerateTrace(rs, opts.TracePackets, opts.Seed+1)
		row := ACL1Row{N: n}

		// Software baselines.
		swHi, err := hicuts.Build(rs, hicuts.Config{Binth: opts.Binth, Spfac: opts.Spfac})
		if err != nil {
			return nil, fmt.Errorf("software HiCuts n=%d: %w", n, err)
		}
		swHy, err := hypercuts.Build(rs, hypercuts.Config{Binth: opts.Binth, Spfac: opts.Spfac})
		if err != nil {
			return nil, fmt.Errorf("software HyperCuts n=%d: %w", n, err)
		}
		row.SWHiCutsMem = swHi.Stats().MemoryBytes
		row.SWHyperMem = swHy.Stats().MemoryBytes
		row.SWHiCutsBuildJ = sa1100.BuildEnergyJ(hicutsWork(swHi, n))
		row.SWHyperBuildJ = sa1100.BuildEnergyJ(hypercutsWork(swHy, n))
		row.SWHiCutsWorst = swHi.WorstCaseAccesses()
		row.SWHyperWorst = swHy.WorstCaseAccesses()

		costs := sa1100.DefaultCosts()
		stHi := sa1100.MeasureClassification(swHi, trace, costs)
		stHy := sa1100.MeasureClassification(swHy, trace, costs)
		row.SWHiCutsEnergyJ, row.SWHiCutsPPS = stHi.EnergyPerPacketJ, stHi.PacketsPerSecond
		row.SWHyperEnergyJ, row.SWHyperPPS = stHy.EnergyPerPacketJ, stHy.PacketsPerSecond

		// Hardware accelerator.
		hwHi, err := core.Build(rs, core.DefaultConfig(core.HiCuts))
		if err != nil {
			return nil, fmt.Errorf("hardware HiCuts n=%d: %w", n, err)
		}
		hwHy, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
		if err != nil {
			return nil, fmt.Errorf("hardware HyperCuts n=%d: %w", n, err)
		}
		row.HWHiCutsMem = hwHi.MemoryBytes()
		row.HWHyperMem = hwHy.MemoryBytes()
		row.HWHiCutsBuildJ = sa1100.BuildEnergyJ(coreWork(hwHi, n))
		row.HWHyperBuildJ = sa1100.BuildEnergyJ(coreWork(hwHy, n))
		row.HWHiCutsWorst = hwHi.WorstCaseCycles()
		row.HWHyperWorst = hwHy.WorstCaseCycles()

		for _, hw := range []struct {
			tree         *core.Tree
			asicE, fpgaE *float64
			asicP, fpgaP *float64
		}{
			{hwHi, &row.ASICHiCutsEnergyJ, &row.FPGAHiCutsEnergyJ, &row.ASICHiCutsPPS, &row.FPGAHiCutsPPS},
			{hwHy, &row.ASICHyperEnergyJ, &row.FPGAHyperEnergyJ, &row.ASICHyperPPS, &row.FPGAHyperPPS},
		} {
			img, err := hw.tree.Encode()
			if err != nil {
				return nil, fmt.Errorf("encode n=%d: %w", n, err)
			}
			simA, err := hwsim.New(img, hwsim.ASIC)
			if err != nil {
				return nil, fmt.Errorf("asic sim n=%d: %w", n, err)
			}
			// Cross-check the simulated datapath against the flat
			// software engine while measuring: every table row is then
			// backed by a packet-exact agreement proof.
			_, stA, err := simA.RunVerified(trace, engine.Compile(hw.tree))
			if err != nil {
				return nil, fmt.Errorf("asic sim n=%d: %w", n, err)
			}
			*hw.asicE, *hw.asicP = stA.EnergyPerPacketJ, stA.PacketsPerSecond

			simF, err := hwsim.New(img, hwsim.FPGA)
			if err != nil {
				return nil, fmt.Errorf("fpga sim n=%d: %w", n, err)
			}
			_, stF := simF.Run(trace)
			*hw.fpgaE, *hw.fpgaP = stF.EnergyPerPacketJ, stF.PacketsPerSecond
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func hicutsWork(t *hicuts.Tree, n int) sa1100.BuildWork {
	s := t.Stats()
	return sa1100.BuildWork{
		CutEvaluations: s.CutEvaluations, RuleChildOps: s.RuleChildOps,
		RulePushes: s.RulePushes, Nodes: s.Nodes, Rules: n,
	}
}

func hypercutsWork(t *hypercuts.Tree, n int) sa1100.BuildWork {
	s := t.Stats()
	return sa1100.BuildWork{
		CutEvaluations: s.CutEvaluations, RuleChildOps: s.RuleChildOps + s.CompactionOps,
		RulePushes: s.RulePushes, Nodes: s.Nodes, Rules: n,
	}
}

func coreWork(t *core.Tree, n int) sa1100.BuildWork {
	s := t.Stats()
	return sa1100.BuildWork{
		CutEvaluations: s.CutEvaluations, RuleChildOps: s.RuleChildOps,
		RulePushes: s.RulePushes, Nodes: s.Nodes, Rules: n,
	}
}

// Table4Row is one row of paper Table 4.
type Table4Row struct {
	Profile                   string
	N                         int
	HiCutsMem, HyperMem       int
	HiCutsCycles, HyperCycles int
	HiCutsFits, HyperFits     bool // fits the 1024-word device
}

// RunTable4 measures hardware memory and worst-case cycles for the acl1,
// fw1 and ipc1 profiles at the given sizes (nil = paper sizes).
func RunTable4(opts Options) ([]Table4Row, error) {
	opts.sanitize()
	var rows []Table4Row
	for _, prof := range []string{"acl1", "fw1", "ipc1"} {
		p, err := classbench.ProfileByName(prof)
		if err != nil {
			return nil, err
		}
		sizes := opts.Table4Sizes
		if len(sizes) == 0 {
			sizes = classbench.PaperSizes(4, prof)
		}
		for _, n := range sizes {
			rs := classbench.Generate(p, n, opts.Seed)
			hi, err := core.Build(rs, core.DefaultConfig(core.HiCuts))
			if err != nil {
				return nil, fmt.Errorf("%s n=%d HiCuts: %w", prof, n, err)
			}
			hy, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
			if err != nil {
				return nil, fmt.Errorf("%s n=%d HyperCuts: %w", prof, n, err)
			}
			rows = append(rows, Table4Row{
				Profile: prof, N: n,
				HiCutsMem: hi.MemoryBytes(), HyperMem: hy.MemoryBytes(),
				HiCutsCycles: hi.WorstCaseCycles(), HyperCycles: hy.WorstCaseCycles(),
				HiCutsFits: hi.FitsDevice(), HyperFits: hy.FitsDevice(),
			})
		}
	}
	return rows, nil
}

// Claims reproduces the headline ratios of §5.2 and §5.3.
type Claims struct {
	N int
	// ThroughputVsRFC is ASIC pps / RFC-on-SA-1100 pps (paper: up to 546x).
	ThroughputVsRFC float64
	// ThroughputVsHiCuts is ASIC pps / software-HiCuts pps (paper: up to 4,269x).
	ThroughputVsHiCuts float64
	// EnergySavingVsHiCuts is software-HiCuts J/pkt over ASIC J/pkt
	// (paper: up to 7,773x).
	EnergySavingVsHiCuts float64
	// RFCPPS and HiCutsPPS are the software rates for context.
	RFCPPS, HiCutsPPS, ASICPPS float64
	// FPGAPowerW vs TCAMPowerW at 77 MHz with comparable memory
	// (paper: 1.8 W vs 2.9 W for the Ayama 10128).
	FPGAPowerW, TCAMPowerW float64
	// ASICPowerRawW at 226 MHz vs the power of just the SRAM a TCAM
	// system needs (paper §5.3: 19.79 mW vs 875 mW).
	ASICPowerRawW, TCAMSRAMPowerW float64
	// TCAMEfficiency is the modelled storage efficiency of the ruleset
	// on a TCAM (paper cites 16-53%).
	TCAMEfficiency float64
}

// RunClaims measures the §5.2/§5.3 headline comparisons on the largest
// acl1 set (2191 rules in the paper).
func RunClaims(opts Options) (Claims, error) {
	opts.sanitize()
	n := opts.Sizes[len(opts.Sizes)-1]
	rs := classbench.Generate(classbench.ACL1(), n, opts.Seed)
	trace := classbench.GenerateTrace(rs, opts.TracePackets, opts.Seed+1)
	cl := Claims{N: n}

	// RFC baseline on the SA-1100 model.
	rfcC, _, err := rfc.Build(rs)
	if err != nil {
		return cl, err
	}
	costs := sa1100.DefaultCosts()
	stRFC := sa1100.MeasureClassification(rfcC, trace, costs)
	cl.RFCPPS = stRFC.PacketsPerSecond

	// Software HiCuts.
	swHi, err := hicuts.Build(rs, hicuts.Config{Binth: opts.Binth, Spfac: opts.Spfac})
	if err != nil {
		return cl, err
	}
	stHi := sa1100.MeasureClassification(swHi, trace, costs)
	cl.HiCutsPPS = stHi.PacketsPerSecond

	// ASIC accelerator running modified HyperCuts (the paper's best).
	hw, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		return cl, err
	}
	img, err := hw.Encode()
	if err != nil {
		return cl, err
	}
	sim, err := hwsim.New(img, hwsim.ASIC)
	if err != nil {
		return cl, err
	}
	_, stA := sim.Run(trace)
	cl.ASICPPS = stA.PacketsPerSecond

	cl.ThroughputVsRFC = stA.PacketsPerSecond / stRFC.PacketsPerSecond
	cl.ThroughputVsHiCuts = stA.PacketsPerSecond / stHi.PacketsPerSecond
	cl.EnergySavingVsHiCuts = stHi.EnergyPerPacketJ / stA.EnergyPerPacketJ

	// TCAM comparison.
	_, tst, err := tcam.Build(rs)
	if err != nil {
		return cl, err
	}
	cl.TCAMEfficiency = tst.Efficiency
	cl.FPGAPowerW = energy.Virtex5.RawPowerW
	cl.TCAMPowerW = tcam.Ayama10128at77.PowerW()
	cl.ASICPowerRawW = energy.ASIC65.RawPowerW
	cl.TCAMSRAMPowerW = tcam.SRAMCY7C1370DV25PowerW
	return cl, nil
}

// ---- text table rendering ----

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}

func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func sci(v float64) string { return fmt.Sprintf("%.2E", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
