package bench

import (
	"strings"
	"testing"
)

// quickOpts keeps unit-test runtime low; the full paper sizes run in
// cmd/pctables and the repository benchmarks.
func quickOpts() Options {
	return Options{
		Seed:         7,
		Sizes:        []int{60, 150, 500},
		Table4Sizes:  []int{300, 1200},
		TracePackets: 3000,
	}
}

func TestRunACL1Shape(t *testing.T) {
	rows, err := RunACL1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper shape: hardware memory within the same order of
		// magnitude as software; all positive.
		if r.SWHiCutsMem <= 0 || r.SWHyperMem <= 0 || r.HWHiCutsMem <= 0 || r.HWHyperMem <= 0 {
			t.Errorf("n=%d: non-positive memory", r.N)
		}
		// Paper shape: hardware classification beats software by large
		// factors on both devices.
		if r.ASICHiCutsPPS <= r.SWHiCutsPPS*10 {
			t.Errorf("n=%d: ASIC %.0f pps not >> software %.0f pps", r.N, r.ASICHiCutsPPS, r.SWHiCutsPPS)
		}
		if r.FPGAHyperPPS <= r.SWHyperPPS*10 {
			t.Errorf("n=%d: FPGA %.0f pps not >> software %.0f pps", r.N, r.FPGAHyperPPS, r.SWHyperPPS)
		}
		// Paper shape: ASIC energy per packet orders of magnitude below
		// software energy.
		if r.ASICHiCutsEnergyJ*100 >= r.SWHiCutsEnergyJ {
			t.Errorf("n=%d: ASIC energy %.3e not << software %.3e", r.N, r.ASICHiCutsEnergyJ, r.SWHiCutsEnergyJ)
		}
		// Build energy: hardware (modified) build at most software build
		// is NOT guaranteed at tiny sizes (paper Table 3 shows hardware
		// higher at 60-150 rules), so only check positivity here.
		if r.SWHiCutsBuildJ <= 0 || r.HWHiCutsBuildJ <= 0 {
			t.Errorf("n=%d: non-positive build energy", r.N)
		}
		// Worst cases: hardware single digits, software larger.
		if r.HWHiCutsWorst < 2 || r.HWHiCutsWorst > 30 {
			t.Errorf("n=%d: HW worst case %d implausible", r.N, r.HWHiCutsWorst)
		}
		if r.SWHiCutsWorst <= r.HWHiCutsWorst {
			t.Errorf("n=%d: software worst accesses %d should exceed hardware %d",
				r.N, r.SWHiCutsWorst, r.HWHiCutsWorst)
		}
	}
	// Memory must grow with ruleset size.
	if rows[2].HWHiCutsMem < rows[0].HWHiCutsMem {
		t.Error("hardware memory shrank with more rules")
	}
}

func TestBuildEnergyGapGrowsWithSize(t *testing.T) {
	// Paper Table 3: the modified algorithms' build-energy advantage
	// grows with ruleset size (11.84x at 2191 rules for HiCuts). Tiny
	// sets are degenerate (the hardware tree is a single leaf), so
	// measure the trend from 150 rules up.
	opts := quickOpts()
	opts.Sizes = []int{150, 500, 1000}
	rows, err := RunACL1(opts)
	if err != nil {
		t.Fatal(err)
	}
	first := rows[0].SWHiCutsBuildJ / rows[0].HWHiCutsBuildJ
	last := rows[len(rows)-1].SWHiCutsBuildJ / rows[len(rows)-1].HWHiCutsBuildJ
	if last < first {
		t.Errorf("build-energy ratio fell from %.2f to %.2f; paper's gap grows with size", first, last)
	}
}

func TestRunTable4Shape(t *testing.T) {
	rows, err := RunTable4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 profiles x 2 sizes
		t.Fatalf("rows = %d", len(rows))
	}
	byProfile := map[string][]Table4Row{}
	for _, r := range rows {
		byProfile[r.Profile] = append(byProfile[r.Profile], r)
		if r.HiCutsCycles < 2 || r.HyperCycles < 2 {
			t.Errorf("%s n=%d: cycles below minimum", r.Profile, r.N)
		}
	}
	// fw1 must consume more memory than acl1 at equal size (the paper's
	// wildcard blow-up).
	if fw, acl := byProfile["fw1"][1], byProfile["acl1"][1]; fw.HiCutsMem <= acl.HiCutsMem {
		t.Errorf("fw1 memory %d should exceed acl1 %d", fw.HiCutsMem, acl.HiCutsMem)
	}
}

func TestRunClaimsShape(t *testing.T) {
	opts := quickOpts()
	// RFC's advantage over the tree algorithms emerges at scale (its
	// access count is constant while trees deepen), so measure the
	// ordering on a reasonably large set, as the paper does (2191).
	opts.Sizes = []int{1500}
	opts.TracePackets = 6000
	cl, err := RunClaims(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cl.ThroughputVsRFC < 10 {
		t.Errorf("ASIC vs RFC ratio %.1f; expected orders of magnitude", cl.ThroughputVsRFC)
	}
	if cl.ThroughputVsHiCuts < cl.ThroughputVsRFC {
		t.Errorf("HiCuts ratio %.0f should exceed RFC ratio %.0f (RFC is the faster software)",
			cl.ThroughputVsHiCuts, cl.ThroughputVsRFC)
	}
	if cl.EnergySavingVsHiCuts < 100 {
		t.Errorf("energy saving %.0fx; paper reports thousands", cl.EnergySavingVsHiCuts)
	}
	if cl.FPGAPowerW >= cl.TCAMPowerW {
		t.Errorf("FPGA %.2fW should undercut TCAM %.2fW", cl.FPGAPowerW, cl.TCAMPowerW)
	}
	if cl.TCAMEfficiency <= 0.05 || cl.TCAMEfficiency >= 1 {
		t.Errorf("TCAM efficiency %.2f out of band", cl.TCAMEfficiency)
	}
}

func TestTableFormatting(t *testing.T) {
	rows, err := RunACL1(Options{Seed: 7, Sizes: []int{60}, TracePackets: 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*Table{Table2(rows), Table3(rows), Table6(rows), Table7(rows), Table8(rows), Table5()} {
		out := tbl.Format()
		if !strings.Contains(out, "Table") {
			t.Errorf("missing title in output:\n%s", out)
		}
		if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
			t.Errorf("table too short:\n%s", out)
		}
	}
	t4rows, err := RunTable4(Options{Seed: 7, Table4Sizes: []int{300}, Sizes: []int{60}, TracePackets: 500})
	if err != nil {
		t.Fatal(err)
	}
	if out := Table4(t4rows).Format(); !strings.Contains(out, "fw1") {
		t.Errorf("table 4 missing fw1:\n%s", out)
	}
	cl, err := RunClaims(Options{Seed: 7, Sizes: []int{200}, TracePackets: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if out := ClaimsTable(cl).Format(); !strings.Contains(out, "546") {
		t.Errorf("claims table missing paper anchor:\n%s", out)
	}
	exp, err := TCAMExpansion(Options{Seed: 7}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if out := exp.Format(); !strings.Contains(out, "acl1") {
		t.Errorf("expansion table malformed:\n%s", out)
	}
}

func TestRunAblations(t *testing.T) {
	opts := Options{Seed: 7, TracePackets: 2000}
	r, err := RunAblations(opts, 400)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start2BuildCycles < r.Start32BuildCycles {
		t.Errorf("start=2 build cycles %d below start=32 %d; §3 claims the opposite",
			r.Start2BuildCycles, r.Start32BuildCycles)
	}
	if r.Speed0Words > r.Speed1Words {
		t.Errorf("speed 0 words %d exceed speed 1 %d", r.Speed0Words, r.Speed1Words)
	}
	if r.Speed0Cyc < r.Speed1Cyc-1e-9 {
		t.Errorf("speed 0 cyc/pkt %.3f beats speed 1 %.3f; Eq. 7 says speed 1 is never slower",
			r.Speed0Cyc, r.Speed1Cyc)
	}
	if r.PtrLeafWorst < r.RulesLeafWorst+1 {
		t.Errorf("pointer leaves worst %d not >= rules-in-leaf %d + 1", r.PtrLeafWorst, r.RulesLeafWorst)
	}
	if r.NoOverlapCyc <= r.OverlapCyc {
		t.Errorf("overlap %.3f should beat no-overlap %.3f", r.OverlapCyc, r.NoOverlapCyc)
	}
	if out := AblationTable(r).Format(); len(out) == 0 {
		t.Error("empty ablation table")
	}
}

func TestSeedSensitivity(t *testing.T) {
	rows, err := RunSeedSensitivity(500, []int64{1, 2, 3}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		eps := 1e-9 * r.Max
		if r.Min > r.Mean+eps || r.Mean > r.Max+eps {
			t.Errorf("%s: min/mean/max out of order: %+v", r.Metric, r)
		}
		// Conclusions must be robust: no metric should swing by more
		// than 2x of its mean across seeds at this size.
		if r.RelSpread > 2.0 {
			t.Errorf("%s: relative spread %.2f too large; results are seed-fragile", r.Metric, r.RelSpread)
		}
	}
	if out := SensitivityTable(500, rows).Format(); !strings.Contains(out, "Seed sensitivity") {
		t.Error("sensitivity table malformed")
	}
}
