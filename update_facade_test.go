package repro

import (
	"bufio"
	"bytes"
	"strconv"
	"sync"
	"testing"

	"repro/internal/rule"
)

func TestAcceleratorIncrementalUpdates(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 200, 21)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts})
	if err != nil {
		t.Fatal(err)
	}

	// Insert a handful of new rules and verify semantics after each.
	extra, err := GenerateRuleset("ipc1", 20, 22)
	if err != nil {
		t.Fatal(err)
	}
	full := append(RuleSet{}, rs...)
	for i := range extra {
		r := extra[i]
		r.ID = len(full)
		if err := acc.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		full = append(full, r)
	}
	trace := GenerateTrace(full, 2500, 23)
	for i, p := range trace {
		if got, want := acc.Classify(p), full.Match(p); got != want {
			t.Fatalf("after inserts, packet %d: %d vs %d", i, got, want)
		}
	}

	// Delete one and re-verify.
	if err := acc.Delete(5); err != nil {
		t.Fatal(err)
	}
	expect := func(p Packet) int {
		for i := range full {
			if full[i].ID == 5 {
				continue
			}
			if full[i].Matches(p) {
				return full[i].ID
			}
		}
		return -1
	}
	for i, p := range trace {
		if got, want := acc.Classify(p), expect(p); got != want {
			t.Fatalf("after delete, packet %d: %d vs %d", i, got, want)
		}
	}

	if acc.Degradation() < 0 || acc.Degradation() > 1 {
		t.Errorf("degradation %.3f out of range", acc.Degradation())
	}

	// Insert with a wrong ID must fail cleanly.
	bad := rule.New(3, 0, 0, 0, 0, rule.FullRange(rule.DimSrcPort), rule.FullRange(rule.DimDstPort), 0, true)
	if err := acc.Insert(bad); err == nil {
		t.Error("insert with stale ID accepted")
	}
	acc.WaitMaintenance()
}

// TestAcceleratorAutoRecompile is the worked example of the degradation
// threshold: the fraction of the leaf table the facade lets
// incremental updates degrade (overgrown or orphaned
// leaves — see Accelerator.Degradation, plus engine arena garbage via
// GarbageRatio) before the facade folds the accumulated patches into a
// fresh structure in the background. The default,
// DefaultRecompileThreshold (0.25), recompacts once a quarter of the
// table has drifted; this test uses a tight 5% threshold so a burst of
// broad inserts visibly trips the trigger, while classification results
// stay exact throughout. The rebuild reclaims orphaned leaves and arena
// garbage; leaves grown past Binth survive it (re-cutting them needs a
// fresh BuildAccelerator), so re-triggering uses drift above the
// post-rebuild floor, not the absolute level — sustained churn pays one
// rebuild per threshold's worth of new drift, never one per update.
func TestAcceleratorAutoRecompile(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 300, 41)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts})
	if err != nil {
		t.Fatal(err)
	}
	acc.threshold = 0.05
	full := append(RuleSet{}, rs...)
	// Broad port-range rules replicate into many leaves: the fastest way
	// to degrade a built structure.
	peak := 0.0
	for i := 0; i < 40; i++ {
		r := rule.New(len(full), 0, 0, 0, 0,
			Range{Lo: uint32(i), Hi: 65535}, rule.FullRange(rule.DimDstPort), 0, true)
		if err := acc.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		full = append(full, r)
		if d := acc.Degradation(); d > peak {
			peak = d
		}
	}
	if peak < 0.05 {
		t.Fatalf("broad inserts only degraded to %.3f; the 0.05 trigger never armed", peak)
	}
	acc.WaitMaintenance()
	// The background rebuild must have compacted the drift (orphans and
	// garbage go; only irreducible overgrowth may remain)...
	if deg := acc.Degradation(); deg >= peak {
		t.Errorf("degradation %.3f not reduced from peak %.3f by the rebuild", deg, peak)
	}
	// ...bumped the epoch past the per-update increments alone...
	if e := acc.Epoch(); e <= 40 {
		t.Errorf("epoch %d implies no recompile swap landed", e)
	}
	// ...and preserved semantics exactly.
	for i, p := range GenerateTrace(full, 2000, 42) {
		if got, want := acc.SoftwareEngine().Classify(p), full.Match(p); got != want {
			t.Fatalf("packet %d after recompile: %d vs %d", i, got, want)
		}
	}
}

// TestClassifyStreamDuringUpdates streams a trace while rules are being
// inserted concurrently: the stream must keep classifying (updates land
// between batches) and every emitted ID must be valid for some epoch the
// stream could have observed.
func TestClassifyStreamDuringUpdates(t *testing.T) {
	rs, err := GenerateRuleset("fw1", 250, 51)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HiCuts})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := GenerateRuleset("acl1", 30, 52)
	if err != nil {
		t.Fatal(err)
	}
	trace := GenerateTrace(rs, 3*StreamBatch+100, 53)
	var in bytes.Buffer
	if err := rule.WriteTrace(&in, trace); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range extra {
			r := extra[i]
			r.ID = len(rs) + i
			if err := acc.Insert(r); err != nil {
				t.Errorf("concurrent insert %d: %v", i, err)
				return
			}
		}
	}()

	var out bytes.Buffer
	n, err := acc.ClassifyStream(&in, &out)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	acc.WaitMaintenance()
	if n != int64(len(trace)) {
		t.Fatalf("stream classified %d of %d packets", n, len(trace))
	}
	sc := bufio.NewScanner(&out)
	lines := 0
	maxID := len(rs) + len(extra)
	for sc.Scan() {
		id, err := strconv.Atoi(sc.Text())
		if err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if id < -1 || id >= maxID {
			t.Fatalf("line %d: impossible rule ID %d", lines, id)
		}
		lines++
	}
	if lines != len(trace) {
		t.Fatalf("stream wrote %d lines for %d packets", lines, len(trace))
	}

	// Quiescent semantics: a fresh stream over the same trace now must
	// match the full ruleset exactly.
	full := append(RuleSet{}, rs...)
	for i := range extra {
		r := extra[i]
		r.ID = len(rs) + i
		full = append(full, r)
	}
	in.Reset()
	out.Reset()
	if err := rule.WriteTrace(&in, trace); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.ClassifyStream(&in, &out); err != nil {
		t.Fatal(err)
	}
	sc = bufio.NewScanner(&out)
	for i := 0; sc.Scan(); i++ {
		if got, _ := strconv.Atoi(sc.Text()); got != full.Match(trace[i]) {
			t.Fatalf("quiescent stream packet %d: %d vs %d", i, got, full.Match(trace[i]))
		}
	}
}

// TestAcceleratorDeviceOverflowFallback grows the structure past the
// simulated device's 1024-word memory (auto-recompile disabled with a
// negative threshold) and checks the degraded mode is fully observable
// and still exact: LoadError reports the overflow, Classify/Run answer
// from the logical tree, and Run's statistics carry the analytical
// Eq. 5/7 quantities instead of zeros.
func TestAcceleratorDeviceOverflowFallback(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 1800, 71)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts})
	if err != nil {
		t.Fatal(err)
	}
	acc.threshold = -1
	full := append(RuleSet{}, rs...)
	for i := 0; acc.LoadError() == nil; i++ {
		if i > 400 {
			t.Skip("could not outgrow the device in 400 broad inserts")
		}
		r := rule.New(len(full), 0, 0, 0, 0,
			Range{Lo: 0, Hi: 65535}, rule.FullRange(rule.DimDstPort), 0, true)
		if err := acc.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		full = append(full, r)
	}
	if acc.Words() <= 1024 {
		t.Fatalf("LoadError set at %d words (device holds 1024)", acc.Words())
	}
	if err := acc.PatchError(); err != nil {
		t.Fatalf("patch pipeline failed during growth: %v", err)
	}
	trace := GenerateTrace(full, 1500, 72)
	matches, st := acc.Run(trace)
	if st.Packets != int64(len(trace)) || st.PacketsPerSecond <= 0 ||
		st.AvgCyclesPerPacket <= 0 || st.EnergyPerPacketJ <= 0 {
		t.Fatalf("fallback Run stats empty: %+v", st)
	}
	for i, p := range trace {
		if want := full.Match(p); matches[i] != want || acc.Classify(p) != want {
			t.Fatalf("fallback packet %d: run=%d classify=%d want=%d", i, matches[i], acc.Classify(p), want)
		}
	}
	// Recompacting cannot shrink below the device either (the ruleset
	// grew), but the condition must stay visible, not panic.
	acc.Recompile()
	if acc.LoadError() == nil && acc.Words() > 1024 {
		t.Error("LoadError cleared while structure still exceeds the device")
	}
}
