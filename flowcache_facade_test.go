package repro

import (
	"bufio"
	"bytes"
	"strconv"
	"testing"

	"repro/internal/rule"
	"repro/internal/telemetry"
)

// TestAcceleratorFlowCacheExactUnderUpdates is the facade-level cache
// contract: with Config.CacheSize set, Classify and ClassifyBatch stay
// packet-exact against the reference ruleset semantics across live
// Insert/Delete (every update bumps the epoch and invalidates by stamp),
// and CacheStats shows the cache actually working.
func TestAcceleratorFlowCacheExactUnderUpdates(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 250, 91)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts, CacheSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	full := append(RuleSet{}, rs...)
	trace := GenerateFlowTrace(rs, 3000, 256, 8, 92)

	presented := uint64(0)
	check := func(stage string) {
		t.Helper()
		presented += 3 * uint64(len(trace))
		// Twice: the first pass populates, the second must hit and still
		// be exact.
		for pass := 0; pass < 2; pass++ {
			for i, p := range trace {
				if got, want := acc.Classify(p), full.Match(p); got != want {
					t.Fatalf("%s pass %d packet %d: cached Classify=%d want %d", stage, pass, i, got, want)
				}
			}
		}
		out := make([]int32, len(trace))
		acc.ClassifyBatch(trace, out)
		for i, p := range trace {
			if want := full.Match(p); int(out[i]) != want {
				t.Fatalf("%s batch packet %d: %d want %d", stage, i, out[i], want)
			}
		}
	}
	check("initial")

	extra, err := GenerateRuleset("ipc1", 30, 93)
	if err != nil {
		t.Fatal(err)
	}
	for i := range extra {
		r := extra[i]
		r.ID = len(full)
		if err := acc.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		full = append(full, r)
	}
	check("after inserts")

	if err := acc.Delete(3); err != nil {
		t.Fatal(err)
	}
	full[3].F[rule.DimProto] = Range{Lo: 1, Hi: 0} // match nothing
	check("after delete")

	st := acc.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.StaleEvictions == 0 || st.Occupied == 0 {
		t.Errorf("cache never exercised: %+v", st)
	}
	if st.Capacity < 4096 {
		t.Errorf("capacity %d < configured 4096", st.Capacity)
	}
	// One conservation law over both paths: the single-packet Classify
	// (always probed: its miss is a device-model walk, far above any
	// break-even) and the batch path under the admission policy.
	if got := st.Hits + st.Misses + st.Bypassed; got != presented || st.Inserts != st.Misses {
		t.Errorf("hits+misses+bypassed = %d for %d packets presented, inserts %d vs misses %d: %+v",
			got, presented, st.Inserts, st.Misses, st)
	}
	acc.WaitMaintenance()
}

// TestAcceleratorCacheDisabled pins the zero-value behaviour: no cache,
// zero stats, ClassifyBatch still works (uncached fallthrough).
func TestAcceleratorCacheDisabled(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 100, 94)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HiCuts})
	if err != nil {
		t.Fatal(err)
	}
	trace := GenerateFlowTrace(rs, 500, 64, 8, 95)
	out := make([]int32, len(trace))
	acc.ClassifyBatch(trace, out)
	for i, p := range trace {
		if want := rs.Match(p); int(out[i]) != want {
			t.Fatalf("packet %d: %d want %d", i, out[i], want)
		}
	}
	if st := acc.CacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled cache reported stats %+v", st)
	}
}

// TestAcceleratorInsertBatch: a burst lands as ONE patch — one epoch,
// one cache invalidation — with exact semantics, and a bad rule mid-burst
// publishes the valid prefix. "One patch" is read from the flight
// recorder, not from Epoch(): a burst can trip a background recompile,
// which publishes an epoch of its own whenever it finishes.
func TestAcceleratorInsertBatch(t *testing.T) {
	rs, err := GenerateRuleset("fw1", 200, 96)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts, CacheSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := GenerateRuleset("acl1", 25, 97)
	if err != nil {
		t.Fatal(err)
	}
	full := append(RuleSet{}, rs...)
	for i := range burst {
		burst[i].ID = len(rs) + i
		full = append(full, burst[i])
	}
	// patches lists the delta count of every patch_batch event so far.
	patches := func() (deltas []int64) {
		for _, ev := range acc.TelemetryEvents() {
			if ev.Kind == telemetry.EvPatchBatch {
				deltas = append(deltas, ev.V1)
			}
		}
		return deltas
	}
	onePatch := func(what string, e0 uint64, before []int64, want int) {
		t.Helper()
		if got := patches()[len(before):]; len(got) != 1 || got[0] != int64(want) {
			t.Fatalf("%s of %d landed as patches of %v deltas, want one patch of %d", what, want, got, want)
		}
		if e := acc.Epoch(); e < e0+1 {
			t.Fatalf("%s left the epoch at %d (was %d)", what, e, e0)
		}
	}
	e0, p0 := acc.Epoch(), patches()
	if err := acc.InsertBatch(burst); err != nil {
		t.Fatal(err)
	}
	onePatch("insert burst", e0, p0, len(burst))
	trace := GenerateFlowTrace(full, 2500, 200, 8, 98)
	for i, p := range trace {
		if got, want := acc.Classify(p), full.Match(p); got != want {
			t.Fatalf("packet %d after batch: %d want %d", i, got, want)
		}
	}

	// DeleteBatch: one epoch for the whole burst.
	ids := []int{len(rs), len(rs) + 1, len(rs) + 2}
	e1, p1 := acc.Epoch(), patches()
	if err := acc.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	onePatch("delete burst", e1, p1, len(ids))
	for _, id := range ids {
		full[id].F[rule.DimProto] = Range{Lo: 1, Hi: 0}
	}
	for i, p := range trace {
		if got, want := acc.Classify(p), full.Match(p); got != want {
			t.Fatalf("packet %d after batch delete: %d want %d", i, got, want)
		}
	}

	// A stale-ID rule mid-batch: the valid prefix must land, the error
	// must surface, and semantics must stay consistent.
	bad := burst[0] // ID already taken
	okRule := rule.New(len(full), 1<<24, 8, 2<<24, 8,
		Range{Lo: 80, Hi: 80}, Range{Lo: 443, Hi: 443}, 6, false)
	if err := acc.InsertBatch([]Rule{okRule, bad}); err == nil {
		t.Fatal("batch with stale-ID rule succeeded")
	}
	full = append(full, okRule)
	for i, p := range trace {
		if got, want := acc.Classify(p), full.Match(p); got != want {
			t.Fatalf("packet %d after failed batch: %d want %d", i, got, want)
		}
	}
	acc.WaitMaintenance()
}

// TestClassifyStreamCached: the streaming facade through the cache stays
// exact and reports hits.
func TestClassifyStreamCached(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 150, 99)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HiCuts, CacheSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	trace := GenerateFlowTrace(rs, 2*StreamBatch+500, 512, 16, 100)
	var in bytes.Buffer
	if err := rule.WriteTrace(&in, trace); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := acc.ClassifyStream(&in, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(trace)) {
		t.Fatalf("streamed %d of %d", n, len(trace))
	}
	sc := bufio.NewScanner(&out)
	for i := 0; sc.Scan(); i++ {
		got, _ := strconv.Atoi(sc.Text())
		if want := rs.Match(trace[i]); got != want {
			t.Fatalf("stream packet %d: %d want %d", i, got, want)
		}
	}
	if st := acc.CacheStats(); st.Hits == 0 {
		t.Errorf("flow-locality stream produced no cache hits: %+v", st)
	}
}
