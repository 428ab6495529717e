package repro

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// Facade-level telemetry: the always-on recorder must stay internally
// consistent while classification and control-plane churn run
// concurrently, and the HTTP plane started by Config.TelemetryAddr must
// serve the same numbers live.

func telemetryAccel(t *testing.T, cacheSize int, addr string) (*Accelerator, RuleSet) {
	t.Helper()
	rs, err := GenerateRuleset("acl1", 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildAccelerator(rs, Config{CacheSize: cacheSize, TelemetryAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, rs
}

// The build itself must be on record before anything else happens.
func TestTelemetryRecordsBuild(t *testing.T) {
	a, rs := telemetryAccel(t, 0, "")
	evs := a.TelemetryEvents()
	if len(evs) == 0 || evs[0].Kind != telemetry.EvBuild {
		t.Fatalf("first event = %+v, want EvBuild", evs)
	}
	if evs[0].V2 != int64(len(rs)) {
		t.Errorf("build event rules = %d, want %d", evs[0].V2, len(rs))
	}
	if evs[0].V1 <= 0 {
		t.Errorf("build event nanos = %d, want > 0", evs[0].V1)
	}
	s := a.Telemetry()
	if s.Epoch != 0 || s.Packets != 0 || s.EpochPublishes != 0 {
		t.Errorf("fresh snapshot = %+v, want zero counters at epoch 0", s)
	}
}

// Snapshot-during-churn differential: classification through the cache
// races a control-plane insert storm; afterwards the counters must add
// up exactly — cache hits+misses == packets probed, telemetry packet
// count == packets classified, epochs monotone in the event stream, and
// the snapshot's epoch equal to the accelerator's.
func TestTelemetryConsistentUnderChurn(t *testing.T) {
	a, rs := telemetryAccel(t, 1<<14, "")
	trace := GenerateFlowTrace(rs, 4096, 300, 16, 12)
	out := make([]int32, len(trace))

	const classifyRounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < classifyRounds; i++ {
			a.ClassifyBatch(trace, out)
		}
	}()
	pool, err := GenerateRuleset("fw1", 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		r := pool[i]
		r.ID = len(rs) + i
		if err := a.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	a.WaitMaintenance()

	s := a.Telemetry()
	if want := uint64(classifyRounds * len(trace)); s.Packets != want {
		t.Errorf("telemetry packets = %d, want %d", s.Packets, want)
	}
	if s.Batches != classifyRounds {
		t.Errorf("telemetry batches = %d, want %d", s.Batches, classifyRounds)
	}
	if got, want := s.Epoch, a.Epoch(); got != want {
		t.Errorf("snapshot epoch = %d, accelerator epoch = %d", got, want)
	}
	if s.DeltasApplied < uint64(len(pool)) && s.PatchFailures == 0 && s.Recompiles == 0 {
		t.Errorf("deltas applied = %d, want >= %d (or recompile fallbacks on record)",
			s.DeltasApplied, len(pool))
	}
	// Every packet is accounted a hit, a miss or bypassed, nothing lost.
	if got, want := s.Cache.Hits+s.Cache.Misses+s.Cache.Bypassed, s.Packets; got != want {
		t.Errorf("cache hits+misses+bypassed = %d, want == packets %d", got, want)
	}
	if s.PatchFailures != 0 {
		t.Errorf("patch failures = %d, want 0 (delta protocol regression)", s.PatchFailures)
	}

	// Event-stream invariants: seq strictly increasing, timestamps and
	// epochs non-decreasing, every publish's epoch increments by one.
	evs := s.Events
	if uint64(len(evs)) < s.EpochPublishes-s.EventsDropped {
		t.Fatalf("only %d events retained for %d publishes (dropped %d)",
			len(evs), s.EpochPublishes, s.EventsDropped)
	}
	var lastSeq, lastPublishEpoch uint64
	var lastNanos int64
	for i, e := range evs {
		if e.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d after %d (not strictly increasing)", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Nanos < lastNanos {
			t.Fatalf("event %d: nanos %d after %d (clock ran backwards)", i, e.Nanos, lastNanos)
		}
		lastNanos = e.Nanos
		if e.Kind == telemetry.EvEpochPublish {
			if lastPublishEpoch != 0 && e.Epoch != lastPublishEpoch+1 {
				t.Fatalf("publish epoch %d after %d (not monotone +1)", e.Epoch, lastPublishEpoch)
			}
			lastPublishEpoch = e.Epoch
		}
	}
	if lastPublishEpoch != s.Epoch {
		t.Errorf("last published epoch in events = %d, snapshot epoch = %d", lastPublishEpoch, s.Epoch)
	}
	if s.ClassifyP50Ns <= 0 || s.ClassifyP99Ns < s.ClassifyP50Ns {
		t.Errorf("classify quantiles p50=%d p99=%d, want 0 < p50 <= p99",
			s.ClassifyP50Ns, s.ClassifyP99Ns)
	}
}

// Recompile lifecycle lands on the flight recorder: force one and check
// the trip/start/done triple and the counters that must move with it.
func TestTelemetryRecordsRecompile(t *testing.T) {
	a, _ := telemetryAccel(t, 0, "")
	before := a.Telemetry()
	a.Recompile()
	s := a.Telemetry()
	if s.Recompiles != before.Recompiles+1 {
		t.Fatalf("recompiles = %d, want %d", s.Recompiles, before.Recompiles+1)
	}
	var start, done bool
	for _, e := range s.Events {
		switch e.Kind {
		case telemetry.EvRecompileStart:
			start = true
		case telemetry.EvRecompileDone:
			done = true
			if e.V1 <= 0 {
				t.Errorf("recompile-done nanos = %d, want > 0", e.V1)
			}
		}
	}
	if !start || !done {
		t.Errorf("recompile events start=%v done=%v, want both", start, done)
	}
	if s.Epoch != before.Epoch+1 {
		t.Errorf("epoch after recompile = %d, want %d", s.Epoch, before.Epoch+1)
	}
}

// Config.TelemetryAddr must serve live, consistent numbers during
// churn: scrape /metrics between update bursts and check the families
// and the monotone packet counter.
func TestTelemetryHTTPDuringChurn(t *testing.T) {
	a, rs := telemetryAccel(t, 1<<12, "127.0.0.1:0")
	addr := a.TelemetryAddr()
	if addr == "" {
		t.Fatal("TelemetryAddr empty with TelemetryAddr config set")
	}
	trace := GenerateTrace(rs, 2048, 14)
	out := make([]int32, len(trace))

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	metricValue := func(body, name string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v float64
				if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
					t.Fatalf("unparseable %s line %q", name, line)
				}
				return v
			}
		}
		t.Fatalf("metric %s not in scrape", name)
		return 0
	}

	var lastPackets float64
	pool, err := GenerateRuleset("ipc1", 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		a.ClassifyBatch(trace, out)
		r := pool[i]
		r.ID = len(rs) + i
		if err := a.Insert(r); err != nil {
			t.Fatal(err)
		}
		body := scrape()
		p := metricValue(body, "repro_packets_total")
		if p < lastPackets {
			t.Fatalf("repro_packets_total went backwards: %v after %v", p, lastPackets)
		}
		lastPackets = p
		if e := metricValue(body, "repro_epoch"); e != float64(a.Epoch()) {
			// The epoch may advance between scrape and check only
			// forward; re-read to confirm monotonicity rather than flake.
			if e > float64(a.Epoch()) {
				t.Fatalf("scraped epoch %v ahead of accelerator %d", e, a.Epoch())
			}
		}
	}
	a.WaitMaintenance()
	body := scrape()
	for _, fam := range []string{
		"repro_packets_total", "repro_epoch_publishes_total",
		"repro_deltas_applied_total", "repro_cache_hits_total",
		"repro_tree_degradation", "repro_snapshot_age_seconds",
	} {
		if !strings.Contains(body, "\n"+fam+" ") {
			t.Errorf("scrape has no sample of family %s", fam)
		}
	}
	if got := metricValue(body, "repro_epoch"); got != float64(a.Epoch()) {
		t.Errorf("final scraped epoch %v != accelerator epoch %d", got, a.Epoch())
	}
	// Consistency between the two exposition surfaces.
	s := a.Telemetry()
	if got := metricValue(body, "repro_packets_total"); got != float64(s.Packets) {
		t.Errorf("scraped packets %v != snapshot %d", got, s.Packets)
	}
	// The trace is scatter traffic and every round met a new epoch: no
	// lookup ever hit, so after one admission window (4 x 4096 lookups)
	// the cache bypasses. The scrape alone must show that, with the
	// conservation law, and /debug/events must say when and why.
	accounted := metricValue(body, "repro_cache_hits_total") + metricValue(body, "repro_cache_misses_total") +
		metricValue(body, "repro_cache_bypassed_total")
	if accounted != float64(s.Packets) || metricValue(body, "repro_cache_bypassed_total") == 0 {
		t.Errorf("scraped hits+misses+bypassed = %v (bypassed %v), packets %d",
			accounted, metricValue(body, "repro_cache_bypassed_total"), s.Packets)
	}
	if metricValue(body, "repro_cache_bypass_active") != 1 || !s.Cache.Bypassing {
		t.Errorf("scatter traffic left the cache in normal mode: %+v", s.Cache)
	}
	resp, err := http.Get("http://" + addr + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"kind": "cache_mode"`) {
		t.Errorf("/debug/events has no cache_mode event for the flip:\n%s", events)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("telemetry server still answering after Close")
	}
}

// Device writes reach the flight recorder through the lazy hwsim path.
func TestTelemetryRecordsDeviceWrites(t *testing.T) {
	a, rs := telemetryAccel(t, 0, "")
	r := rs[0]
	r.ID = len(rs)
	if err := a.Insert(r); err != nil {
		t.Fatal(err)
	}
	a.DeviceWriteCycles() // flushes the queued delta into the device
	var deviceWrites int
	for _, e := range a.TelemetryEvents() {
		if e.Kind == telemetry.EvDeviceWrite {
			deviceWrites++
			if e.V1 <= 0 {
				t.Errorf("device write cycles = %d, want > 0", e.V1)
			}
		}
	}
	if deviceWrites == 0 {
		t.Error("no EvDeviceWrite on record after DeviceWriteCycles")
	}
}
