package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Histogram geometry: every power of two must land exactly at a bucket
// edge — value 2^k is the first value of bucket k+1 (bucket b spans
// [2^(b-1), 2^b)).
func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		nanos  int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1025, 11},
		{1 << 46, 47}, {1<<47 - 1, 47},
		// Beyond the bucket range: clamped into the last bucket.
		{1 << 47, HistBuckets - 1}, {1 << 60, HistBuckets - 1},
	}
	for _, tc := range cases {
		if got := histBucket(tc.nanos); got != tc.bucket {
			t.Errorf("histBucket(%d) = %d, want %d", tc.nanos, got, tc.bucket)
		}
	}
	// BucketUpperNs is the exclusive edge: an observation of exactly the
	// edge value must land in the next bucket.
	for b := 1; b < HistBuckets-1; b++ {
		edge := int64(BucketUpperNs(b))
		if got := histBucket(edge); got != b+1 {
			t.Errorf("histBucket(edge %d) = %d, want %d", edge, got, b+1)
		}
		if got := histBucket(edge - 1); got != b {
			t.Errorf("histBucket(edge-1 %d) = %d, want %d", edge-1, got, b)
		}
	}
}

func TestHistSnapshotAndQuantile(t *testing.T) {
	var h Hist
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	// 100 observations of 100ns, 10 of 10000ns: p50 must sit in the
	// 100ns bucket [64,128), p99 in the 10000ns bucket [8192,16384).
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10000)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	if want := uint64(100*100 + 10*10000); s.SumNs != want {
		t.Fatalf("sum = %d, want %d", s.SumNs, want)
	}
	if m := s.Mean(); m < 900 || m > 1100 {
		t.Errorf("mean = %v, want ~1000", m)
	}
	if p50 := s.Quantile(0.5); p50 < 64 || p50 >= 128 {
		t.Errorf("p50 = %v, want within [64,128)", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 8192 || p99 >= 16384 {
		t.Errorf("p99 = %v, want within [8192,16384)", p99)
	}
	// Quantiles are monotone in q and clamped outside [0,1].
	prev := 0.0
	for _, q := range []float64{-1, 0, 0.25, 0.5, 0.9, 0.99, 1, 2} {
		v := s.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%v) = %v < previous %v (not monotone)", q, v, prev)
		}
		prev = v
	}
}

// Concurrent observers from many goroutines: the snapshot must account
// for every observation exactly once. Run under -race in CI.
func TestHistConcurrentObservers(t *testing.T) {
	var h Hist
	const goroutines, perG = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(1 << (g % 20)))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := uint64(goroutines * perG); s.Count != want {
		t.Errorf("count = %d, want %d", s.Count, want)
	}
	var bucketSum uint64
	for _, n := range s.Bucket {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.SumNs != 0 {
		t.Errorf("after Reset: count=%d sum=%d, want 0/0", s.Count, s.SumNs)
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Errorf("counter = %d, want 42", c.Load())
	}
	var g Gauge
	g.Set(-7)
	if g.Load() != -7 {
		t.Errorf("gauge = %d, want -7", g.Load())
	}
}

// Ring wraparound: a ring of size 8 fed 20 events retains the newest 8
// with contiguous sequence numbers and reports the 12 lost.
func TestRingWraparound(t *testing.T) {
	var r Ring
	r.init(8, nil)
	for i := 1; i <= 20; i++ {
		r.Record(EvEpochPublish, uint64(i), int64(i), 0, 0)
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	if r.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", r.Dropped())
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot len = %d, want 8", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(13 + i) // oldest retained is seq 13
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Epoch != wantSeq || e.V1 != int64(wantSeq) {
			t.Errorf("event %d: payload epoch=%d v1=%d, want %d", i, e.Epoch, e.V1, wantSeq)
		}
	}
}

func TestRingBelowCapacity(t *testing.T) {
	var r Ring // zero value: usable, default-sized
	if r.Len() != 0 || r.Dropped() != 0 || r.Snapshot() != nil {
		t.Fatal("fresh ring not empty")
	}
	r.Record(EvBuild, 0, 1, 2, 3)
	r.Record(EvDeltaApply, 1, 4, 5, 6)
	evs := r.Snapshot()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("snapshot = %+v, want seqs 1,2", evs)
	}
	if evs[0].Kind != EvBuild || evs[1].Kind != EvDeltaApply {
		t.Fatalf("kinds = %v,%v", evs[0].Kind, evs[1].Kind)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EvBuild, EvDeltaApply, EvPatchBatch, EvEpochPublish,
		EvDegradationTrip, EvRecompileStart, EvRecompileDone,
		EvCacheInvalidate, EvPatchFail, EvDeviceWrite, EvKernelFallback,
		EvCacheMode,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d: name %q (unknown or duplicate)", k, s)
		}
		seen[s] = true
	}
	if EventKind(99).String() != "unknown" {
		t.Error("unregistered kind must stringify as unknown")
	}
}

// The exposition must carry every registered family, well-formed: one
// HELP/TYPE pair per family, cumulative histogram buckets ending in a
// +Inf edge that equals _count.
func TestWritePromFamilies(t *testing.T) {
	r := New()
	r.Packets.Add(12345)
	r.Epoch.Set(7)
	r.GarbagePPM.Set(250000) // 0.25
	r.ClassifyNs.Observe(1000)
	r.ClassifyNs.Observe(100000)
	r.Events.Record(EvEpochPublish, 7, 0, 0, 0)
	r.RegisterCollector(func(emit func(string, float64)) {
		emit("repro_cache_hits_total", 99)
	})
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range MetricNames() {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("missing TYPE line for %s", name)
		}
	}
	for _, want := range []string{
		"repro_packets_total 12345",
		"repro_epoch 7",
		"repro_garbage_ratio 0.25",
		"repro_events_total 1",
		"# TYPE repro_events_dropped_total counter",
		"repro_events_dropped_total 0",
		`repro_classify_batch_seconds_bucket{le="+Inf"} 2`,
		"repro_classify_batch_seconds_count 2",
		"repro_cache_hits_total 99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every sample line belongs to a registered family and follows that
	// family's TYPE line.
	registered := make(map[string]bool)
	for _, name := range MetricNames() {
		registered[name] = true
	}
	typed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(name)[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fam := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(fam, suffix); ok && registered[base] {
				fam = base
			}
		}
		if !registered[fam] {
			t.Errorf("sample %q: family %s is not in MetricNames()", line, fam)
		}
		if !typed[fam] {
			t.Errorf("sample %q precedes the TYPE line of %s", line, fam)
		}
	}
	// Cumulative bucket sanity: the le edges of a family must carry
	// non-decreasing counts.
	var prev float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "repro_classify_batch_seconds_bucket") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable bucket line %q", line)
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative: %q after %v", line, prev)
		}
		prev = v
	}
}

// A collector can only contribute to a registered family.
func TestWritePromUnregisteredCollectorFamily(t *testing.T) {
	r := New()
	r.RegisterCollector(func(emit func(string, float64)) { emit("repro_no_such_family", 1) })
	if err := r.WriteProm(io.Discard); err == nil {
		t.Error("WriteProm accepted a collector sample with no registered family")
	}
}

// Every Counter, Gauge and Hist field of Recorder must be the source of
// a registry row: a metric field nobody can scrape is the omission the
// table cannot rule out by construction.
func TestRegistryCoversRecorder(t *testing.T) {
	r := New()
	exposed := make(map[uintptr]bool) // addresses of the fields rows read
	for _, f := range r.families() {
		switch src := f.src.(type) {
		case derived:
			exposed[reflect.ValueOf(src.g).Pointer()] = true
		case *Counter, *Gauge, *Hist:
			exposed[reflect.ValueOf(src).Pointer()] = true
		}
	}
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch v.Field(i).Type() {
		case reflect.TypeOf(Counter{}), reflect.TypeOf(Gauge{}), reflect.TypeOf(Hist{}):
			if !exposed[v.Field(i).Addr().Pointer()] {
				t.Errorf("Recorder.%s has no row in families()", v.Type().Field(i).Name)
			}
		}
	}
}

// End-to-end HTTP plane on a loopback listener: /metrics serves the
// text format, /debug/events round-trips through JSON, pprof answers,
// and Close shuts the listener down.
func TestServeEndpoints(t *testing.T) {
	r := New()
	r.Packets.Add(5)
	r.Events.Record(EvBuild, 0, 111, 222, 333)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(metrics, "repro_packets_total 5") {
		t.Error("/metrics missing counter value")
	}

	events, ctype := get("/debug/events")
	if ctype != "application/json" {
		t.Errorf("/debug/events content type %q", ctype)
	}
	var dump EventsDump
	if err := json.Unmarshal([]byte(events), &dump); err != nil {
		t.Fatalf("events JSON: %v", err)
	}
	if len(dump.Events) != 1 || dump.Events[0].Kind != "build" ||
		dump.Events[0].V1 != 111 || dump.Events[0].V3 != 333 {
		t.Errorf("events dump = %+v", dump)
	}

	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline empty")
	}
	if body, _ := get("/"); !strings.Contains(body, "/metrics") {
		t.Error("index page missing endpoint listing")
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("server still answering after Close")
	}
}

// NowNanos must be monotone and the ring must stamp with it.
func TestRecorderClock(t *testing.T) {
	r := New()
	a := r.NowNanos()
	r.Events.Record(EvBuild, 0, 0, 0, 0)
	b := r.NowNanos()
	if a < 0 || b < a {
		t.Fatalf("clock not monotone: %d then %d", a, b)
	}
	ev := r.Events.Snapshot()[0]
	if ev.Nanos < a || ev.Nanos > b {
		t.Errorf("event stamped %d outside [%d,%d]", ev.Nanos, a, b)
	}
}
