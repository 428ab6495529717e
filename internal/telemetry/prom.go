package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Metric-name registry. Every family the Recorder exposes on /metrics is
// listed here with its type and help text, so the exposition format and
// the documentation (DESIGN.md §12) cannot drift from the code. Names
// follow Prometheus conventions: repro_ prefix, _total suffix on
// counters, base units (seconds, ratios in [0,1]).
type metricDef struct {
	name, typ, help string
}

var counterDefs = []metricDef{
	{"repro_packets_total", "counter", "Packets classified through the engine handle (batch paths)."},
	{"repro_classify_batches_total", "counter", "Classification batch dispatches through the engine handle."},
	{"repro_classify_singles_total", "counter", "Single-packet cached classify calls."},
	{"repro_epoch_publishes_total", "counter", "Snapshot epoch publishes (delta patches plus recompile swaps)."},
	{"repro_deltas_applied_total", "counter", "Control-plane tree deltas replayed onto the engine."},
	{"repro_patch_failures_total", "counter", "Delta patches that failed and fell back to a full recompile."},
	{"repro_recompiles_total", "counter", "Full rebuild/swap cycles completed."},
	{"repro_degradation_trips_total", "counter", "Degradation-threshold trips that triggered a recompile."},
	{"repro_cache_invalidations_total", "counter", "Flow-cache invalidation waves (epoch bumps with a cache attached)."},
	{"repro_stream_packets_total", "counter", "Packets delivered by the ingest stream pipeline."},
	{"repro_stream_batches_total", "counter", "Ingest pipeline batch dispatches."},
	{"repro_stream_reader_stalls_total", "counter", "Decode-stage stalls waiting for a free pipeline slot."},
	{"repro_stream_writer_stalls_total", "counter", "Classify-stage stalls waiting for the writer to drain."},
	{"repro_scan_kernel_fallbacks_total", "counter", "Scan-kernel override requests that degraded to the probed default."},
	//repro:allow metricdefs -- exposed from Ring.seq, the flight recorder's own cursor, not a Recorder Counter field
	{"repro_events_total", "counter", "Flight-recorder events ever recorded."},
	//repro:allow metricdefs -- computed from ring state (seq minus capacity), not a Recorder Counter field
	{"repro_events_dropped_total", "counter", "Flight-recorder events lost to ring wraparound."},
}

var gaugeDefs = []metricDef{
	{"repro_epoch", "gauge", "Newest published engine epoch."},
	{"repro_garbage_ratio", "gauge", "Fraction of the engine arenas that is patch garbage."},
	{"repro_degradation", "gauge", "Tree degradation (overgrown or orphaned leaf-table fraction)."},
	{"repro_snapshot_age_seconds", "gauge", "Seconds since the newest epoch was published."},
	{"repro_cache_occupied", "gauge", "Live flow-cache entries at the last epoch publish."},
	{"repro_stream_work_queue", "gauge", "Stream work-ring occupancy at the last dispatch."},
	{"repro_stream_done_queue", "gauge", "Stream done-ring occupancy at the last dispatch."},
}

var histDefs = []metricDef{
	{"repro_classify_batch_seconds", "histogram", "Per-batch classify latency on the engine-handle paths."},
	{"repro_patch_seconds", "histogram", "Delta patch + epoch publish latency."},
	{"repro_recompile_seconds", "histogram", "Relayout + compile + swap latency."},
	{"repro_build_seconds", "histogram", "Full tree build latency."},
	{"repro_stream_batch_seconds", "histogram", "Per-batch classify+encode latency in the ingest pipeline."},
}

// MetricNames returns every registered family name, sorted — the
// contract the endpoint smoke tests assert against.
func MetricNames() []string {
	var names []string
	for _, d := range counterDefs {
		names = append(names, d.name)
	}
	for _, d := range gaugeDefs {
		names = append(names, d.name)
	}
	for _, d := range histDefs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// WriteProm renders the Recorder in the Prometheus text exposition
// format (version 0.0.4): every registered family, then the samples the
// scrape-time collectors contribute (flow cache, tree state). Histograms
// are exposed with cumulative log2 `le` edges in seconds.
func (r *Recorder) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)

	counters := []*Counter{
		&r.Packets, &r.Batches, &r.Singles,
		&r.Epochs, &r.Deltas, &r.PatchFails, &r.Recompiles, &r.DegradTrips,
		&r.CacheInv,
		&r.StreamPackets, &r.StreamBatches, &r.ReaderStalls, &r.WriterStalls,
		&r.KernelFallbacks,
	}
	for i, d := range counterDefs[:len(counters)] {
		writeHeader(bw, d)
		fmt.Fprintf(bw, "%s %d\n", d.name, counters[i].Load())
	}
	// repro_events_total and repro_events_dropped_total ride the ring's
	// sequence counter.
	r.Events.mu.Lock()
	seq, dropped := r.Events.seq, uint64(0)
	if n := uint64(len(r.Events.buf)); n < seq {
		dropped = seq - n
	}
	r.Events.mu.Unlock()
	for i, v := range []uint64{seq, dropped} {
		d := counterDefs[len(counters)+i]
		writeHeader(bw, d)
		fmt.Fprintf(bw, "%s %d\n", d.name, v)
	}

	now := r.NowNanos()
	age := float64(now-r.LastPublishNs.Load()) / 1e9
	gaugeVals := []float64{
		float64(r.Epoch.Load()),
		float64(r.GarbagePPM.Load()) / 1e6,
		float64(r.DegradationPPM.Load()) / 1e6,
		age,
		float64(r.CacheOccupied.Load()),
		float64(r.WorkQueue.Load()),
		float64(r.DoneQueue.Load()),
	}
	for i, d := range gaugeDefs {
		writeHeader(bw, d)
		fmt.Fprintf(bw, "%s %g\n", d.name, gaugeVals[i])
	}

	hists := []*Hist{&r.ClassifyNs, &r.PatchNs, &r.RecompileNs, &r.BuildNs, &r.StreamBatchNs}
	for i, d := range histDefs {
		writeHeader(bw, d)
		writeHist(bw, d.name, hists[i].Snapshot())
	}

	// Collector samples (flow cache, tree degradation, ...): exposed as
	// untyped samples under the collector-chosen names.
	r.collect(func(name string, value float64) {
		fmt.Fprintf(bw, "%s %g\n", name, value)
	})
	return bw.Flush()
}

func writeHeader(w io.Writer, d metricDef) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, d.typ)
}

// writeHist renders one histogram family with cumulative buckets. Empty
// log2 buckets are skipped (the cumulative count is still correct at
// every emitted edge); the +Inf bucket is always present.
func writeHist(w io.Writer, name string, s HistSnapshot) {
	var cum uint64
	for b := 0; b < HistBuckets; b++ {
		if s.Bucket[b] == 0 {
			continue
		}
		cum += s.Bucket[b]
		le := float64(BucketUpperNs(b)) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(s.SumNs)/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}
