package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// family is one row of the metric registry: a /metrics family with its
// type, its help text and where its samples come from. Names follow
// Prometheus conventions: repro_ prefix, _total suffix on counters, base
// units (seconds, ratios in [0,1]).
type family struct {
	name, typ, help string
	// src is a *Counter, *Gauge or *Hist field of the Recorder, a
	// derived gauge, or a func() uint64 over ring state. nil marks a
	// family whose sample a registered collector emits under name.
	src any
}

// derived is a gauge exposed in another unit than its field holds.
type derived struct {
	g *Gauge
	f func(level int64) float64
}

func perMillion(level int64) float64 { return float64(level) / 1e6 }

// families is the registry: every family WriteProm exposes, in
// exposition order, each row carrying its own value source — so a name
// cannot be paired with another field's value, and the documentation
// (DESIGN.md §12) has one list to follow. TestRegistryCoversRecorder
// fails on a Counter, Gauge or Hist field of Recorder without a row.
func (r *Recorder) families() []family {
	return []family{
		{"repro_packets_total", "counter", "Packets classified through the engine handle (batch paths).", &r.Packets},
		{"repro_classify_batches_total", "counter", "Classification batch dispatches through the engine handle.", &r.Batches},
		{"repro_epoch_publishes_total", "counter", "Snapshot epoch publishes (delta patches plus recompile swaps).", &r.Epochs},
		{"repro_deltas_applied_total", "counter", "Control-plane tree deltas replayed onto the engine.", &r.Deltas},
		{"repro_patch_failures_total", "counter", "Delta patches that failed and fell back to a full recompile.", &r.PatchFails},
		{"repro_recompiles_total", "counter", "Full rebuild/swap cycles completed.", &r.Recompiles},
		{"repro_degradation_trips_total", "counter", "Degradation-threshold trips that triggered a recompile.", &r.DegradTrips},
		{"repro_cache_invalidations_total", "counter", "Flow-cache invalidation waves (epoch bumps with a cache attached).", &r.CacheInv},
		{"repro_stream_packets_total", "counter", "Packets delivered by the ingest stream pipeline.", &r.StreamPackets},
		{"repro_stream_batches_total", "counter", "Ingest pipeline batch dispatches.", &r.StreamBatches},
		{"repro_stream_reader_stalls_total", "counter", "Decode-stage stalls waiting for a free pipeline slot.", &r.ReaderStalls},
		{"repro_stream_writer_stalls_total", "counter", "Classify-stage stalls waiting for the writer to drain.", &r.WriterStalls},
		{"repro_scan_kernel_fallbacks_total", "counter", "Scan-kernel override requests that degraded to the probed default.", &r.KernelFallbacks},
		{"repro_events_total", "counter", "Flight-recorder events ever recorded.",
			func() uint64 { return uint64(r.Events.Len()) + r.Events.Dropped() }},
		{"repro_events_dropped_total", "counter", "Flight-recorder events lost to ring wraparound.", r.Events.Dropped},

		{"repro_epoch", "gauge", "Newest published engine epoch.", &r.Epoch},
		{"repro_garbage_ratio", "gauge", "Fraction of the engine arenas that is patch garbage.", derived{&r.GarbagePPM, perMillion}},
		{"repro_degradation", "gauge", "Tree degradation (overgrown or orphaned leaf-table fraction).", derived{&r.DegradationPPM, perMillion}},
		{"repro_snapshot_age_seconds", "gauge", "Seconds since the newest epoch was published.",
			derived{&r.LastPublishNs, func(at int64) float64 { return float64(r.NowNanos()-at) / 1e9 }}},
		{"repro_cache_occupied", "gauge", "Live flow-cache entries at the last epoch publish.", &r.CacheOccupied},
		{"repro_stream_work_queue", "gauge", "Stream work-ring occupancy at the last dispatch.", &r.WorkQueue},
		{"repro_stream_done_queue", "gauge", "Stream done-ring occupancy at the last dispatch.", &r.DoneQueue},

		{"repro_classify_batch_seconds", "histogram", "Per-batch classify latency on the engine-handle paths.", &r.ClassifyNs},
		{"repro_patch_seconds", "histogram", "Delta patch + epoch publish latency.", &r.PatchNs},
		{"repro_recompile_seconds", "histogram", "Relayout + compile + swap latency.", &r.RecompileNs},
		{"repro_build_seconds", "histogram", "Full tree build latency.", &r.BuildNs},
		{"repro_stream_batch_seconds", "histogram", "Per-batch classify+encode latency in the ingest pipeline.", &r.StreamBatchNs},

		// Collector families: state that lives outside the Recorder (the
		// flow cache's own counters, the facade's tree), sampled at
		// scrape time. A family no collector emits has no sample line.
		{"repro_cache_hits_total", "counter", "Flow-cache lookups answered from the cache at the caller's epoch.", nil},
		{"repro_cache_misses_total", "counter", "Flow-cache lookups that fell through to the tree walk.", nil},
		{"repro_cache_bypassed_total", "counter", "Packets the flow cache's admission policy answered from the engine without a probe or an insert.", nil},
		{"repro_cache_stale_evictions_total", "counter", "Flow-cache entries dropped because a newer epoch touched them.", nil},
		{"repro_cache_evictions_total", "counter", "Live same-epoch flow-cache entries displaced by an insert into a full set.", nil},
		{"repro_cache_inserts_total", "counter", "Flow-cache repopulations after a miss.", nil},
		{"repro_cache_live_entries", "gauge", "Live flow-cache entries at scrape time.", nil},
		{"repro_cache_bypass_active", "gauge", "1 while the flow cache's follower sets are bypassed (recent hit ratio under break-even), else 0.", nil},
		{"repro_tree_degradation", "gauge", "Tree degradation at scrape time (overgrown or orphaned leaf-table fraction).", nil},
		{"repro_tree_orphan_leaves", "gauge", "Leaves that lost their last reference to incremental updates and await relayout.", nil},
		{"repro_tree_words", "gauge", "4800-bit memory words the search structure uses.", nil},
	}
}

// MetricNames returns every registered family name, sorted — the
// contract the endpoint smoke tests assert against.
func MetricNames() []string {
	var names []string
	for _, f := range new(Recorder).families() {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}

// WriteProm renders the Recorder in the Prometheus text exposition
// format (version 0.0.4): every registered family in registry order.
// Histograms are exposed with cumulative log2 `le` edges in seconds. A
// collector sample under an unregistered name is an error.
func (r *Recorder) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	collected := make(map[string]float64)
	r.collect(func(name string, value float64) { collected[name] = value })
	for _, f := range r.families() {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch src := f.src.(type) {
		case *Counter:
			fmt.Fprintf(bw, "%s %d\n", f.name, src.Load())
		case func() uint64:
			fmt.Fprintf(bw, "%s %d\n", f.name, src())
		case *Gauge:
			fmt.Fprintf(bw, "%s %g\n", f.name, float64(src.Load()))
		case derived:
			fmt.Fprintf(bw, "%s %g\n", f.name, src.f(src.g.Load()))
		case *Hist:
			writeHist(bw, f.name, src.Snapshot())
		case nil:
			if v, ok := collected[f.name]; ok {
				fmt.Fprintf(bw, "%s %g\n", f.name, v)
				delete(collected, f.name)
			}
		default:
			return fmt.Errorf("telemetry: family %s has unsupported source %T", f.name, src)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	for name := range collected {
		return fmt.Errorf("telemetry: collector emitted unregistered family %s", name)
	}
	return nil
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
