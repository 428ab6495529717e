// Package telemetry is the flight recorder for the classification
// plane: a zero-allocation metrics core (atomic counters and gauges plus
// log2-bucket latency histograms) and a fixed-size ring of
// structured lifecycle events, with an optional HTTP exposition plane
// (Prometheus text format on /metrics, the event ring on /debug/events,
// and net/http/pprof).
//
// The package is deliberately dependency-free (stdlib only) so every
// layer of the stack — engine, stream, the repro facade — can emit into
// one Recorder without import cycles. The design constraint it is built
// around: instrumentation must be shaped so the classification hot path
// stays zero-alloc and within ~2% of its uninstrumented throughput.
// Concretely that means
//
//   - counters and gauges are single atomic words (one LOCK ADD per
//     batch, never per packet);
//   - a histogram observe is three atomic adds, and observers arrive
//     once per batch, build or update, never per packet, so one set of
//     words serves them all;
//   - the event ring records control-plane lifecycle transitions (epoch
//     publishes, recompiles, degradation trips — tens per second at
//     most), never data-plane packets, so a mutex there costs nothing
//     that matters.
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomically readable/settable int64 level. The zero value
// is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram geometry: bucket b counts observations whose nanosecond
// value v satisfies 2^(b-1) <= v < 2^b (bucket 0 counts v < 1, i.e.
// non-positive or sub-nanosecond observations). 48 buckets reach 2^47 ns
// ≈ 39 hours, far beyond any latency this system produces, so the last
// bucket never saturates in practice but still catches pathologies.
// HistBuckets is the number of log2 latency buckets.
const HistBuckets = 48

// Hist is a concurrent log2-bucket latency histogram. Observe is
// lock-free and allocation-free. The zero value is ready to use.
type Hist struct {
	count  atomic.Uint64
	sum    atomic.Uint64 // total observed nanoseconds
	bucket [HistBuckets]atomic.Uint64
}

// histBucket maps a nanosecond value to its log2 bucket.
func histBucket(nanos int64) int {
	if nanos <= 0 {
		return 0
	}
	b := bits.Len64(uint64(nanos))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one latency sample of nanos nanoseconds.
func (h *Hist) Observe(nanos int64) {
	h.count.Add(1)
	h.sum.Add(uint64(nanos))
	h.bucket[histBucket(nanos)].Add(1)
}

// Reset zeroes the histogram. Not atomic with respect to concurrent
// observers; intended for pooled single-writer uses (the stream
// pipeline's per-run histogram).
func (h *Hist) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for b := range h.bucket {
		h.bucket[b].Store(0)
	}
}

// HistSnapshot is a point-in-time view of a Hist.
type HistSnapshot struct {
	Count  uint64
	SumNs  uint64
	Bucket [HistBuckets]uint64
}

// Snapshot reads the histogram. Under concurrent observers the result is
// approximate (buckets may be one observation ahead of the count) but
// every individual word is consistent.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), SumNs: h.sum.Load()}
	for b := range h.bucket {
		s.Bucket[b] = h.bucket[b].Load()
	}
	return s
}

// Mean returns the mean observed value in nanoseconds, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) in nanoseconds by
// locating the bucket holding the q-th observation and interpolating
// geometrically within its [2^(b-1), 2^b) span. The estimate is exact to
// within a factor of 2 by construction — the resolution log2 bucketing
// buys its zero-overhead recording with.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for b := 0; b < HistBuckets; b++ {
		n := float64(s.Bucket[b])
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketBounds(b)
			// Geometric interpolation: position within the bucket in
			// log space, matching the bucket geometry.
			frac := 0.5
			if n > 0 {
				frac = (rank - seen) / n
				if frac < 0 {
					frac = 0
				}
				if frac > 1 {
					frac = 1
				}
			}
			return lo * math.Pow(hi/lo, frac)
		}
		seen += n
	}
	_, hi := bucketBounds(HistBuckets - 1)
	return hi
}

// bucketBounds returns bucket b's value span [lo, hi) in nanoseconds,
// with bucket 0 treated as [1, 1] (sub-nanosecond observations).
func bucketBounds(b int) (lo, hi float64) {
	if b <= 0 {
		return 1, 1
	}
	return float64(uint64(1) << (b - 1)), float64(uint64(1) << b)
}

// BucketUpperNs returns the exclusive upper bound of bucket b in
// nanoseconds — the Prometheus `le` edge of the exposition format.
func BucketUpperNs(b int) uint64 {
	if b < 0 {
		b = 0
	}
	if b >= 63 {
		return math.MaxUint64
	}
	return uint64(1) << b
}

// Recorder aggregates the classification plane's metrics: the well-known
// counters, gauges and histograms every layer emits into, the flight
// recorder ring, and scrape-time collectors for subsystems that already
// keep their own live counters (the flow cache, the tree). One Recorder
// serves one Accelerator (or one CLI process).
type Recorder struct {
	start time.Time

	// Data plane.
	Packets  Counter // packets classified through the engine handle
	Batches  Counter // classification batch dispatches
	CacheInv Counter // cache-invalidation waves (epoch bumps with a cache attached)

	// Control plane.
	Epochs      Counter // epoch publishes (patches + swaps)
	Deltas      Counter // tree deltas applied
	PatchFails  Counter // delta patches that fell back to recompile
	Recompiles  Counter // full rebuild/swap cycles completed
	DegradTrips Counter // degradation-threshold trips (recompile triggers)

	// Configuration degradations.
	KernelFallbacks Counter // scan-kernel overrides that fell back to the probed default

	// Stream (ingest pipeline).
	StreamPackets Counter
	StreamBatches Counter
	ReaderStalls  Counter // decode stage found no free slot (writer-bound)
	WriterStalls  Counter // classify stage found the done ring full

	// Levels.
	Epoch          Gauge // newest published epoch
	GarbagePPM     Gauge // engine arena garbage ratio, parts per million
	DegradationPPM Gauge // tree degradation, parts per million
	LastPublishNs  Gauge // NowNanos at the last epoch publish (snapshot age = now - this)
	CacheOccupied  Gauge
	WorkQueue      Gauge // stream work-ring occupancy at last dispatch
	DoneQueue      Gauge // stream done-ring occupancy at last dispatch

	// Latency.
	ClassifyNs    Hist // per-batch classify latency (engine handle paths)
	PatchNs       Hist // delta patch + publish latency
	RecompileNs   Hist // relayout + compile + swap latency
	BuildNs       Hist // full tree build latency
	StreamBatchNs Hist // per-batch classify+encode latency in the stream pipeline

	// Events is the flight recorder.
	Events Ring

	mu         sync.Mutex
	collectors []func(emit func(name string, value float64))
}

// New returns a Recorder with a DefaultRingSize flight recorder, its
// monotonic clock starting now.
func New() *Recorder {
	r := &Recorder{start: time.Now()}
	r.Events.init(DefaultRingSize, r.NowNanos)
	return r
}

// NowNanos returns monotonic nanoseconds since the recorder was created
// — the timestamp base of every event and age gauge. It allocates
// nothing (time.Since reads the monotonic clock).
func (r *Recorder) NowNanos() int64 { return int64(time.Since(r.start)) }

// RegisterCollector adds a scrape-time callback: during exposition it is
// invoked with an emit function and contributes gauge-valued samples for
// state that lives elsewhere (flow-cache counters, tree degradation).
// Collectors run only at scrape time, so they may take locks.
func (r *Recorder) RegisterCollector(f func(emit func(name string, value float64))) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// collect runs the registered collectors.
func (r *Recorder) collect(emit func(name string, value float64)) {
	r.mu.Lock()
	cs := r.collectors
	r.mu.Unlock()
	for _, f := range cs {
		f(emit)
	}
}
