package telemetry

import "sync"

// EventKind identifies a lifecycle transition of the classification
// plane. Every kind's V1/V2/V3 payload semantics are part of the flight
// recorder's schema (documented per constant and in DESIGN.md §12).
type EventKind uint8

// Flight-recorder event kinds.
const (
	// EvBuild: a full tree build completed.
	// V1 = build nanoseconds, V2 = rules, V3 = memory words.
	EvBuild EventKind = iota + 1
	// EvDeltaApply: a control-plane delta was absorbed by the tree.
	// V1 = dirty device words, V2 = rules touched (inserted/deleted),
	// V3 = leaf edits.
	EvDeltaApply
	// EvPatchBatch: a burst of deltas was replayed onto the engine as
	// one copy-on-write patch. V1 = deltas in the batch, V2 = patch
	// nanoseconds, V3 = engine garbage ratio in ppm after the patch.
	EvPatchBatch
	// EvEpochPublish: a new snapshot became current (patch or swap).
	// V1 = 0 for a patch publish, 1 for a swap; V2 = publish
	// nanoseconds; V3 = garbage ppm of the published engine.
	EvEpochPublish
	// EvDegradationTrip: degradation or garbage crossed the recompile
	// threshold and a background rebuild was triggered.
	// V1 = degradation ppm, V2 = garbage ppm, V3 = threshold ppm.
	EvDegradationTrip
	// EvRecompileStart: a background (or inline) recompile began.
	// V1 = degradation ppm at start, V2 = orphaned leaves, V3 = 0.
	EvRecompileStart
	// EvRecompileDone: the recompile's swap landed.
	// V1 = recompile nanoseconds, V2 = memory words after,
	// V3 = degradation ppm remaining (the irreducible floor).
	EvRecompileDone
	// EvCacheInvalidate: an epoch bump started a flow-cache
	// invalidation wave (entries stamped with older epochs stop
	// hitting). V1 = cache occupancy at the bump, V2 = 0, V3 = 0.
	EvCacheInvalidate
	// EvPatchFail: a delta patch failed and updates fell back to a full
	// recompile. V1 = deltas in the failed batch, V2 = 0, V3 = 0.
	EvPatchFail
	// EvDeviceWrite: the simulated device memory absorbed an update.
	// V1 = write cycles spent (words rewritten), V2 = 1 for a full
	// re-encode, 0 for a word-level patch, V3 = 0.
	EvDeviceWrite
	// EvKernelFallback: a scan-kernel override (REPRO_SCAN_KERNEL or
	// config) could not be satisfied and the process degraded to the
	// probed default. V1 = V2 = V3 = 0; the reason is logged once.
	EvKernelFallback
	// EvCacheMode: the flow cache's admission policy changed mode at a
	// window boundary. V1 = 1 entering bypass (follower sets no longer
	// probed or filled), 0 resuming; V2 = hits and V3 = probed lookups of
	// the window that decided it.
	EvCacheMode
)

// String names the kind for exposition.
func (k EventKind) String() string {
	switch k {
	case EvBuild:
		return "build"
	case EvDeltaApply:
		return "delta_apply"
	case EvPatchBatch:
		return "patch_batch"
	case EvEpochPublish:
		return "epoch_publish"
	case EvDegradationTrip:
		return "degradation_trip"
	case EvRecompileStart:
		return "recompile_start"
	case EvRecompileDone:
		return "recompile_done"
	case EvCacheInvalidate:
		return "cache_invalidate"
	case EvPatchFail:
		return "patch_fail"
	case EvDeviceWrite:
		return "device_write"
	case EvKernelFallback:
		return "kernel_fallback"
	case EvCacheMode:
		return "cache_mode"
	}
	return "unknown"
}

// Event is one flight-recorder record: a lifecycle transition stamped
// with a monotonic timestamp and the epoch it concerns. The three V
// payload words carry per-kind quantities (see the EventKind constants)
// — fixed-width integers, so recording allocates nothing.
type Event struct {
	// Seq is the global record sequence number, starting at 1. Gaps
	// never occur; a snapshot whose first event has Seq > 1 has lost
	// Seq-1 older events to ring wraparound.
	Seq uint64
	// Nanos is the monotonic record time (Recorder.NowNanos base).
	Nanos int64
	// Kind is the lifecycle transition.
	Kind EventKind
	// Epoch is the engine epoch the event concerns (the epoch being
	// published, or the current epoch when the event is not a publish).
	Epoch uint64
	// V1, V2, V3 are the kind-specific payload.
	V1, V2, V3 int64
}

// DefaultRingSize is the flight-recorder capacity New configures:
// control-plane events arrive at update-burst rate, so 1024 records hold
// minutes-to-hours of history in steady state.
const DefaultRingSize = 1024

// Ring is the fixed-size flight recorder. Record is mutex-guarded —
// events are control-plane-rate, so contention is irrelevant — and
// allocation-free; Snapshot copies out the retained events oldest-first.
type Ring struct {
	mu   sync.Mutex
	now  func() int64
	buf  []Event
	seq  uint64 // records ever written; buf[(seq-1) % len] is the newest
	drop uint64 // records lost to wraparound (== max(0, seq-len))
}

// init sizes the ring; called by Recorder.New. now supplies timestamps.
func (r *Ring) init(size int, now func() int64) {
	if size <= 0 {
		size = DefaultRingSize
	}
	r.buf = make([]Event, size)
	r.now = now
}

// Record appends one event, overwriting the oldest when full.
func (r *Ring) Record(kind EventKind, epoch uint64, v1, v2, v3 int64) {
	r.mu.Lock()
	if r.buf == nil { // zero-value Ring: usable, default-sized
		r.buf = make([]Event, DefaultRingSize)
	}
	r.seq++
	var ns int64
	if r.now != nil {
		ns = r.now()
	}
	r.buf[(r.seq-1)%uint64(len(r.buf))] = Event{
		Seq: r.seq, Nanos: ns, Kind: kind, Epoch: epoch, V1: v1, V2: v2, V3: v3,
	}
	r.mu.Unlock()
}

// Len reports how many events the ring currently retains.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq < uint64(len(r.buf)) {
		return int(r.seq)
	}
	return len(r.buf)
}

// Dropped reports how many events have been lost to wraparound.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if uint64(len(r.buf)) >= r.seq {
		return 0
	}
	return r.seq - uint64(len(r.buf))
}

// Snapshot returns the retained events oldest-first. The returned slice
// is a private copy.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq == 0 || len(r.buf) == 0 {
		return nil
	}
	n := uint64(len(r.buf))
	count := r.seq
	if count > n {
		count = n
	}
	out := make([]Event, count)
	// Oldest retained record is seq r.seq-count+1 at buf[(r.seq-count) % n].
	start := (r.seq - count) % n
	for i := uint64(0); i < count; i++ {
		out[i] = r.buf[(start+i)%n]
	}
	return out
}
