package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flowcache"
	"repro/internal/rule"
	"repro/internal/telemetry"
)

// Snapshot is one published epoch of the flat image: an immutable Engine
// plus the epoch counter it was installed at. Readers that capture a
// Snapshot classify against a consistent structure for as long as they
// hold it, regardless of concurrent updates.
type Snapshot struct {
	eng   *Engine
	epoch uint64
}

// Engine returns the snapshot's immutable engine.
func (s *Snapshot) Engine() *Engine { return s.eng }

// Epoch returns the snapshot's version: 0 for the engine a Handle was
// created with, incremented by every Apply, ApplyBatch or Swap.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Handle is the epoch-versioned publication point between one updater
// and many readers, the software twin of the paper's §4 split between
// the classifying accelerator and the control-plane processor that
// updates the off-chip copy.
//
// Readers call Current (a single atomic pointer load — no locks, no
// reference counting) and classify on the returned snapshot; they
// observe updates whenever they next call Current. The updater applies
// tree deltas with Apply (or a whole burst with ApplyBatch), which
// patches the newest snapshot and installs the result as the next epoch;
// Swap installs a freshly compiled engine when patch garbage or tree
// degradation warrants a full rebuild. Apply, ApplyBatch and Swap
// serialize on an internal mutex, so the handle is safe for concurrent
// use from any number of goroutines on both sides.
//
// EnableCache attaches a sharded flow cache in front of the snapshot
// chain; ClassifyBatchCached and ClassifySharded then serve repeated flows
// from one hash probe, using the epoch as the invalidation signal (see
// package flowcache). Without a cache they are exactly the uncached
// paths, so callers can use them unconditionally.
type Handle struct {
	cur   atomic.Pointer[Snapshot]
	mu    sync.Mutex // serializes updaters (Apply/ApplyBatch/Swap)
	cache atomic.Pointer[flowcache.Cache]
	tel   atomic.Pointer[telemetry.Recorder]
}

// SetTelemetry attaches a telemetry recorder: classification paths count
// packets/batches and observe per-batch latency into it, and updaters
// record epoch-publish metrics and flight-recorder events. Attaching is
// safe at any time (readers observe it on their next call); nil
// detaches. The instrumentation is shaped for the hot path — one atomic
// add and two monotonic clock reads per batch, nothing per packet — so
// classification stays zero-alloc and within ~2% of its uninstrumented
// rate (pinned by BenchmarkTelemetryOverhead and the CI gate).
func (h *Handle) SetTelemetry(r *telemetry.Recorder) { h.tel.Store(r) }

// Telemetry returns the attached recorder, or nil.
func (h *Handle) Telemetry() *telemetry.Recorder { return h.tel.Load() }

// NewHandle publishes e as epoch 0.
func NewHandle(e *Engine) *Handle {
	h := &Handle{}
	h.cur.Store(&Snapshot{eng: e})
	return h
}

// Current returns the newest published snapshot. It is lock-free and
// safe to call from any goroutine at any time.
func (h *Handle) Current() *Snapshot { return h.cur.Load() }

// EnableCache attaches a fresh flow cache with at least entries slots
// (entries <= 0 selects flowcache.DefaultEntries) and returns it. Safe at
// any time, including with readers in flight — they observe the cache on
// their next call. Cached entries are stamped with snapshot epochs, so no
// flush is ever needed around updates.
func (h *Handle) EnableCache(entries int) *flowcache.Cache {
	c := flowcache.New(entries)
	h.cache.Store(c)
	return c
}

// Cache returns the attached flow cache, or nil when caching is disabled.
func (h *Handle) Cache() *flowcache.Cache { return h.cache.Load() }

// ClassifyBatchCached classifies pkts[i] into out[i] through the flow
// cache, capturing one snapshot for the whole batch (updates land between
// batches, never mid-batch). It allocates nothing; out must be at least
// as long as pkts.
//
//repro:hotpath
func (h *Handle) ClassifyBatchCached(pkts []rule.Packet, out []int32) {
	s := h.cur.Load()
	c := h.cache.Load()
	tel := h.tel.Load()
	if tel == nil {
		if c == nil {
			s.eng.ClassifyBatch(pkts, out)
			return
		}
		classifyCachedRange(s, c, tel, pkts, out)
		return
	}
	// Telemetry cost is per batch, never per packet: two monotonic
	// clock reads, one histogram observe, two atomic adds.
	//repro:allow hotpath -- documented per-batch site: one clock read per batch, not per packet
	start := time.Now()
	if c == nil {
		s.eng.ClassifyBatch(pkts, out)
	} else {
		classifyCachedRange(s, c, tel, pkts, out)
	}
	//repro:allow hotpath -- documented per-batch site: paired clock read for the batch latency observe
	tel.ClassifyNs.Observe(int64(time.Since(start)))
	tel.Packets.Add(uint64(len(pkts)))
	tel.Batches.Inc()
}

// classifyCachedRange answers pkts through the cache under its admission
// policy (flowcache.LookupBatch): hits are already in out; a miss is
// re-probed, walked and inserted; the packets the policy kept away from
// the cache are answered by the engine alone, a block at a time, once
// the loop has counted them.
func classifyCachedRange(s *Snapshot, c *flowcache.Cache, tel *telemetry.Recorder, pkts []rule.Packet, out []int32) {
	hits := uint64(c.LookupBatch(pkts, s.epoch, out))
	var misses, bypassed uint64
	if hits != uint64(len(pkts)) {
		for i := 0; ; i++ {
			// Skip the cached answers (both sentinels sort below every
			// rule ID) in a loop of their own: as a branch of the loop
			// below, the compiler spills that loop's counters once per
			// hit.
			for i < len(pkts) && out[i] > flowcache.NoEntry {
				i++
			}
			if i == len(pkts) {
				break
			}
			if out[i] == flowcache.NotProbed {
				bypassed++
				continue
			}
			// Re-probe before walking: an earlier miss in this pass may
			// have repopulated the flow (packet trains put the same
			// 5-tuple in one batch many times), and right after an epoch
			// bump that is the difference between one tree walk per
			// train and one per packet.
			if rid, ok := c.Probe(pkts[i], s.epoch); ok {
				out[i] = rid
				hits++
				continue
			}
			rid := int32(s.eng.Classify(pkts[i]))
			c.Insert(pkts[i], s.epoch, rid)
			out[i] = rid
			misses++
		}
		if bypassed != 0 {
			s.eng.classifyMarked(pkts, out, flowcache.NotProbed)
		}
	}
	// One counter flush per batch keeps the hit path free of
	// read-modify-writes; it is also where the admission mode is
	// re-decided.
	if flipped, bypassing, winHits, winProbed := c.NoteLookups(hits, misses, bypassed); flipped && tel != nil {
		recordCacheMode(tel, s.epoch, bypassing, winHits, winProbed)
	}
}

// recordCacheMode puts an admission-mode flip in the flight recorder.
//
//repro:coldpath a flip happens at most once per admission window (thousands of lookups), never per packet
func recordCacheMode(tel *telemetry.Recorder, epoch uint64, bypassing bool, winHits, winProbed uint64) {
	mode := int64(0)
	if bypassing {
		mode = 1
	}
	tel.Events.Record(telemetry.EvCacheMode, epoch, mode, int64(winHits), int64(winProbed))
}

// ClassifySharded is the one place this system spreads a batch over
// cores. It cuts pkts into up to shards contiguous ranges of equal length
// (the last may be shorter; fewer when the batch has fewer packets than
// shards), classifies each range into out exactly as ClassifyBatchCached
// would, and calls tail(k, lo, hi) for shard k once out[lo:hi] is final —
// on the goroutine that classified it, so per-shard follow-up work (the
// stream's result encoding) needs no second fan-out. The call returns
// when every tail has. tail is not called for an empty batch.
//
// One shard is ClassifyBatchCached and tail on the calling goroutine.
// More run on a goroutine each while the caller waits. Keeping shard 0
// on the caller was built first and cost acl10k-scatter 17% of
// ingest_wire_mpps and +50 us of stream_rtt_p50_us at two shards (4 of 4
// pairs): a lone spawned goroutine sits in the spawning P's runnext
// slot, which an idle P steals only after a back-off sleep, while a
// caller that blocks hands its P that goroutine at once.
//
// The batch is one batch in every other respect: one snapshot (every
// shard observes the same epoch), one cache, Packets and Batches tick
// once, and the ClassifyNs observe is the span from the call to the
// moment the slowest shard finished classifying — read by that shard
// alone, before its tail, so tail time is never counted as classify
// time.
func (h *Handle) ClassifySharded(pkts []rule.Packet, out []int32, shards int, tail func(k, lo, hi int)) {
	n := len(pkts)
	shards = max(shards, 1)
	chunk := (n + shards - 1) / shards
	if chunk >= n {
		h.ClassifyBatchCached(pkts, out)
		if n > 0 {
			tail(0, 0, n)
		}
		return
	}
	s := h.cur.Load()
	c := h.cache.Load()
	tel := h.tel.Load()
	_ = out[:n] // a short out panics here, not on a shard's goroutine
	// What the shards share, as one heap object per batch.
	var run struct {
		wg          sync.WaitGroup
		classifying atomic.Int32 // shards yet to finish classifying
		start       time.Time
	}
	if tel != nil {
		run.classifying.Store(int32((n + chunk - 1) / chunk))
		run.start = time.Now()
	}
	for k, lo := 0, 0; lo < n; k, lo = k+1, lo+chunk {
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			hi := min(lo+chunk, n)
			if c == nil {
				s.eng.ClassifyBatch(pkts[lo:hi], out[lo:hi])
			} else {
				classifyCachedRange(s, c, tel, pkts[lo:hi], out[lo:hi])
			}
			if tel != nil && run.classifying.Add(-1) == 0 {
				tel.ClassifyNs.Observe(int64(time.Since(run.start)))
			}
			tail(k, lo, hi)
		}()
	}
	run.wg.Wait()
	if tel != nil {
		tel.Packets.Add(uint64(n))
		tel.Batches.Inc()
	}
}

// Apply patches the newest snapshot with d and publishes the result as
// the next epoch. Readers keep classifying on their captured snapshots
// throughout; there is no quiescence period and no stall.
func (h *Handle) Apply(d *core.Delta) (*Snapshot, error) {
	return h.ApplyBatch([]*core.Delta{d})
}

// ApplyBatch coalesces a burst of consecutive deltas into one
// copy-on-write patch (engine.PatchBatch) and one epoch swap. Use it for
// control-plane update storms: N inserts cost one snapshot publication
// instead of N, so attached flow caches see one invalidation epoch per
// burst rather than thrashing once per rule. An empty batch returns the
// current snapshot unchanged.
func (h *Handle) ApplyBatch(ds []*core.Delta) (*Snapshot, error) {
	if len(ds) == 0 {
		return h.cur.Load(), nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	tel := h.tel.Load()
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	old := h.cur.Load()
	ne, err := old.eng.PatchBatch(ds)
	if err != nil {
		if tel != nil {
			tel.PatchFails.Inc()
			tel.Events.Record(telemetry.EvPatchFail, old.epoch, int64(len(ds)), 0, 0)
		}
		return nil, err
	}
	s := &Snapshot{eng: ne, epoch: old.epoch + 1}
	h.cur.Store(s)
	if tel != nil {
		ns := int64(time.Since(start))
		tel.Deltas.Add(uint64(len(ds)))
		tel.PatchNs.Observe(ns)
		g := int64(ne.GarbageRatio() * 1e6)
		tel.Events.Record(telemetry.EvPatchBatch, s.epoch, int64(len(ds)), ns, g)
		h.notePublish(tel, s, 0, ns, g)
	}
	return s, nil
}

// notePublish records the epoch-publish metrics and events common to
// patch publishes (kind 0) and swaps (kind 1): the epoch/garbage gauges,
// the publish timestamp (the base of the snapshot-age gauge), the
// publish event, and — when a flow cache is attached — the invalidation
// wave the epoch bump starts.
func (h *Handle) notePublish(tel *telemetry.Recorder, s *Snapshot, kind, ns, garbagePPM int64) {
	tel.Epochs.Inc()
	tel.Epoch.Set(int64(s.epoch))
	tel.GarbagePPM.Set(garbagePPM)
	tel.LastPublishNs.Set(tel.NowNanos())
	tel.Events.Record(telemetry.EvEpochPublish, s.epoch, kind, ns, garbagePPM)
	if c := h.cache.Load(); c != nil {
		occ := int64(c.Stats().Occupied)
		tel.CacheInv.Inc()
		tel.CacheOccupied.Set(occ)
		tel.Events.Record(telemetry.EvCacheInvalidate, s.epoch, occ, 0, 0)
	}
}

// Swap publishes a freshly compiled engine as the next epoch, replacing
// the patch chain (and its accumulated garbage) wholesale. It is the
// degradation-triggered full-recompile path.
func (h *Handle) Swap(e *Engine) *Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.cur.Load()
	s := &Snapshot{eng: e, epoch: old.epoch + 1}
	h.cur.Store(s)
	if tel := h.tel.Load(); tel != nil {
		h.notePublish(tel, s, 1, 0, int64(e.GarbageRatio()*1e6))
	}
	return s
}
