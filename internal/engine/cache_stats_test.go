package engine

import (
	"sync"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/flowcache"
	"repro/internal/rule"
	"repro/internal/telemetry"
)

// Stats reconciliation for the cached sharded path: the lock-free hit
// path defers all hit/miss accounting to one NoteLookups flush per
// sub-batch, so an early exit or a lost flush anywhere in the
// shard/re-probe protocol would silently undercount. These tests pin
// the conservation laws against ground-truth probe counts:
//
//   - every packet presented to a ...Cached path is tallied exactly
//     once: Hits + Misses + Bypassed == packets presented (Bypassed: the
//     packets the admission policy answered from the engine unprobed);
//   - every miss walks the engine and repopulates: Inserts == Misses;
//   - stale drops are a subset of misses: StaleEvictions <= Misses.

func noTail(k, lo, hi int) {}

func cacheStatsHandle(t *testing.T) (*Handle, *core.Tree, []rule.Packet) {
	t.Helper()
	rs := classbench.Generate(classbench.ACL1(), 400, 51)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle(Compile(tree))
	h.EnableCache(1 << 12)
	trace := classbench.GenerateFlowTrace(rs, 20000, 700, 12, 52)
	return h, tree, trace
}

func reconcile(t *testing.T, c *flowcache.Cache, presented uint64) {
	t.Helper()
	s := c.Stats()
	if got := s.Hits + s.Misses + s.Bypassed; got != presented {
		t.Fatalf("hits(%d) + misses(%d) + bypassed(%d) = %d packets accounted, %d presented (undercount %d)",
			s.Hits, s.Misses, s.Bypassed, got, presented, int64(presented)-int64(got))
	}
	if s.Inserts != s.Misses {
		t.Fatalf("inserts %d != misses %d: some miss did not repopulate (or a flush double-counted)", s.Inserts, s.Misses)
	}
	if s.StaleEvictions > s.Misses {
		t.Fatalf("stale evictions %d exceed misses %d", s.StaleEvictions, s.Misses)
	}
	if s.Hits == 0 {
		t.Fatal("locality trace produced no cache hits; the test is not exercising the hit path")
	}
}

// TestCacheStatsReconcileParallel drives ClassifySharded across
// shard counts and epoch bumps (inserts between batches) and checks the
// totals equal the ground-truth probe counts, with results verified
// against the uncached engine every round.
func TestCacheStatsReconcileParallel(t *testing.T) {
	h, tree, trace := cacheStatsHandle(t)
	pool := classbench.Generate(classbench.FW1(), 64, 53)
	out := make([]int32, len(trace))
	want := make([]int32, len(trace))
	var presented uint64
	for round := 0; round < 12; round++ {
		shards := []int{1, 2, 3, 8, 16}[round%5]
		h.ClassifySharded(trace, out, shards, noTail)
		presented += uint64(len(trace))
		h.Current().Engine().ClassifyBatch(trace, want)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("round %d packet %d: cached=%d engine=%d", round, i, out[i], want[i])
			}
		}
		if round%3 == 2 {
			r := pool[round/3]
			r.ID = tree.NumRules()
			d, err := tree.InsertDelta(r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	reconcile(t, h.Cache(), presented)
}

// TestCacheStatsReconcileConcurrent repeats the reconciliation with
// several goroutines classifying through the shared cache at once
// (mixing the batch and sharded paths), so torn seqlock reads, re-probe
// races and concurrent inserts all happen while the books are kept.
func TestCacheStatsReconcileConcurrent(t *testing.T) {
	h, _, trace := cacheStatsHandle(t)
	const (
		goroutines = 6
		rounds     = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int32, len(trace))
			for r := 0; r < rounds; r++ {
				if g%2 == 0 {
					h.ClassifySharded(trace, out, 4, noTail)
				} else {
					h.ClassifyBatchCached(trace, out)
				}
			}
		}(g)
	}
	wg.Wait()
	reconcile(t, h.Cache(), uint64(goroutines*rounds*len(trace)))
}

// TestCacheAdmissionDifferential forces the admission policy through four
// mode flips — scatter traffic until the cache bypasses, a flow trace
// until it resumes, twice — with an Apply (epoch bump: every entry stale)
// between batches and ClassifySharded at 1, 2 and 4 shards, and
// checks every answer against ClassifyAoS on the batch's snapshot. The
// mode only selects which packets consult the cache, so no flip, bump or
// interleaving may change an answer. A phase must flip within 4 windows
// of packets (one suffices in steady state, see flowcache's
// TestAdmissionDuel; the bumps cost the flow phases most of their hits
// outside a train). Afterwards the books reconcile and the flight
// recorder holds one cache_mode event per flip. Run under -race in CI's
// race step.
func TestCacheAdmissionDifferential(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 400, 51)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle(Compile(tree))
	tel := telemetry.New()
	h.SetTelemetry(tel)
	c := h.EnableCache(1 << 12)
	const (
		batch  = 2048
		window = 4 << 12
	)
	pool := classbench.Generate(classbench.FW1(), 200, 53)
	out := make([]int32, batch)
	var presented uint64
	batches := 0
	phase := func(name string, trace []rule.Packet, wantBypass bool) {
		off := 0
		defer func() { t.Logf("%s phase: bypassing=%v after %d packets", name, wantBypass, off) }()
		for ; c.Stats().Bypassing != wantBypass; off += batch {
			if off+batch > len(trace) {
				t.Fatalf("%s phase: mode still bypassing=%v after %d packets", name, !wantBypass, off)
			}
			s := h.Current()
			pkts := trace[off : off+batch]
			h.ClassifySharded(pkts, out, []int{1, 2, 4}[batches%3], noTail)
			presented += batch
			// Another Apply cannot have landed: this goroutine is the updater.
			for i, p := range pkts {
				if want := int32(s.Engine().ClassifyAoS(p)); out[i] != want {
					t.Fatalf("%s phase batch %d packet %d (epoch %d, bypassing %v): cached=%d AoS=%d",
						name, batches, i, s.Epoch(), c.Stats().Bypassing, out[i], want)
				}
			}
			r := pool[batches%len(pool)]
			r.ID = tree.NumRules()
			d, err := tree.InsertDelta(r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Apply(d); err != nil {
				t.Fatal(err)
			}
			batches++
		}
	}
	for round := int64(0); round < 2; round++ {
		phase("scatter", classbench.GenerateTrace(rs, 4*window, 60+round), true)
		phase("flows", classbench.GenerateFlowTrace(rs, 4*window, 700, 12, 70+round), false)
	}
	reconcile(t, c, presented)
	if s := c.Stats(); s.Bypassed == 0 {
		t.Fatal("no packet was bypassed: the test did not exercise the policy")
	}
	flips := 0
	for _, ev := range tel.Events.Snapshot() {
		if ev.Kind != telemetry.EvCacheMode {
			continue
		}
		if want := int64(1 - flips%2); ev.V1 != want || ev.V3 <= 0 || ev.V2 < 0 || ev.V2 > ev.V3 {
			t.Fatalf("cache_mode event %d: %+v, want mode %d on a window of hits <= probed", flips, ev, want)
		}
		flips++
	}
	if flips != 4 {
		t.Fatalf("%d cache_mode events for 4 mode flips", flips)
	}
}
