package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
)

// classifyOneCached classifies p as a one-packet batch through the flow
// cache.
func classifyOneCached(h *Handle, p rule.Packet) int {
	var out [1]int32
	h.ClassifyBatchCached([]rule.Packet{p}, out[:])
	return int(out[0])
}

// TestCachedClassifyDifferentialChurn is the cache correctness contract:
// cached classification stays packet-exact against both engine.Classify
// and core.Tree.Classify across >= 1000 randomized live Insert/Delete
// updates, for both algorithms, while reader goroutines hammer the cached
// path concurrently (run under -race in CI, this also pins the sharded
// cache and the epoch protocol as data-race free).
//
// Exactness is asserted from the updater thread after every update — the
// only point where "the" correct answer is unambiguous — over a probe set
// mixing hot repeated packets (cache hits, including entries that just
// went stale) and per-step fresh packets (misses). The concurrent readers
// assert only result validity; their answers may legitimately come from
// the epoch on either side of an in-flight update.
func TestCachedClassifyDifferentialChurn(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			rs := classbench.Generate(classbench.ACL1(), 250, 61)
			tree, err := core.Build(rs, core.DefaultConfig(algo))
			if err != nil {
				t.Fatal(err)
			}
			h := NewHandle(Compile(tree))
			cache := h.EnableCache(8192)
			pool := classbench.Generate(classbench.IPC1(), 1200, 62)
			hot := classbench.GenerateFlowTrace(rs, 64, 16, 4, 63)
			rng := rand.New(rand.NewSource(64))

			// Concurrent readers: validity checks only.
			var stop atomic.Bool
			var wg sync.WaitGroup
			var readerBad atomic.Int64
			probeTrace := classbench.GenerateFlowTrace(rs, 256, 32, 8, 65)
			maxID := tree.NumRules() + len(pool) // readers must not touch the mutating tree
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						for _, p := range probeTrace {
							if id := classifyOneCached(h, p); id < -1 || id >= maxID {
								readerBad.Store(int64(id))
								return
							}
						}
					}
				}()
			}

			const wantUpdates = 1000
			updates, inserted := 0, 0
			checkExact := func(step int) {
				// Hot packets exercise hits and freshly-staled entries;
				// the random packet exercises the miss path.
				probes := append([]rule.Packet{}, hot[:8]...)
				probes = append(probes, probeTrace[rng.Intn(len(probeTrace))])
				s := h.Current()
				for _, p := range probes {
					want := tree.Classify(p)
					if got := s.Engine().Classify(p); got != want {
						t.Fatalf("step %d: engine=%d tree=%d", step, got, want)
					}
					if got := classifyOneCached(h, p); got != want {
						t.Fatalf("step %d: cached=%d tree=%d (epoch %d)", step, got, want, s.Epoch())
					}
				}
			}
			for updates < wantUpdates {
				switch {
				case updates%10 == 9 && inserted+5 <= len(pool):
					// Coalesced burst: five inserts, one ApplyBatch, one
					// epoch.
					before := h.Current().Epoch()
					ds := make([]*core.Delta, 0, 5)
					for k := 0; k < 5; k++ {
						r := pool[inserted]
						r.ID = tree.NumRules()
						d, err := tree.InsertDelta(r)
						if err != nil {
							t.Fatalf("batch insert %d: %v", inserted, err)
						}
						inserted++
						ds = append(ds, d)
					}
					if _, err := h.ApplyBatch(ds); err != nil {
						t.Fatalf("ApplyBatch: %v", err)
					}
					if got := h.Current().Epoch(); got != before+1 {
						t.Fatalf("batch of 5 bumped epoch %d -> %d", before, got)
					}
					updates += 5
				case rng.Intn(3) == 0:
					id := rng.Intn(tree.NumRules())
					d, err := tree.DeleteDelta(id)
					if err != nil {
						t.Fatalf("delete %d: %v", id, err)
					}
					if _, err := h.Apply(d); err != nil {
						t.Fatalf("apply delete: %v", err)
					}
					updates++
				case inserted < len(pool):
					r := pool[inserted]
					r.ID = tree.NumRules()
					d, err := tree.InsertDelta(r)
					if err != nil {
						t.Fatalf("insert %d: %v", inserted, err)
					}
					inserted++
					if _, err := h.Apply(d); err != nil {
						t.Fatalf("apply insert: %v", err)
					}
					updates++
				default:
					t.Fatalf("insert pool exhausted at %d updates", updates)
				}
				checkExact(updates)
			}

			stop.Store(true)
			wg.Wait()
			if bad := readerBad.Load(); bad != 0 {
				t.Fatalf("concurrent reader observed impossible rule ID %d", bad)
			}

			// Final sweep: cached results equal both references over a
			// fresh trace, and the churn actually exercised the cache.
			// Sample from the original ruleset: tree.Rules() includes
			// deleted rules, whose emptied ranges cannot be sampled.
			final := classbench.GenerateFlowTrace(rs, 2000, 128, 8, 66)
			for i, p := range final {
				want := tree.Classify(p)
				if got := classifyOneCached(h, p); got != want {
					t.Fatalf("final packet %d: cached=%d tree=%d", i, got, want)
				}
				if got := h.Current().Engine().Classify(p); got != want {
					t.Fatalf("final packet %d: engine=%d tree=%d", i, got, want)
				}
			}
			st := cache.Stats()
			if st.Hits == 0 || st.Misses == 0 || st.StaleEvictions == 0 {
				t.Errorf("churn never exercised the cache: %+v", st)
			}
			if updates < wantUpdates {
				t.Errorf("only %d updates applied", updates)
			}
		})
	}
}

// TestApplyBatchCoalesces pins the batch-update contract: one epoch for
// the whole burst, a result packet-identical to per-delta Apply and to a
// fresh recompile, and no more arena garbage than the sequential chain.
func TestApplyBatchCoalesces(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 300, 71)
	burst := classbench.Generate(classbench.FW1(), 40, 72)
	cfg := core.DefaultConfig(core.HyperCuts)

	// Two identical trees: one absorbs the burst for the batched handle,
	// one for the sequential reference.
	treeA, err := core.Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	treeB, err := core.Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hBatch := NewHandle(Compile(treeA))
	hSeq := NewHandle(Compile(treeB))

	if _, err := hBatch.ApplyBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if e := hBatch.Current().Epoch(); e != 0 {
		t.Fatalf("empty batch advanced epoch to %d", e)
	}

	ds := make([]*core.Delta, 0, len(burst))
	for i := range burst {
		r := burst[i]
		r.ID = treeA.NumRules()
		d, err := treeA.InsertDelta(r)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ds = append(ds, d)

		r.ID = treeB.NumRules()
		dSeq, err := treeB.InsertDelta(r)
		if err != nil {
			t.Fatalf("seq insert %d: %v", i, err)
		}
		if _, err := hSeq.Apply(dSeq); err != nil {
			t.Fatalf("seq apply %d: %v", i, err)
		}
	}
	if _, err := hBatch.ApplyBatch(ds); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if e := hBatch.Current().Epoch(); e != 1 {
		t.Fatalf("burst of %d published epoch %d, want 1", len(ds), e)
	}
	if e := hSeq.Current().Epoch(); e != uint64(len(ds)) {
		t.Fatalf("sequential chain at epoch %d, want %d", e, len(ds))
	}

	trace := classbench.GenerateTrace(rs, 4000, 73)
	if err := VerifyPatched(trace, hBatch.Current().Engine(), Compile(treeA)); err != nil {
		t.Fatalf("batched vs recompile: %v", err)
	}
	if err := VerifyPatched(trace, hBatch.Current().Engine(), hSeq.Current().Engine()); err != nil {
		t.Fatalf("batched vs sequential: %v", err)
	}
	if gb, gs := hBatch.Current().Engine().GarbageRatio(), hSeq.Current().Engine().GarbageRatio(); gb > gs {
		t.Errorf("batched patch left more garbage (%.4f) than sequential (%.4f)", gb, gs)
	}
}

// TestPatchBatchOutOfOrder: a stale (already-applied) delta in a batch
// must fail without publishing a new epoch.
func TestPatchBatchOutOfOrder(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 120, 81)
	tree, err := core.Build(rs, core.DefaultConfig(core.HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle(Compile(tree))
	r := classbench.Generate(classbench.IPC1(), 1, 82)[0]
	r.ID = tree.NumRules()
	d, err := tree.InsertDelta(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ApplyBatch([]*core.Delta{d, d}); err == nil {
		t.Fatal("replaying the same insert delta twice succeeded")
	}
	if e := h.Current().Epoch(); e != 0 {
		t.Fatalf("failed batch still advanced epoch to %d", e)
	}
}
