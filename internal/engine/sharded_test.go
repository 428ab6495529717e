package engine

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
	"repro/internal/telemetry"
)

// TestClassifySharded pins the contract of the one sharded entry over
// shard counts and batch lengths that do and do not divide, without a
// cache, with one in normal mode and with one bypassing, recorder off
// and on: tail runs exactly once per non-empty shard, its ranges are
// disjoint and cover [0, n) in shard order, out[lo:hi] is already final
// when tail(k, lo, hi) runs, the answers are the engine's, and the batch
// is one batch to the cache's books and to the recorder.
func TestClassifySharded(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 400, 51)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	eng := Compile(tree)
	flows := classbench.GenerateFlowTrace(rs, 4096, 64, 8, 52)
	var fresh uint32
	scatter := func(pkts []rule.Packet) {
		for i := range pkts {
			fresh++
			pkts[i] = rule.Packet{SrcIP: fresh * 2654435761, DstIP: ^fresh, SrcPort: uint16(fresh), Proto: 6}
		}
	}
	pkts := make([]rule.Packet, 4096)
	out := make([]int32, 4096)
	want := make([]int32, 4096)

	for _, mode := range []string{"nocache", "cached", "bypassing"} {
		for _, withTel := range []bool{false, true} {
			h := NewHandle(eng)
			if mode != "nocache" {
				h.EnableCache(1 << 10)
			}
			if mode == "bypassing" {
				for windows := 0; !h.Cache().Stats().Bypassing; windows++ {
					if windows == 2 {
						t.Fatal("two windows of scatter traffic did not put the cache in bypass mode")
					}
					scatter(pkts) // capacity x 4: one admission window
					h.ClassifyBatchCached(pkts, out)
				}
			}
			var tel *telemetry.Recorder
			if withTel {
				tel = telemetry.New()
				h.SetTelemetry(tel)
			}
			for _, shards := range []int{1, 2, 3, 7} {
				for _, n := range []int{0, 1, 5, 4095, 4096} {
					name := fmt.Sprintf("%s tel=%v shards=%d n=%d", mode, withTel, shards, n)
					if mode == "bypassing" {
						scatter(pkts[:n])
					} else {
						copy(pkts, flows)
					}
					eng.ClassifyBatch(pkts[:n], want)
					for i := range out {
						out[i] = -9
					}
					var before, after uint64
					if c := h.Cache(); c != nil {
						s := c.Stats()
						before = s.Hits + s.Misses + s.Bypassed
					}
					var batches, packets, observes uint64
					if tel != nil {
						batches, packets, observes = tel.Batches.Load(), tel.Packets.Load(), tel.ClassifyNs.Snapshot().Count
					}

					type call struct{ k, lo, hi int }
					var mu sync.Mutex
					var calls []call
					h.ClassifySharded(pkts[:n], out, shards, func(k, lo, hi int) {
						for i := lo; i < hi; i++ {
							if out[i] != want[i] {
								t.Errorf("%s: tail(%d, %d, %d) ran with out[%d]=%d, engine says %d", name, k, lo, hi, i, out[i], want[i])
								break
							}
						}
						mu.Lock()
						calls = append(calls, call{k, lo, hi})
						mu.Unlock()
					})

					sort.Slice(calls, func(i, j int) bool { return calls[i].k < calls[j].k })
					if len(calls) > shards {
						t.Fatalf("%s: %d tail calls", name, len(calls))
					}
					next := 0
					for i, c := range calls {
						if c.k != i || c.lo != next || c.hi <= c.lo {
							t.Fatalf("%s: tail calls %v: call %d is not the next non-empty range from %d", name, calls, i, next)
						}
						next = c.hi
					}
					if next != n {
						t.Fatalf("%s: tail calls %v cover [0, %d), want [0, %d)", name, calls, next, n)
					}
					if n < len(out) && out[n] != -9 {
						t.Fatalf("%s: wrote past the batch: out[%d]=%d", name, n, out[n])
					}
					if c := h.Cache(); c != nil {
						s := c.Stats()
						after = s.Hits + s.Misses + s.Bypassed
						if after-before != uint64(n) {
							t.Fatalf("%s: cache accounted %d lookups for %d packets", name, after-before, n)
						}
					}
					if tel != nil {
						if b, p, o := tel.Batches.Load()-batches, tel.Packets.Load()-packets, tel.ClassifyNs.Snapshot().Count-observes; b != 1 || p != uint64(n) || o != 1 {
							t.Fatalf("%s: recorder saw %d batches, %d packets, %d latency observes; want 1, %d, 1", name, b, p, o, n)
						}
					}
				}
			}
			if c := h.Cache(); c != nil {
				s := c.Stats()
				if mode == "cached" && (s.Hits == 0 || s.Bypassing) {
					t.Fatalf("%s: flow traffic did not stay on the cached path: %+v", mode, s)
				}
				if mode == "bypassing" && (s.Bypassed == 0 || !s.Bypassing) {
					t.Fatalf("%s: scatter traffic did not stay bypassed: %+v", mode, s)
				}
			}
		}
	}
}
