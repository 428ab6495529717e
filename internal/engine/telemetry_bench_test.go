package engine

import (
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
	"repro/internal/telemetry"
)

// Telemetry-overhead accountability: the instrumented batch classify path
// must stay zero-alloc, and the benchmark's off/on rows show its cost.
// The ZeroAllocs test rides the CI alloc gate.

func telemetryBenchSetup(b testing.TB) (*Handle, []rule.Packet, []int32) {
	rs := classbench.Generate(classbench.ACL1(), 2000, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		b.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, 4096, 2009)
	return NewHandle(Compile(tree)), trace, make([]int32, len(trace))
}

// BenchmarkTelemetryOverhead measures ClassifyBatchCached with and
// without a telemetry recorder attached. The two rows must agree to ~2%:
// the on path adds two monotonic clock reads, one histogram observe and
// two atomic adds per 4096-packet batch, nothing per packet.
func BenchmarkTelemetryOverhead(b *testing.B) {
	h, trace, out := telemetryBenchSetup(b)
	for _, tc := range []struct {
		name string
		tel  *telemetry.Recorder
	}{{"off", nil}, {"on", telemetry.New()}} {
		b.Run(tc.name, func(b *testing.B) {
			h.SetTelemetry(tc.tel)
			defer h.SetTelemetry(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ClassifyBatchCached(trace, out)
			}
			b.ReportMetric(float64(b.N)*float64(len(trace))/b.Elapsed().Seconds(), "pps")
		})
	}
}

// TestTelemetryZeroAllocs pins the instrumented hot paths at zero
// allocations per op — the same bar the uninstrumented paths meet, now
// with a recorder attached (and, for the cached variant, a flow cache in
// front). Runs under the CI alloc gate (-run 'ZeroAllocs').
func TestTelemetryZeroAllocs(t *testing.T) {
	h, trace, out := telemetryBenchSetup(t)
	h.SetTelemetry(telemetry.New())
	if avg := testing.AllocsPerRun(50, func() {
		h.ClassifyBatchCached(trace, out)
	}); avg != 0 {
		t.Errorf("instrumented ClassifyBatchCached: %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		h.ClassifyBatchCached(trace[:1], out[:1])
	}); avg != 0 {
		t.Errorf("instrumented one-packet ClassifyBatchCached: %.2f allocs/op, want 0", avg)
	}
	// One shard is the sharded entry's whole cost on a one-core host.
	if avg := testing.AllocsPerRun(50, func() {
		h.ClassifySharded(trace, out, 1, noTail)
	}); avg != 0 {
		t.Errorf("instrumented one-shard ClassifySharded: %.2f allocs/op, want 0", avg)
	}
	h.EnableCache(8192)
	h.ClassifyBatchCached(trace, out) // populate
	if avg := testing.AllocsPerRun(50, func() {
		h.ClassifyBatchCached(trace, out)
	}); avg != 0 {
		t.Errorf("instrumented cached ClassifyBatchCached: %.2f allocs/op, want 0", avg)
	}
	// The same path with the cache's admission policy in bypass mode:
	// distinct 5-tuples until it flips (one window, 4 x capacity
	// lookups), then a batch whose followers go straight to the engine.
	scatter, n := make([]rule.Packet, len(trace)), uint32(0)
	classifyFresh := func() {
		for i := range scatter {
			n++
			scatter[i] = rule.Packet{SrcIP: n * 2654435761, DstIP: ^n, SrcPort: uint16(n), Proto: 6}
		}
		h.ClassifyBatchCached(scatter, out)
	}
	for !h.Cache().Stats().Bypassing {
		if n > 8*8192 {
			t.Fatal("two windows of scatter traffic did not put the cache in bypass mode")
		}
		classifyFresh()
	}
	before := h.Cache().Stats().Bypassed
	if avg := testing.AllocsPerRun(50, classifyFresh); avg != 0 {
		t.Errorf("instrumented cached ClassifyBatchCached in bypass mode: %.2f allocs/op, want 0", avg)
	}
	if st := h.Cache().Stats(); !st.Bypassing || st.Bypassed == before {
		t.Errorf("the measured batches were not bypassed: %+v", st)
	}
}
