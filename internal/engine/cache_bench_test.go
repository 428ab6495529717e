package engine

import (
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
)

// Flow-cache benchmarks on a locality-skewed trace (packet trains from a
// Zipf-skewed flow population — the traffic shape real links carry). The
// cached/uncached pair measures the same batch loop through
// Handle.ClassifyBatchCached with and without an attached cache, and the
// cached rows report the cache's steady-state behaviour as custom
// metrics (hitrate, occupied, stale) alongside pps.

func benchFlowSetup(b *testing.B, withCache bool) (*Handle, []rule.Packet, []int32) {
	b.Helper()
	rs := classbench.Generate(classbench.ACL1(), 1000, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		b.Fatal(err)
	}
	h := NewHandle(Compile(tree))
	if withCache {
		h.EnableCache(1 << 14)
	}
	trace := classbench.GenerateFlowTrace(rs, 8192, 1024, 16, 2009)
	return h, trace, make([]int32, len(trace))
}

func benchFlowClassify(b *testing.B, withCache bool) {
	h, trace, out := benchFlowSetup(b, withCache)
	h.ClassifyBatchCached(trace, out) // warm the cache outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ClassifyBatchCached(trace, out)
	}
	b.StopTimer()
	pps := float64(b.N) * float64(len(trace)) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "pps")
	if c := h.Cache(); c != nil {
		st := c.Stats()
		b.ReportMetric(st.HitRate(), "hitrate")
		b.ReportMetric(float64(st.Occupied), "occupied")
		b.ReportMetric(float64(st.StaleEvictions), "stale")
	}
}

func BenchmarkFlowTraceClassifyCached(b *testing.B)   { benchFlowClassify(b, true) }
func BenchmarkFlowTraceClassifyUncached(b *testing.B) { benchFlowClassify(b, false) }

// BenchmarkFlowTraceClassifyCachedChurn measures the cached path while
// every iteration also applies one Insert (epoch bump): the cost of
// stale-epoch fallthrough and repopulation under control-plane churn.
func BenchmarkFlowTraceClassifyCachedChurn(b *testing.B) {
	rs := classbench.Generate(classbench.ACL1(), 1000, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		b.Fatal(err)
	}
	h := NewHandle(Compile(tree))
	h.EnableCache(1 << 14)
	trace := classbench.GenerateFlowTrace(rs, 8192, 1024, 16, 2009)
	out := make([]int32, len(trace))
	pool := classbench.Generate(classbench.FW1(), 4096, 2010)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pool[i%len(pool)]
		r.ID = tree.NumRules()
		d, err := tree.InsertDelta(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Apply(d); err != nil {
			b.Fatal(err)
		}
		h.ClassifyBatchCached(trace, out)
	}
	b.StopTimer()
	pps := float64(b.N) * float64(len(trace)) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "pps")
	st := h.Cache().Stats()
	b.ReportMetric(st.HitRate(), "hitrate")
	b.ReportMetric(float64(st.StaleEvictions), "stale")
}
