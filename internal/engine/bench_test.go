package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
)

// Throughput benchmarks: the flat engine against the pointer-walking
// core.Tree.Classify baseline on the same tree and trace.

func benchSetup(b *testing.B, algo core.Algorithm) (*core.Tree, *Engine, []rule.Packet) {
	b.Helper()
	rs := classbench.Generate(classbench.ACL1(), 2000, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(algo))
	if err != nil {
		b.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, 4096, 2009)
	return tree, Compile(tree), trace
}

func benchTreeClassify(b *testing.B, algo core.Algorithm) {
	tree, _, trace := benchSetup(b, algo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Classify(trace[i&4095])
	}
	reportPPS(b)
}

func benchEngineClassify(b *testing.B, algo core.Algorithm) {
	_, eng, trace := benchSetup(b, algo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Classify(trace[i&4095])
	}
	reportPPS(b)
}

func reportPPS(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkTreeClassifyHiCuts is the pointer-walking baseline.
func BenchmarkTreeClassifyHiCuts(b *testing.B)    { benchTreeClassify(b, core.HiCuts) }
func BenchmarkTreeClassifyHyperCuts(b *testing.B) { benchTreeClassify(b, core.HyperCuts) }

// BenchmarkEngineClassify* must show >= 2x the Tree baseline (single core).
func BenchmarkEngineClassifyHiCuts(b *testing.B)    { benchEngineClassify(b, core.HiCuts) }
func BenchmarkEngineClassifyHyperCuts(b *testing.B) { benchEngineClassify(b, core.HyperCuts) }

// BenchmarkEngineClassifyBatch exercises the zero-allocation batched path.
func BenchmarkEngineClassifyBatch(b *testing.B) {
	_, eng, trace := benchSetup(b, core.HyperCuts)
	out := make([]int32, len(trace))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ClassifyBatch(trace, out)
	}
	b.ReportMetric(float64(b.N)*float64(len(trace))/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkClassifySharded shards the batch over all cores.
func BenchmarkClassifySharded(b *testing.B) {
	_, eng, trace := benchSetup(b, core.HyperCuts)
	h := NewHandle(eng)
	// A bigger batch so per-call fan-out cost amortizes.
	big := make([]rule.Packet, 1<<16)
	for i := range big {
		big[i] = trace[i&4095]
	}
	out := make([]int32, len(big))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ClassifySharded(big, out, runtime.GOMAXPROCS(0), noTail)
	}
	b.ReportMetric(float64(b.N)*float64(len(big))/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkClassifyBatchACL10k is the tentpole's headline measurement:
// the batched classify path on an ACL1 ruleset at 10k rules, with the
// word-packed comparator-bank leaf scan (soa) against the
// array-of-structs early-exit scan (aos).
func BenchmarkClassifyBatchACL10k(b *testing.B) {
	rs := classbench.Generate(classbench.ACL1(), 10000, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		b.Fatal(err)
	}
	eng := Compile(tree)
	trace := classbench.GenerateTrace(rs, 4096, 2009)
	out := make([]int32, len(trace))
	rows := []struct {
		name string
		fn   func([]rule.Packet, []int32)
	}{{"aos", eng.ClassifyBatchAoS}}
	// One soa row per available scan kernel (kernel=portable plus the
	// CPU's native kernel), so the SIMD end-to-end win is visible.
	for _, ke := range withKernels(b, eng) {
		rows = append(rows, struct {
			name string
			fn   func([]rule.Packet, []int32)
		}{"soa/kernel=" + ke.Kernel(), ke.ClassifyBatch})
	}
	for _, v := range rows {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.fn(trace, out)
			}
			b.ReportMetric(float64(b.N)*float64(len(trace))/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkLeafScan isolates the leaf-match stage on real workload: ACL1
// packets are bucketed by match depth in bank words — how many words of
// its window a scan reads before the one holding the match (a scan that
// matches nothing reads them all and lands in the bucket of its window's
// length) — and each bucket's scans run through the AoS early-exit loop
// and through each scan kernel a block at a time (walks precomputed, so
// the rows measure only the scan on real windows, real match positions
// and real branch-predictor pressure). ns/op is per scan. A kernel's
// cost should grow by one word read per step in depth, the AoS loop's by
// up to eight rules.
func BenchmarkLeafScan(b *testing.B) {
	rs := classbench.Generate(classbench.ACL1(), 10000, 2008)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		b.Fatal(err)
	}
	eng := Compile(tree)

	type scanCases struct {
		refs []leafRef
		f    [][rule.NumDims]uint32
		want []int32
	}
	depths := []int32{1, 2, 3, 4, 8, 16, 1 << 30}
	buckets := make([]scanCases, len(depths))
	// Each bucket needs enough distinct cases that the branch predictor
	// cannot memorize the AoS loop's per-case outcomes across bench
	// iterations (which would flatter AoS far beyond line-rate reality),
	// so keep drawing trace batches until the shallow buckets fill or the
	// trace budget runs out.
	const wantCases = 4096
	for seed, drawn := int64(2009), 0; drawn < 1<<21; seed++ {
		trace := classbench.GenerateTrace(rs, 1<<17, seed)
		drawn += len(trace)
		for _, p := range trace {
			f := soaFields(p)
			l := eng.walk(&f)
			if l.n == 0 {
				continue
			}
			want := int32(eng.aosScanLeaf(l, &f))
			last := l.off + l.n - 1 // a miss reads every word
			if s := eng.soa.scanWindow(l, &f); s >= 0 {
				last = s
			}
			words := last/wordSlots - l.off/wordSlots + 1
			for k, hi := range depths {
				if words <= hi {
					if c := &buckets[k]; len(c.refs) < wantCases {
						c.refs, c.f, c.want = append(c.refs, l), append(c.f, f), append(c.want, want)
					}
					break
				}
			}
		}
		if len(buckets[0].refs) == wantCases && len(buckets[1].refs) == wantCases && len(buckets[2].refs) == wantCases {
			break
		}
	}
	for k, c := range buckets {
		n := len(c.refs) / blockLen * blockLen
		if n == 0 {
			continue // this ruleset has no scans this deep
		}
		name := fmt.Sprintf("words<=%d", depths[k])
		if k == len(depths)-1 {
			name = fmt.Sprintf("words>%d", depths[k-1])
		}
		b.Run("aos/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.aosScanLeaf(c.refs[i%n], &c.f[i%n])
			}
		})
		for _, ke := range withKernels(b, eng) {
			b.Run(fmt.Sprintf("bank/kernel=%s/%s", ke.Kernel(), name), func(b *testing.B) {
				var out [blockLen]int32
				b.ReportAllocs()
				for i := 0; i < b.N; i += blockLen {
					at := i % n
					ke.scanBlock(c.refs[at:at+blockLen], c.f[at:at+blockLen], out[:])
					if out != [blockLen]int32(c.want[at:at+blockLen]) {
						b.Fatalf("cases %d..%d: kernel and AoS scan disagree", at, at+blockLen)
					}
				}
			})
		}
	}
}

// Build benchmarks: sequential vs pooled parallel construction.

func benchBuild(b *testing.B, algo core.Algorithm, workers int) {
	rs := classbench.Generate(classbench.ACL1(), 2000, 2008)
	cfg := core.DefaultConfig(algo)
	cfg.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(rs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSequentialHiCuts(b *testing.B)    { benchBuild(b, core.HiCuts, 1) }
func BenchmarkBuildParallelHiCuts(b *testing.B)      { benchBuild(b, core.HiCuts, runtime.GOMAXPROCS(0)) }
func BenchmarkBuildSequentialHyperCuts(b *testing.B) { benchBuild(b, core.HyperCuts, 1) }
func BenchmarkBuildParallelHyperCuts(b *testing.B) {
	benchBuild(b, core.HyperCuts, runtime.GOMAXPROCS(0))
}

// BenchmarkEngineCompile measures tree -> flat image compilation.
func BenchmarkEngineCompile(b *testing.B) {
	tree, _, _ := benchSetup(b, core.HyperCuts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(tree)
	}
}

// BenchmarkPatchUpdate measures the live-update pipeline end to end: one
// Insert delta + engine Patch + epoch publish, immediately followed by
// the matching Delete (so the working set stays bounded). Compare with
// BenchmarkEngineCompile — the cost every update paid before deltas.
//
// The sub-benchmarks run the identical update mix against a 1,000-rule
// and a 10,000-rule table: with the incremental leaf repack, the
// rule→leaves occupancy index and chunk-granular engine copies, per-
// update cost tracks the edited-leaf count, so the two ns/op figures
// must stay close (the measured form of the sublinear-update claim).
func BenchmarkPatchUpdate(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			rs := classbench.Generate(classbench.ACL1(), n, 2008)
			pool := classbench.Generate(classbench.FW1(), 2048, 2010)
			var tree *core.Tree
			var h *Handle
			rebuild := func() {
				var err error
				tree, err = core.Build(rs, core.DefaultConfig(core.HyperCuts))
				if err != nil {
					b.Fatal(err)
				}
				h = NewHandle(Compile(tree))
			}
			rebuild()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2048 == 0 && i > 0 {
					// The ruleset slice grows monotonically (IDs are
					// positional); periodically rebuild outside the timer.
					b.StopTimer()
					rebuild()
					b.StartTimer()
				}
				r := pool[i%len(pool)]
				r.ID = tree.NumRules()
				d, err := tree.InsertDelta(r)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Apply(d); err != nil {
					b.Fatal(err)
				}
				d, err = tree.DeleteDelta(r.ID)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
