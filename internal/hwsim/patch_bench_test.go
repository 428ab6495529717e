package hwsim

import (
	"fmt"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
)

// BenchmarkPatchWords measures the device half of one live update: an
// Insert delta followed by the matching Delete, each replayed into the
// loaded memory image through the one-word-per-cycle write interface
// (Sim.ApplyDelta). Besides ns/op it reports the mean words rewritten
// per update (dirtywords) against the image size (imgwords): the
// sublinear-update claim is dirtywords staying a handful while imgwords
// grows an order of magnitude between the sub-benchmarks.
func BenchmarkPatchWords(b *testing.B) {
	dev := Device{Name: "bench-4096w", FreqHz: 226e6, PowerW: 0.01832, MemoryWords: 1 << core.PointerBits}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			rs := classbench.Generate(classbench.ACL1(), n, 2008)
			pool := classbench.Generate(classbench.FW1(), 2048, 2010)
			var tree *core.Tree
			var sim *Sim
			rebuild := func() {
				var err error
				tree, err = core.Build(rs, core.DefaultConfig(core.HyperCuts))
				if err != nil {
					b.Fatal(err)
				}
				img, err := tree.Encode()
				if err != nil {
					b.Fatal(err)
				}
				if sim, err = New(img, dev); err != nil {
					b.Fatal(err)
				}
			}
			rebuild()
			var words, updates int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2048 == 0 && i > 0 {
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
				w, err := sim.ApplyDelta(tree, d)
				if err != nil {
					b.Fatal(err)
				}
				words += int64(w)
				d, err = tree.DeleteDelta(r.ID)
				if err != nil {
					b.Fatal(err)
				}
				if w, err = sim.ApplyDelta(tree, d); err != nil {
					b.Fatal(err)
				}
				words += int64(w)
				updates += 2
			}
			b.StopTimer()
			b.ReportMetric(float64(words)/float64(updates), "dirtywords")
			b.ReportMetric(float64(tree.Words()), "imgwords")
			if err := sim.VerifyImage(tree); err != nil {
				b.Fatal(err)
			}
		})
	}
}
