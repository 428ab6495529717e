package core

import (
	"runtime"
	"testing"

	"repro/internal/classbench"
)

// TestParallelBuildIdentical asserts the worker-pool build is
// deterministic: for both algorithms and both speeds, the parallel build
// must produce exactly the tree the sequential build produces — same
// statistics, same word count, same breadth-first node layout, same cut
// headers, same leaf packing and same rule lists.
func TestParallelBuildIdentical(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Log("single-CPU environment; parallel path still exercised via Workers=4")
	}
	for _, prof := range []string{"acl1", "fw1", "ipc1"} {
		p, err := classbench.ProfileByName(prof)
		if err != nil {
			t.Fatal(err)
		}
		rs := classbench.Generate(p, 800, 2008)
		for _, algo := range []Algorithm{HiCuts, HyperCuts} {
			for _, speed := range []int{0, 1} {
				cfg := DefaultConfig(algo)
				cfg.Speed = speed
				cfg.Workers = 1
				seq, err := Build(rs, cfg)
				if err != nil {
					t.Fatalf("%s %v speed=%d sequential: %v", prof, algo, speed, err)
				}
				cfg.Workers = 4
				par, err := Build(rs, cfg)
				if err != nil {
					t.Fatalf("%s %v speed=%d parallel: %v", prof, algo, speed, err)
				}
				ctx := prof + " " + algo.String()
				if seq.Stats() != par.Stats() {
					t.Errorf("%s speed=%d: stats differ\nseq: %+v\npar: %+v", ctx, speed, seq.Stats(), par.Stats())
				}
				if seq.Words() != par.Words() {
					t.Errorf("%s speed=%d: words %d != %d", ctx, speed, seq.Words(), par.Words())
				}
				assertSameLayout(t, ctx, seq, par)
			}
		}
	}
}

// TestParallelBuildClassifies is a lighter end-to-end check at a larger
// size: sequential and parallel trees classify a trace identically.
func TestParallelBuildClassifies(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 2000, 2008)
	trace := classbench.GenerateTrace(rs, 4000, 2009)
	cfg := DefaultConfig(HyperCuts)
	cfg.Workers = 1
	seq, err := Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = runtime.GOMAXPROCS(0)
	par, err := Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range trace {
		if a, b := seq.Classify(p), par.Classify(p); a != b {
			t.Fatalf("pkt %d: sequential=%d parallel=%d", i, a, b)
		}
	}
}
