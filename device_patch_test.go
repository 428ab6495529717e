package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hwsim"
)

// TestDeviceWordPatching pins the facade's lazy word-level device
// rewrite: updates queue their deltas, the next hardware-path use
// replays them through the simulated write interface (only dirty words),
// and the patched device memory stays byte-identical to a full
// re-encode — across plain updates, batches, and the recompile fallback.
func TestDeviceWordPatching(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc.threshold = -1
	trace := GenerateTrace(rs, 500, 5)
	base := acc.DeviceWriteCycles()
	if base == 0 {
		t.Fatal("initial load must charge write cycles")
	}

	pool, err := GenerateRuleset("fw1", 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		r := pool[i]
		r.ID = len(rs) + i
		if err := acc.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%3 == 2 {
			if err := acc.Delete(len(rs) + i - 1); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
		if i%10 != 9 {
			continue
		}
		// Touch the hardware path so the queued deltas flush, then
		// differentially verify the patched image.
		matches, _ := acc.Run(trace)
		if err := acc.LoadError(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		acc.mu.Lock()
		err := acc.dev.sim.VerifyImage(acc.tree)
		acc.mu.Unlock()
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		// And the device answers must agree with the software engine.
		eng := acc.SoftwareEngine()
		for j, p := range trace {
			if got := eng.Classify(p); got != matches[j] {
				t.Fatalf("update %d packet %d: device %d, engine %d", i, j, matches[j], got)
			}
		}
	}
	grown := acc.DeviceWriteCycles() - base
	words := acc.Words()
	if grown <= 0 {
		t.Fatal("updates charged no write cycles")
	}
	// ~80 updates must have cost far less than 80 full reloads.
	if grown > int64(40*words) {
		t.Fatalf("word-level patching charged %d cycles over churn; full reloads would be ~%d — not sublinear",
			grown, 80*words)
	}

	// The recompile fallback must resynchronize the image wholesale.
	acc.Recompile()
	if _, _ = acc.Run(trace); acc.LoadError() != nil {
		t.Fatal(acc.LoadError())
	}
	acc.mu.Lock()
	err = acc.dev.sim.VerifyImage(acc.tree)
	acc.mu.Unlock()
	if err != nil {
		t.Fatalf("after recompile: %v", err)
	}
}

// TestDeviceWordPatchingWithBatches covers the batched update entry
// points feeding the same lazy queue.
func TestDeviceWordPatchingWithBatches(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := BuildAccelerator(rs, Config{Algorithm: HiCuts})
	if err != nil {
		t.Fatal(err)
	}
	acc.threshold = -1
	pool, err := GenerateRuleset("ipc1", 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Rule, len(pool))
	for i := range pool {
		batch[i] = pool[i]
		batch[i].ID = len(rs) + i
	}
	if err := acc.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	ids := []int{len(rs), len(rs) + 5, len(rs) + 17}
	if err := acc.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	trace := GenerateTrace(rs, 300, 17)
	acc.Run(trace)
	if err := acc.LoadError(); err != nil {
		t.Fatal(err)
	}
	acc.mu.Lock()
	err = acc.dev.sim.VerifyImage(acc.tree)
	acc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeviceAnalyticRungEqualsSimulator pins the ladder's second rung to
// its first: on structures that do load, the Eq. 5/7 walk the device
// model answers from once a structure has outgrown the device must
// reproduce the simulator — per-packet match, latency and memory reads,
// and the trace statistics field for field.
func TestDeviceAnalyticRungEqualsSimulator(t *testing.T) {
	for _, profile := range []string{"acl1", "fw1"} {
		for _, algo := range []Algorithm{HiCuts, HyperCuts} {
			for _, compact := range []bool{true, false} {
				rs, err := GenerateRuleset(profile, 400, 91)
				if err != nil {
					t.Fatal(err)
				}
				tree, err := core.Build(rs, coreConfig(Config{Algorithm: algo, CompactLeaves: compact}))
				if err != nil {
					t.Fatal(err)
				}
				loaded, walked := device{hw: hwsim.ASIC}, device{hw: hwsim.ASIC}
				if err := loaded.sync(tree); err != nil {
					t.Fatalf("%s/%v/compact=%v does not load: %v", profile, algo, compact, err)
				}
				trace := GenerateTrace(rs, 2000, 92)
				simMatches, simStats := loaded.run(tree, nil, trace)
				walkMatches, walkStats := walked.run(tree, nil, trace)
				if walked.sim != nil || simStats != walkStats {
					t.Fatalf("%s/%v/compact=%v: simulator %+v, walk %+v", profile, algo, compact, simStats, walkStats)
				}
				for i, p := range trace {
					if r := walked.classify(tree, nil, p); r != loaded.sim.ClassifyOne(p) ||
						r.Match != simMatches[i] || r.Match != walkMatches[i] {
						t.Fatalf("%s/%v/compact=%v packet %d: walk %+v, simulator %+v",
							profile, algo, compact, i, r, loaded.sim.ClassifyOne(p))
					}
				}
			}
		}
	}
}
