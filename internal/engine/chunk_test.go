package engine

import (
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
)

// Tests for the chunked leaf table's copy-on-write: patches must share
// every chunk without edits (the dirty-range optimization), keep the
// garbage accounting exact across chunk copies and orphans, and reject
// out-of-order batches without corrupting the receiver.

// buildChunked returns a tree/engine pair whose leaf table spans several
// chunks (small Binth forces many leaves).
func buildChunked(t *testing.T) (*core.Tree, *Engine) {
	t.Helper()
	rs := classbench.Generate(classbench.ACL1(), 2000, 2008)
	cfg := core.DefaultConfig(core.HiCuts)
	cfg.Binth = 8
	tree, err := core.Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	if len(e.leaves) < 3 {
		t.Fatalf("want a multi-chunk leaf table for this test, got %d chunks (%d leaves)",
			len(e.leaves), e.numLeaves)
	}
	return tree, e
}

// sameChunk reports whether two engines share chunk ci's backing array.
func sameChunk(a, b *Engine, ci int) bool {
	return &a.leaves[ci][0] == &b.leaves[ci][0]
}

// TestPatchSharesUneditedChunks checks the chunk-granular copy: after a
// patch whose edits all land in one chunk, every other chunk — in
// particular the whole prefix before the delta's first dirty leaf — is
// shared pointer-for-pointer with the receiver snapshot.
func TestPatchSharesUneditedChunks(t *testing.T) {
	tree, e0 := buildChunked(t)
	r := classbench.Generate(classbench.FW1(), 1, 9)[0]
	r.ID = tree.NumRules()
	d, err := tree.InsertDelta(r)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := e0.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	touched := map[int32]bool{}
	for _, le := range d.LeafEdits {
		touched[int32(le.Index)>>leafChunkBits] = true
	}
	// Appends may have grown the directory past e0's chunks.
	shared, copied := 0, 0
	for ci := range e0.leaves {
		if sameChunk(e0, e1, ci) {
			shared++
			if touched[int32(ci)] {
				t.Fatalf("chunk %d contains edits but is shared", ci)
			}
		} else {
			copied++
			if !touched[int32(ci)] {
				t.Fatalf("chunk %d has no edits but was copied", ci)
			}
		}
	}
	if copied > len(touched) {
		t.Fatalf("copied %d chunks for %d touched", copied, len(touched))
	}
	if shared == 0 {
		t.Fatal("no chunk sharing at all — dirty-range copy not working")
	}
	// The receiver must be untouched (old snapshot still consistent).
	if e0.numLeaves+countNew(d) != e1.numLeaves {
		t.Fatalf("receiver numLeaves=%d, patched=%d, delta appends %d",
			e0.numLeaves, e1.numLeaves, countNew(d))
	}
}

func countNew(d *core.Delta) int {
	n := 0
	for _, le := range d.LeafEdits {
		if le.New {
			n++
		}
	}
	return n
}

// TestGarbageAccountingAcrossChunks pins the orphan/dead-slot
// accounting around the chunked copies: a rewritten window's old slots,
// an orphaned leaf's slots and the batch's noRule pads are each counted
// exactly once, whether or
// not the chunk holding them was copied by the same batch (orphans never
// force a copy), and GarbageRatio reflects the total.
func TestGarbageAccountingAcrossChunks(t *testing.T) {
	tree, e0 := buildChunked(t)
	// A broad rule: overlaps many leaves, unsharing some (orphans) and
	// editing others in place.
	var wild rule.Rule
	wild.ID = tree.NumRules()
	for dim := 0; dim < rule.NumDims; dim++ {
		wild.F[dim] = rule.Range{Lo: 0, Hi: rule.MaxValue(dim)}
	}
	d, err := tree.InsertDelta(wild)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Orphaned) == 0 {
		t.Fatal("wildcard insert produced no orphans; test needs shared leaves")
	}
	wantDead := e0.deadRuleSlots + (wordSlots-len(e0.ruleIDs)%wordSlots)%wordSlots
	for _, le := range d.LeafEdits {
		if !le.New {
			wantDead += int(e0.leafAt(int32(le.Index)).n)
		}
	}
	for _, oi := range d.Orphaned {
		wantDead += int(e0.leafAt(int32(oi)).n)
	}
	e1, err := e0.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	if e1.deadRuleSlots != wantDead {
		t.Fatalf("deadRuleSlots=%d, want %d (each window counted exactly once)", e1.deadRuleSlots, wantDead)
	}
	if e0.deadRuleSlots != 0 && e1.deadRuleSlots <= e0.deadRuleSlots {
		t.Fatal("garbage must only grow under patches")
	}
	if g := e1.GarbageRatio(); g <= 0 || g >= 1 {
		t.Fatalf("GarbageRatio=%v out of range", g)
	}
	// Applying the same delta twice in one batch must fail (the second
	// application appends leaves out of order) — and must not have been
	// partially visible in a fresh patch of e0.
	if _, err := e0.PatchBatch([]*core.Delta{d, d}); err == nil {
		t.Fatal("duplicate delta in one batch must error")
	}
}

// TestApplyBatchOutOfOrder is the regression test for out-of-order
// bursts under the dirty-range chunk copies: reversed deltas must be
// rejected, the published snapshot must stay on the pre-batch epoch, and
// a correctly ordered retry must succeed against the same handle.
func TestApplyBatchOutOfOrder(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 600, 17)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle(Compile(tree))
	pool := classbench.Generate(classbench.FW1(), 2, 19)
	var ds []*core.Delta
	for i := range pool {
		r := pool[i]
		r.ID = tree.NumRules()
		d, err := tree.InsertDelta(r)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	before := h.Current()
	if _, err := h.ApplyBatch([]*core.Delta{ds[1], ds[0]}); err == nil {
		t.Fatal("reversed delta batch must error")
	}
	if h.Current() != before {
		t.Fatal("failed batch must not publish a snapshot")
	}
	if _, err := h.ApplyBatch(ds); err != nil {
		t.Fatalf("ordered batch after failed one: %v", err)
	}
	if h.Current().Epoch() != before.Epoch()+1 {
		t.Fatalf("epoch=%d, want %d", h.Current().Epoch(), before.Epoch()+1)
	}
	// The batch-patched engine must agree with a fresh compile.
	trace := classbench.GenerateTrace(rs, 2000, 23)
	if err := VerifyPatched(trace, h.Current().Engine(), Compile(tree)); err != nil {
		t.Fatal(err)
	}
}
