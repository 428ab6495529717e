package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
)

// TestPatchDifferentialRandom drives a long randomized Insert/Delete
// sequence through the delta/Patch pipeline and checks, packet-exact,
// that the patched engine equals a fresh Compile of the same tree and
// the ground-truth first-match semantics — for both algorithms. Seeds
// are part of every failure message so a failing sequence replays.
func TestPatchDifferentialRandom(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		for _, seed := range []int64{1, 42, 2008} {
			t.Run(algo.String(), func(t *testing.T) {
				runPatchDifferential(t, algo, seed)
			})
		}
	}
}

func runPatchDifferential(t *testing.T, algo core.Algorithm, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rs := classbench.Generate(classbench.ACL1(), 250, seed)
	tree, err := core.Build(rs, core.DefaultConfig(algo))
	if err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	eng := Compile(tree)

	// Pool of rules to insert, from a different profile so inserts cross
	// existing cut boundaries.
	pool := classbench.Generate(classbench.FW1(), 120, seed+1)
	inserted := 0
	live := append(rule.RuleSet{}, rs...)
	deleted := map[int]bool{}

	expect := func(p rule.Packet) int {
		for i := range live {
			if deleted[live[i].ID] {
				continue
			}
			if live[i].Matches(p) {
				return live[i].ID
			}
		}
		return -1
	}

	const ops = 120
	for op := 0; op < ops; op++ {
		if inserted < len(pool) && (rng.Intn(10) < 6 || len(live) == len(deleted)) {
			r := pool[inserted]
			r.ID = len(live)
			inserted++
			d, err := tree.InsertDelta(r)
			if err != nil {
				t.Fatalf("seed %d op %d: insert: %v", seed, op, err)
			}
			live = append(live, r)
			if eng, err = eng.Patch(d); err != nil {
				t.Fatalf("seed %d op %d: patch insert: %v", seed, op, err)
			}
		} else {
			id := rng.Intn(len(live))
			d, err := tree.DeleteDelta(id)
			if err != nil {
				t.Fatalf("seed %d op %d: delete %d: %v", seed, op, id, err)
			}
			deleted[id] = true
			if eng, err = eng.Patch(d); err != nil {
				t.Fatalf("seed %d op %d: patch delete %d: %v", seed, op, id, err)
			}
		}

		if op%20 != ops%20 && op != ops-1 {
			continue
		}
		// Packet-exact cross-check: patched engine vs fresh recompile of
		// the same tree vs ground truth.
		fresh := Compile(tree)
		trace := classbench.GenerateTrace(live, 1200, seed+int64(op))
		for i, p := range trace {
			got := eng.Classify(p)
			if want := fresh.Classify(p); got != want {
				t.Fatalf("seed %d op %d packet %d: patched=%d fresh=%d", seed, op, i, got, want)
			}
			if want := expect(p); got != want {
				t.Fatalf("seed %d op %d packet %d: patched=%d ground-truth=%d", seed, op, i, got, want)
			}
		}
	}
	if eng.GarbageRatio() <= 0 {
		t.Errorf("seed %d: %d updates produced no patch garbage", seed, ops)
	}
}

// TestPatchSharesUnchangedSegments pins the copy-on-write contract: a
// delete that edits no kid blocks shares nodes, cuts and kids with its
// parent snapshot, and patched snapshots never disturb what a previously
// captured snapshot returns.
func TestPatchSharesUnchangedSegments(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 300, 7)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	e0 := Compile(tree)
	trace := classbench.GenerateTrace(rs, 2000, 8)
	before := make([]int32, len(trace))
	e0.ClassifyBatch(trace, before)

	d, err := tree.DeleteDelta(3)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := e0.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	if &e1.nodes[0] != &e0.nodes[0] {
		t.Error("delete copied the nodes segment")
	}
	if len(e1.cuts) > 0 && &e1.cuts[0] != &e0.cuts[0] {
		t.Error("patch copied the cuts segment")
	}

	// The old snapshot still answers exactly as before the update.
	after := make([]int32, len(trace))
	e0.ClassifyBatch(trace, after)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("packet %d: captured snapshot changed from %d to %d after patch", i, before[i], after[i])
		}
	}
	// And the new one reflects the delete.
	for i, p := range trace {
		if before[i] == 3 && e1.Classify(p) == 3 {
			t.Fatalf("packet %d still matches deleted rule on patched snapshot", i)
		}
	}
}

// TestPatchRejectsOutOfOrder pins the delta-ordering contract.
func TestPatchRejectsOutOfOrder(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 100, 9)
	tree, err := core.Build(rs, core.DefaultConfig(core.HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	e0 := Compile(tree)
	r := rule.New(len(rs), 0, 0, 0, 0,
		rule.FullRange(rule.DimSrcPort), rule.FullRange(rule.DimDstPort), 0, true)
	d, err := tree.InsertDelta(r)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := e0.Patch(d)
	if err != nil {
		t.Fatalf("in-order patch failed: %v", err)
	}
	if _, err := e1.Patch(d); err == nil {
		t.Error("replaying an already-applied insert delta was accepted")
	}
}

// freeze deep-copies every arena of e up to its length: everything a
// reader of e can load.
func freeze(e *Engine) *Engine {
	c := *e
	c.nodes = slices.Clone(e.nodes)
	c.cuts = slices.Clone(e.cuts)
	c.kids = slices.Clone(e.kids)
	c.leaves = make([][]leafRef, len(e.leaves))
	for i, chunk := range e.leaves {
		c.leaves[i] = slices.Clone(chunk)
	}
	c.ruleIDs = slices.Clone(e.ruleIDs)
	c.rules = slices.Clone(e.rules)
	c.soa.words = slices.Clone(e.soa.words)
	return &c
}

// firstDiff returns the first index where got and want differ, or -1.
func firstDiff[T comparable](got, want []T) int {
	for i := range want {
		if i == len(got) || got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return len(want)
	}
	return -1
}

// checkUntouched fails unless e still holds what freeze recorded in
// want, arena by arena.
func checkUntouched(t *testing.T, e, want *Engine, when string) {
	t.Helper()
	for _, a := range []struct {
		what  string
		at, n int
	}{
		{"node", firstDiff(e.nodes, want.nodes), len(want.nodes)},
		{"cut", firstDiff(e.cuts, want.cuts), len(want.cuts)},
		{"kid slot", firstDiff(e.kids, want.kids), len(want.kids)},
		{"pool slot", firstDiff(e.ruleIDs, want.ruleIDs), len(want.ruleIDs)},
		{"rule", firstDiff(e.rules, want.rules), len(want.rules)},
		{"bank word", firstDiff(e.soa.words, want.soa.words), len(want.soa.words)},
	} {
		if a.at >= 0 {
			t.Fatalf("%s: %s %d of %d of the receiver changed", when, a.what, a.at, a.n)
		}
	}
	if len(e.leaves) != len(want.leaves) {
		t.Fatalf("%s: the receiver's leaf directory changed length", when)
	}
	for ci := range want.leaves {
		if i := firstDiff(e.leaves[ci], want.leaves[ci]); i >= 0 {
			t.Fatalf("%s: leaf %d of the receiver changed", when, ci*leafChunkLen+i)
		}
	}
	if e.numLeaves != want.numLeaves || e.deadRuleSlots != want.deadRuleSlots ||
		e.deadKidSlots != want.deadKidSlots || e.soa.order != want.soa.order || e.kern != want.kern {
		t.Fatalf("%s: the receiver's counters changed", when)
	}
}

// TestPatchLeavesReceiverUntouched is the arena protocol as a property:
// after every Patch or PatchBatch — successful, or failed part-way
// through a batch — the receiver holds bit-identical arenas up to each
// arena's length (nodes, cuts, kids, every leaf chunk, ruleIDs, rules,
// every bank word), so a patch never writes a word a reader of an older
// snapshot can load. Randomized insert/delete sequences run on both
// algorithms, as single deltas and as bursts; every tenth step first
// fails a batch on its last delta, then retries it on the same receiver.
func TestPatchLeavesReceiverUntouched(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		t.Run(algo.String(), func(t *testing.T) {
			const seed = 400
			rng := rand.New(rand.NewSource(seed))
			rs := classbench.Generate(classbench.ACL1(), 400, seed)
			tree, err := core.Build(rs, core.DefaultConfig(algo))
			if err != nil {
				t.Fatal(err)
			}
			e := Compile(tree)
			pool := classbench.Generate(classbench.FW1(), 512, seed+1)
			next := func() *core.Delta {
				if rng.Intn(3) == 0 {
					if d, err := tree.DeleteDelta(rng.Intn(tree.NumRules())); err == nil {
						return d
					}
				}
				r := pool[rng.Intn(len(pool))]
				r.ID = tree.NumRules()
				d, err := tree.InsertDelta(r)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			kidEdits, unaligned, failed := 0, 0, 0
			for step := 0; step < 150; step++ {
				ds := []*core.Delta{next()}
				if rng.Intn(2) == 0 {
					for n := rng.Intn(6); n > 0; n-- {
						ds = append(ds, next())
					}
				}
				for _, d := range ds {
					kidEdits += len(d.KidEdits)
				}
				if len(e.ruleIDs)%wordSlots != 0 {
					unaligned++
				}
				want := freeze(e)
				if last := ds[len(ds)-1]; step%10 == 0 && len(last.LeafEdits) > 0 {
					bad := *last
					bad.LeafEdits = slices.Clone(last.LeafEdits)
					bad.LeafEdits[len(bad.LeafEdits)-1].Index = 1 << 20
					bad.LeafEdits[len(bad.LeafEdits)-1].New = false
					if _, err := e.PatchBatch(append(ds[:len(ds)-1:len(ds)-1], &bad)); err == nil {
						t.Fatalf("step %d: a corrupted batch was accepted", step)
					}
					checkUntouched(t, e, want, fmt.Sprintf("step %d, failed batch", step))
					failed++
				}
				var ne *Engine
				if len(ds) == 1 {
					ne, err = e.Patch(ds[0])
				} else {
					ne, err = e.PatchBatch(ds)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkUntouched(t, e, want, fmt.Sprintf("step %d (%d deltas)", step, len(ds)))
				e = ne
			}
			if kidEdits == 0 || unaligned == 0 || failed == 0 {
				t.Fatalf("premise: %d kid edits, %d unaligned receivers, %d failed batches", kidEdits, unaligned, failed)
			}
			trace := classbench.GenerateTrace(rs, 2000, seed+2)
			if err := VerifyPatched(trace, e, Compile(tree)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
