package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/pod"
	"repro/internal/rule"
)

// buildChurned builds an ACL1 tree, applies some churn through the
// delta path, and returns the tree, the patched engine, and the live
// ruleset (for trace generation).
func buildChurned(t *testing.T, algo core.Algorithm, n, churn int, seed int64) (*core.Tree, *Engine, rule.RuleSet) {
	t.Helper()
	rs := classbench.Generate(classbench.ACL1(), n, seed)
	tree, err := core.Build(rs, core.DefaultConfig(algo))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	eng := Compile(tree)
	live := append(rule.RuleSet{}, rs...)
	pool := classbench.Generate(classbench.FW1(), churn, seed+1)
	for i := range pool {
		r := pool[i]
		r.ID = len(live)
		d, err := tree.InsertDelta(r)
		if err != nil {
			t.Fatalf("churn insert %d: %v", i, err)
		}
		live = append(live, r)
		if eng, err = eng.Patch(d); err != nil {
			t.Fatalf("churn patch %d: %v", i, err)
		}
	}
	return tree, eng, live
}

func snapshotBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := e.Snapshot(&buf)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Snapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// checkBankEqual pins two banks to the same comparator contents: equal
// sweep order and slot-for-slot equal lo/hi arenas.
func checkBankEqual(t *testing.T, got, want *soaBank) {
	t.Helper()
	if got.order != want.order {
		t.Fatalf("bank sweep order %v, want %v", got.order, want.order)
	}
	if !slices.Equal(got.words, want.words) {
		t.Fatal("bank words differ")
	}
}

func TestImageRoundTrip(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		for _, churn := range []int{0, 60} {
			t.Run(algo.String(), func(t *testing.T) {
				_, eng, live := buildChurned(t, algo, 400, churn, 11)
				img := snapshotBytes(t, eng)
				got, err := RestoreEngineBytes(img)
				if err != nil {
					t.Fatalf("RestoreEngineBytes: %v", err)
				}
				if !eng.LayoutEqual(got) {
					t.Fatal("restored engine layout differs from source")
				}
				if got.kern != defaultKern {
					t.Errorf("restored kern %d, want this host's default %d", got.kern, defaultKern)
				}
				// Compile's bulk build plus Patch's appends (the saved
				// engine) and restore's bulk build produce one bank.
				checkBankEqual(t, &got.soa, &eng.soa)
				trace := classbench.GenerateTrace(live, 3000, 12)
				for i, p := range trace {
					if w, g := eng.Classify(p), got.Classify(p); g != w {
						t.Fatalf("packet %d: restored=%d source=%d", i, g, w)
					}
					if w, g := eng.ClassifyAoS(p), got.ClassifyAoS(p); g != w {
						t.Fatalf("packet %d (AoS): restored=%d source=%d", i, g, w)
					}
				}
			})
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	_, eng, _ := buildChurned(t, core.HyperCuts, 300, 30, 5)
	if !bytes.Equal(snapshotBytes(t, eng), snapshotBytes(t, eng)) {
		t.Fatal("two snapshots of the same engine differ")
	}
	// A snapshot of a restored engine must reproduce the image exactly:
	// restore is lossless up to host-derived state.
	img := snapshotBytes(t, eng)
	got, err := RestoreEngineBytes(img)
	if err != nil {
		t.Fatalf("RestoreEngineBytes: %v", err)
	}
	if !bytes.Equal(img, snapshotBytes(t, got)) {
		t.Fatal("snapshot(restore(image)) != image")
	}
}

func TestLayoutEqual(t *testing.T) {
	tree, eng, _ := buildChurned(t, core.HyperCuts, 300, 0, 6)
	if !eng.LayoutEqual(Compile(tree)) {
		t.Fatal("two compiles of the same tree are not LayoutEqual")
	}
	r := classbench.Generate(classbench.FW1(), 1, 7)[0]
	r.ID = tree.NumRules()
	d, err := tree.InsertDelta(r)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := eng.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	if eng.LayoutEqual(patched) {
		t.Fatal("patched engine reported LayoutEqual to its parent")
	}
}

// TestImageReplicaCatchUp is the replica differential of the ISSUE's
// acceptance criteria: build + churn on node A, snapshot, restore on
// "node B", then replay the identical 1000-update delta stream through
// both handles via ApplyBatch. The replica must stay classify-identical
// to the live engine, for both algorithms.
func TestImageReplicaCatchUp(t *testing.T) {
	for _, algo := range []core.Algorithm{core.HiCuts, core.HyperCuts} {
		t.Run(algo.String(), func(t *testing.T) {
			tree, eng, live := buildChurned(t, algo, 500, 40, 21)
			hA := NewHandle(eng)

			hB, err := RestoreBytes(snapshotBytes(t, eng))
			if err != nil {
				t.Fatalf("RestoreBytes: %v", err)
			}

			const updates = 1000
			const batch = 50
			rng := rand.New(rand.NewSource(22))
			pool := classbench.Generate(classbench.IPC1(), updates, 23)
			inserted := 0
			deleted := map[int]bool{}
			applied := 0
			for applied < updates {
				var ds []*core.Delta
				for len(ds) < batch && applied+len(ds) < updates {
					if inserted < len(pool) && rng.Intn(10) < 7 {
						r := pool[inserted]
						r.ID = len(live)
						inserted++
						d, err := tree.InsertDelta(r)
						if err != nil {
							t.Fatalf("insert delta: %v", err)
						}
						live = append(live, r)
						ds = append(ds, d)
					} else {
						id := rng.Intn(len(live))
						if deleted[id] {
							continue
						}
						d, err := tree.DeleteDelta(id)
						if err != nil {
							t.Fatalf("delete delta: %v", err)
						}
						deleted[id] = true
						ds = append(ds, d)
					}
				}
				applied += len(ds)
				if _, err := hA.ApplyBatch(ds); err != nil {
					t.Fatalf("node A ApplyBatch: %v", err)
				}
				if _, err := hB.ApplyBatch(ds); err != nil {
					t.Fatalf("node B ApplyBatch: %v", err)
				}
			}

			lr := append(rule.RuleSet{}, live...)
			alive := lr[:0]
			for i := range lr {
				if !deleted[lr[i].ID] {
					alive = append(alive, lr[i])
				}
			}
			trace := classbench.GenerateTrace(alive, 5000, 24)
			wantOut := make([]int32, len(trace))
			gotOut := make([]int32, len(trace))
			hA.Current().Engine().ClassifyBatch(trace, wantOut)
			hB.Current().Engine().ClassifyBatch(trace, gotOut)
			for i := range trace {
				if gotOut[i] != wantOut[i] {
					t.Fatalf("after %d replayed updates, packet %d: replica=%d live=%d",
						applied, i, gotOut[i], wantOut[i])
				}
			}
		})
	}
}

// mutateSection re-encodes an image with one section's bytes altered by
// fn, recomputing all checksums — producing a checksum-valid but
// semantically corrupt image that only engine-level validation can
// reject.
func mutateSection(t *testing.T, img []byte, id uint32, fn func([]byte) []byte) []byte {
	t.Helper()
	secs, err := image.ReadBytes(img)
	if err != nil {
		t.Fatalf("mutateSection: %v", err)
	}
	for i := range secs {
		if secs[i].ID == id {
			secs[i].Data = fn(bytes.Clone(secs[i].Data))
		}
	}
	var buf bytes.Buffer
	if _, err := image.Write(&buf, secs); err != nil {
		t.Fatalf("mutateSection rewrite: %v", err)
	}
	return buf.Bytes()
}

// TestRestoreRejectsForgedImages drives checksum-valid images with
// broken engine invariants through RestoreEngineBytes: every one must fail
// closed with a *image.FormatError — never panic, never produce an
// engine.
func TestRestoreRejectsForgedImages(t *testing.T) {
	_, eng, _ := buildChurned(t, core.HyperCuts, 300, 20, 31)
	img := snapshotBytes(t, eng)

	wantFormatError := func(t *testing.T, bad []byte, mentions ...string) {
		t.Helper()
		e, err := RestoreEngineBytes(bad)
		var fe *image.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("error %T (%v) is not a *image.FormatError", err, err)
		}
		if e != nil {
			t.Fatal("RestoreEngineBytes returned an engine alongside an error")
		}
		for _, m := range mentions {
			if !strings.Contains(fe.Msg, m) {
				t.Errorf("error %q does not mention %q", fe.Msg, m)
			}
		}
	}
	put32 := func(b []byte, off int, v uint32) []byte {
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	// A window to plant a pad in: the first leaf holding rules.
	var win leafRef
	for i := int32(0); win.n == 0; i++ {
		win = eng.leafAt(i)
	}
	cases := []struct {
		name string
		sec  uint32
		fn   func([]byte) []byte
	}{
		{"order-not-permutation", secMeta, func(b []byte) []byte { b[metaOrder], b[metaOrder+1] = 0, 0; return b }},
		{"order-dim-out-of-range", secMeta, func(b []byte) []byte { b[metaOrder] = 9; return b }},
		{"leaf-count-mismatch", secMeta, func(b []byte) []byte { return put32(b, 16, binary.LittleEndian.Uint32(b[16:])+1) }},
		{"garbage-counter-overflow", secMeta, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<40)
			return b
		}},
		{"meta-padding-dirty", secMeta, func(b []byte) []byte { b[metaLen-1] = 1; return b }},
		{"node-cut-block-oob", secNodes, func(b []byte) []byte { return put32(b, 4, 1<<20) }},
		{"node-kid-block-oob", secNodes, func(b []byte) []byte { return put32(b, 8, 1<<29) }},
		{"node-fanout-exceeds-block", secNodes, func(b []byte) []byte { return put32(b, 12, 0) }},
		{"node-negative-offset", secNodes, func(b []byte) []byte { return put32(b, 0, 0x80000001) }},
		{"cut-bad-dimension", secCuts, func(b []byte) []byte { b[0] = 7; return b }},
		// Kid mutations must hit a live block (patched engines leave dead
		// relocated blocks in the pool, which validation rightly skips):
		// node 0's block is always referenced by the walk.
		{"kid-backward-ref", secKids, func(b []byte) []byte { return put32(b, int(eng.nodes[0].kidOff)*4, 0) }},
		{"kid-node-oob", secKids, func(b []byte) []byte { return put32(b, int(eng.nodes[0].kidOff)*4, 1<<28) }},
		{"kid-leaf-oob", secKids, func(b []byte) []byte { return put32(b, int(eng.nodes[0].kidOff)*4, 0xEFFFFFFF) }}, // ^ref = 1<<28: leaf index far past the table
		{"leaf-window-oob", secLeaves, func(b []byte) []byte { return put32(b, 4, 1<<29) }},
		{"leaf-negative-window", secLeaves, func(b []byte) []byte { return put32(b, 0, 0xFFFFFFFF) }},
		{"rule-id-oob", secRuleIDs, func(b []byte) []byte { return put32(b, 0, 1<<29) }},
		{"rule-id-negative", secRuleIDs, func(b []byte) []byte { return put32(b, 0, 0xFFFFFFFE) }}, // -1 is a pad
		{"pad-inside-window", secRuleIDs, func(b []byte) []byte { return put32(b, int(win.off)*4, 0xFFFFFFFF) }},
		{"nodes-indivisible-length", secNodes, func(b []byte) []byte { return append(b, 0) }},
		{"truncated-meta", secMeta, func(b []byte) []byte { return b[:16] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFormatError(t, mutateSection(t, img, tc.sec, tc.fn))
		})
	}

	t.Run("v1-image", func(t *testing.T) {
		// The version check precedes everything else, so an image whose
		// only defect is the previous format's version fails on it.
		bad := bytes.Clone(img)
		binary.LittleEndian.PutUint16(bad[4:], 1)
		wantFormatError(t, bad, "version 1", "want 2")
	})
	t.Run("seventeen-sections", func(t *testing.T) {
		// A well-formed v2 container still carrying the previous format's
		// ten SoA arena sections: rejected by the section count.
		secs, err := image.ReadBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint32(16); len(secs) < 17; id++ {
			secs = append(secs, image.Section{ID: id, Data: make([]byte, 4*len(eng.ruleIDs))})
		}
		var buf bytes.Buffer
		if _, err := image.Write(&buf, secs); err != nil {
			t.Fatal(err)
		}
		wantFormatError(t, buf.Bytes(), "17 sections, want 7")
	})
	t.Run("missing-section", func(t *testing.T) {
		secs, err := image.ReadBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		secs[0].ID = 99 // meta masquerades under an unknown ID
		var buf bytes.Buffer
		if _, err := image.Write(&buf, secs); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreEngineBytes(buf.Bytes()); err == nil {
			t.Fatal("image with a missing engine section restored")
		}
	})
	t.Run("raw-corruption-sweep", func(t *testing.T) {
		// Bit flips and truncations through the whole stack (sparse: the
		// container's own tests do the exhaustive sweep).
		for off := 0; off < len(img); off += 7 {
			bad := bytes.Clone(img)
			bad[off] ^= 1 << (off % 8)
			if _, err := RestoreEngineBytes(bad); err == nil {
				t.Fatalf("bit flip at %d restored cleanly", off)
			}
			if _, err := RestoreEngineBytes(img[:off]); err == nil {
				t.Fatalf("truncation at %d restored cleanly", off)
			}
		}
	})
}

// TestImageElementSizes pins the sizes of the structs the image sections
// alias (internal/pod reads each as its in-memory bytes): a field added
// to one of them changes the format and must bump image.Version.
func TestImageElementSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"node", pod.Size[node](), 16},
		{"cut", pod.Size[cut](), 3},
		{"leafRef", pod.Size[leafRef](), 8},
		{"flatRule", pod.Size[flatRule](), 40},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, the image format has %d", c.name, c.got, c.want)
		}
	}
}

// TestRestoredEnginePatches proves a restored engine keeps full
// live-update capability: patches applied to source and replica stay
// classify-identical, and none of the replica's appends lands in the
// image buffer its pools alias (they carry no spare capacity, and the
// bank is the replica's own allocation).
func TestRestoredEnginePatches(t *testing.T) {
	tree, eng, live := buildChurned(t, core.HyperCuts, 300, 0, 41)
	img := snapshotBytes(t, eng)
	buf := bytes.Clone(img) // the replica's pools alias buf
	rep, err := RestoreEngineBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	pool := classbench.Generate(classbench.FW1(), 50, 42)
	for i := range pool {
		r := pool[i]
		r.ID = len(live)
		d, err := tree.InsertDelta(r)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, r)
		if eng, err = eng.Patch(d); err != nil {
			t.Fatal(err)
		}
		if rep, err = rep.Patch(d); err != nil {
			t.Fatalf("patch on restored engine: %v", err)
		}
	}
	trace := classbench.GenerateTrace(live, 3000, 43)
	for i, p := range trace {
		if w, g := eng.Classify(p), rep.Classify(p); g != w {
			t.Fatalf("packet %d: patched replica=%d patched source=%d", i, g, w)
		}
	}
	checkBankEqual(t, &rep.soa, &eng.soa)
	if !bytes.Equal(buf, img) {
		t.Fatal("patching the restored engine wrote into the image buffer")
	}
}
