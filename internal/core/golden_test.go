package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/classbench"
	"repro/internal/hypercuts"
)

// buildGolden pins the output of both builders, tree by tree, to hashes
// recorded before the HyperCuts cut search was made cheaper. A search
// shortcut that changes any decision changes a hash here, whereas
// TestDeterministicBuild only compares two builds made by the same code.
//
// Each core entry hashes the BuildStats, Words(), every internal node's
// word, cuts and child references, every leaf's word, position and rules,
// and the Encode() bytes (or the error, where the tree is not encodable).
// Each hypercuts entry hashes the baseline's BuildStats and its node
// graph (cuts, pushed rules, leaf rules, child sharing).
//
// A mismatch logs the recomputed table line; regenerate only for a change
// that is meant to alter the trees.
var buildGolden = map[string]string{
	"acl1/800/HiCuts/speed0":      "d9dbe724316188d5",
	"acl1/800/HiCuts/speed1":      "de4e5c6c0686963b",
	"acl1/800/HyperCuts/speed0":   "d04aad8e369ac1a0",
	"acl1/800/HyperCuts/speed1":   "6806cf27238479fe",
	"acl1/2191/HiCuts/speed0":     "a93cef8d10a960b7",
	"acl1/2191/HiCuts/speed1":     "5160e514ecb288cc",
	"acl1/2191/HyperCuts/speed0":  "cc46ceb0cfb4f001",
	"acl1/2191/HyperCuts/speed1":  "77a4304c9f067bf3",
	"acl1/2500/HiCuts/speed0":     "17f9237225a4e990",
	"acl1/2500/HiCuts/speed1":     "a3aec571cb4f9d12",
	"acl1/2500/HyperCuts/speed0":  "322061b4c5ecd5ae",
	"acl1/2500/HyperCuts/speed1":  "799cc6e62810aef1",
	"acl1/10000/HiCuts/speed0":    "12712911f523c079",
	"acl1/10000/HiCuts/speed1":    "6b0f09c0b180ba45",
	"acl1/10000/HyperCuts/speed0": "a022c9bd86c5ff00",
	"acl1/10000/HyperCuts/speed1": "5d9375cb81c45317",
	"fw1/800/HiCuts/speed0":       "c328b172857a32bc",
	"fw1/800/HiCuts/speed1":       "c6e213dd5c780e9c",
	"fw1/800/HyperCuts/speed0":    "e6d14fb9831a3e4f",
	"fw1/800/HyperCuts/speed1":    "0144a57d2c4a109d",
	"fw1/2191/HiCuts/speed0":      "a6feabe6d1998bb7",
	"fw1/2191/HiCuts/speed1":      "1bb10ae9d047ba20",
	"fw1/2191/HyperCuts/speed0":   "df524aefd561f8d7",
	"fw1/2191/HyperCuts/speed1":   "d53ad57bad46ec2c",
	"fw1/2500/HiCuts/speed0":      "f8028e2c1db90fcb",
	"fw1/2500/HiCuts/speed1":      "feb051b92b64eff2",
	"fw1/2500/HyperCuts/speed0":   "450f6c5bd45daab7",
	"fw1/2500/HyperCuts/speed1":   "1e2f74e31a97cfee",
	"fw1/10000/HiCuts/speed0":     "62bdeccafbaab0a7",
	"fw1/10000/HiCuts/speed1":     "327a1855c9676d6c",
	"fw1/10000/HyperCuts/speed0":  "ea5869e1c42d451e",
	"fw1/10000/HyperCuts/speed1":  "a177b359b2e7092e",
	"ipc1/800/HiCuts/speed0":      "0a4f2a4f5e572520",
	"ipc1/800/HiCuts/speed1":      "243796feb7158a68",
	"ipc1/800/HyperCuts/speed0":   "2a2df0f685436b12",
	"ipc1/800/HyperCuts/speed1":   "eea8fe00ced96e7d",
	"ipc1/2191/HiCuts/speed0":     "d801c474585587c9",
	"ipc1/2191/HiCuts/speed1":     "4d6570d01b8da105",
	"ipc1/2191/HyperCuts/speed0":  "a86d53192912462d",
	"ipc1/2191/HyperCuts/speed1":  "2ec657736d058808",
	"ipc1/2500/HiCuts/speed0":     "f03961d2e341d9d6",
	"ipc1/2500/HiCuts/speed1":     "d8d64f4e9b277098",
	"ipc1/2500/HyperCuts/speed0":  "d092d6c3f4e44b5c",
	"ipc1/2500/HyperCuts/speed1":  "da6916ab9f7adf75",
	"ipc1/10000/HiCuts/speed0":    "2368906155634c78",
	"ipc1/10000/HiCuts/speed1":    "cb44cb0c0a31595a",
	"ipc1/10000/HyperCuts/speed0": "dcbcb359863c2531",
	"ipc1/10000/HyperCuts/speed1": "2ef84e4105a3ffc7",
}

var hypercutsGolden = map[string]string{
	"acl1/800":  "e6c2548a3d351bb3",
	"acl1/2191": "3bb970841884e013",
	"fw1/800":   "86b0b8f38dd22a66",
	"fw1/2191":  "38035e683aa76ea5",
	"ipc1/800":  "b7f0e1c0796da403",
	"ipc1/2191": "836dbdaece1c7369",
}

func TestBuildGolden(t *testing.T) {
	check := func(table map[string]string, key, got string) {
		t.Helper()
		if want, ok := table[key]; !ok || want != got {
			t.Errorf("%s: hash %s, want %q\n\t%q: %q,", key, got, want, key, got)
		}
	}
	for _, prof := range []string{"acl1", "fw1", "ipc1"} {
		p, err := classbench.ProfileByName(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{800, 2191, 2500, 10000} {
			rs := classbench.Generate(p, n, 2008)
			for _, algo := range []Algorithm{HiCuts, HyperCuts} {
				for _, speed := range []int{0, 1} {
					cfg := DefaultConfig(algo)
					cfg.Speed = speed
					tr := buildOrDie(t, rs, cfg)
					check(buildGolden, fmt.Sprintf("%s/%d/%v/speed%d", prof, n, algo, speed), hashTree(tr))
				}
			}
			if n == 800 || n == 2191 {
				bt, err := hypercuts.Build(rs, hypercuts.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				check(hypercutsGolden, fmt.Sprintf("%s/%d", prof, n), hashBaseline(bt))
			}
		}
	}
}

type goldenHash struct{ hash.Hash64 }

func (h goldenHash) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func (h goldenHash) ids(ids []int32) {
	h.ints(int64(len(ids)))
	for _, id := range ids {
		h.ints(int64(id))
	}
}

func (h goldenHash) sum() string { return fmt.Sprintf("%016x", h.Sum64()) }

func hashTree(tr *Tree) string {
	h := goldenHash{fnv.New64a()}
	st := tr.Stats()
	h.ints(int64(st.Nodes), int64(st.Internal), int64(st.Leaves), int64(st.MaxDepth),
		st.CutEvaluations, st.RuleChildOps, st.RulePushes, st.ReplicatedRules,
		int64(st.OverflowLeaves), int64(tr.Words()))
	for _, n := range tr.Internals() {
		h.ints(int64(n.Word), int64(len(n.Cuts)))
		for _, c := range n.Cuts {
			h.ints(int64(c.Dim), int64(c.Bits), int64(c.Mask), int64(c.Shift))
		}
		h.ints(int64(len(n.Children)))
		for _, c := range n.Children {
			switch {
			case c == nil:
				h.ints(-1)
			case c.Leaf:
				h.ints(1, int64(c.Word), int64(c.Pos))
			default:
				h.ints(0, int64(c.Word))
			}
		}
	}
	for _, l := range tr.Leaves() {
		h.ints(int64(l.Word), int64(l.Pos))
		h.ids(l.Rules)
	}
	img, err := tr.Encode()
	if err != nil {
		h.Write([]byte(err.Error()))
	} else {
		h.ints(int64(img.NumInternal), int64(img.Speed))
		for _, w := range img.Words {
			h.Write(w)
		}
	}
	return h.sum()
}

func hashBaseline(bt *hypercuts.Tree) string {
	h := goldenHash{fnv.New64a()}
	st := bt.Stats()
	h.ints(int64(st.Nodes), int64(st.Internal), int64(st.Leaves), int64(st.MaxDepth),
		st.CutEvaluations, st.RuleChildOps, st.RulePushes, st.PushedUp,
		st.CompactionOps, int64(st.MemoryBytes), st.ReplicatedRules)
	seen := map[*hypercuts.Node]int64{}
	var walk func(n *hypercuts.Node)
	walk = func(n *hypercuts.Node) {
		if n == nil {
			h.ints(-1)
			return
		}
		if id, ok := seen[n]; ok {
			h.ints(-2, id)
			return
		}
		seen[n] = int64(len(seen))
		if n.Leaf {
			h.ints(1)
			h.ids(n.Rules)
			return
		}
		h.ints(0, int64(len(n.Cuts)))
		for _, c := range n.Cuts {
			h.ints(int64(c.Dim), int64(c.NumCuts), int64(c.Lo), int64(c.Hi))
		}
		h.ids(n.Pushed)
		h.ints(int64(len(n.Children)))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(bt.Root)
	return h.sum()
}
