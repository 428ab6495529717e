package engine

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/rule"
)

// fuzzProbePackets cover the corners and a few interior points of the
// field space — enough to push a bogus-but-accepted engine through its
// walk and both leaf-scan kernels.
var fuzzProbePackets = []rule.Packet{
	{},
	{SrcIP: ^uint32(0), DstIP: ^uint32(0), SrcPort: 0xFFFF, DstPort: 0xFFFF, Proto: 0xFF},
	{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1234, DstPort: 80, Proto: 6},
	{SrcIP: 0x80000000, DstIP: 0x7FFFFFFF, SrcPort: 53, DstPort: 53, Proto: 17},
	{SrcIP: 0xDEADBEEF, DstIP: 0x01020304, SrcPort: 0x8000, DstPort: 1, Proto: 1},
}

// fuzzSeedImage builds a tiny deterministic engine image for the fuzz
// seed corpus (small enough that the fuzzer can mutate it usefully),
// after inserts patched into it: with any, the pool holds noRule pads.
func fuzzSeedImage(f *testing.F, algo core.Algorithm, n, inserts int, seed int64) []byte {
	f.Helper()
	rs := classbench.Generate(classbench.ACL1(), n, seed)
	tree, err := core.Build(rs, core.DefaultConfig(algo))
	if err != nil {
		f.Fatal(err)
	}
	e := Compile(tree)
	for _, r := range classbench.Generate(classbench.FW1(), inserts, seed+1) {
		r.ID = tree.NumRules()
		d, err := tree.InsertDelta(r)
		if err != nil {
			f.Fatal(err)
		}
		if e, err = e.Patch(d); err != nil {
			f.Fatal(err)
		}
	}
	if inserts > 0 && !slices.Contains(e.ruleIDs, noRule) {
		f.Fatal("patched seed image holds no pad")
	}
	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzImageRestore drives arbitrary bytes through the whole restore
// stack — container parsing, checksum verification, and engine-level
// invariant validation — and pins the fail-closed contract: any input
// either restores to a self-consistent engine or returns a typed
// *image.FormatError. No input may panic, hang the walk, or produce an
// engine whose image round-trip disagrees with itself (a silently-wrong
// restore).
func FuzzImageRestore(f *testing.F) {
	img := fuzzSeedImage(f, core.HyperCuts, 40, 0, 3)
	f.Add(img)
	f.Add(fuzzSeedImage(f, core.HiCuts, 25, 0, 4))
	flipped := bytes.Clone(img)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(img[:len(img)/3])
	f.Add([]byte{})
	f.Add([]byte(image.Magic))
	// Zero-section images — the smallest well-formed container — in the
	// current, the previous and the next format version.
	for _, v := range []byte{image.Version, image.Version - 1, image.Version + 1} {
		f.Add(append([]byte{'P', 'C', 'E', 'I', v, 0, 0, 0, 24}, make([]byte, 15)...))
	}
	f.Add(bytes.Repeat([]byte{0xFF}, 128))
	f.Add(fuzzSeedImage(f, core.HyperCuts, 40, 3, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := RestoreEngineBytes(bytes.Clone(data))
		if err != nil {
			var fe *image.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("restore error %T (%v) is not a *image.FormatError", err, err)
			}
			if e != nil {
				t.Fatal("engine returned alongside error")
			}
			return
		}
		// Accepted: the engine must be serviceable and self-consistent.
		// Classify across the field space exercises walk termination and
		// every validated bound; the round-trip pins that what was
		// decoded re-encodes to an image that restores to the same
		// layout.
		for _, p := range fuzzProbePackets {
			if got := e.Classify(p); got != e.ClassifyAoS(p) {
				t.Fatalf("restored engine: SoA and AoS scan disagree on %+v", p)
			}
		}
		var buf bytes.Buffer
		if _, err := e.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot of restored engine: %v", err)
		}
		again, err := RestoreEngineBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("round-trip of restored engine failed: %v", err)
		}
		if !e.LayoutEqual(again) {
			t.Fatal("round-trip changed the restored engine's layout")
		}
	})
}
