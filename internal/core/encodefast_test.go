package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rule"
)

// setBits writes the width low bits of val at bit offset off (LSB-first
// packing) into w.
func setBits(w []byte, off, width uint, val uint64) {
	for i := uint(0); i < width; i++ {
		bit := (val >> i) & 1
		idx := (off + i) / 8
		sh := (off + i) % 8
		if bit == 1 {
			w[idx] |= 1 << sh
		} else {
			w[idx] &^= 1 << sh
		}
	}
}

// encodeInternalBitwise is the original field-by-field bit-packing path,
// kept as the differential oracle for the word-level fast path
// (encodeInternal, encode.go).
func encodeInternalBitwise(w []byte, n *Node) error {
	for _, c := range n.Cuts {
		setBits(w, uint(16*c.Dim), 8, uint64(c.Mask))
		setBits(w, uint(16*c.Dim+8), 8, uint64(uint8(c.Shift)))
	}
	if len(n.Children) > MaxCuts {
		return fmt.Errorf("core: node has %d children; word format caps at %d", len(n.Children), MaxCuts)
	}
	for i, c := range n.Children {
		off := uint(nodeHeaderBits + i*cutEntryBits)
		if c == nil {
			return fmt.Errorf("core: nil child survived build; expected shared empty leaf")
		}
		typ := uint64(0)
		if c.Leaf {
			typ = 1
		}
		if c.Word >= 1<<PointerBits {
			return fmt.Errorf("core: child word %d exceeds pointer field", c.Word)
		}
		setBits(w, off, 1, typ)
		setBits(w, off+1, PointerBits, uint64(c.Word))
		setBits(w, off+1+PointerBits, PosBits, uint64(c.Pos))
	}
	return nil
}

// randInternalNode builds an internal node with nc children whose
// leaf/word/pos fields sweep the entries' bit ranges.
func randInternalNode(rng *rand.Rand, nc int) *Node {
	n := &Node{}
	dims := rng.Perm(rule.NumDims)[:1+rng.Intn(rule.NumDims)]
	for _, d := range dims {
		n.Cuts = append(n.Cuts, DimCut{
			Dim:   d,
			Mask:  uint8(rng.Uint32()),
			Shift: int8(rng.Intn(15) - 7),
		})
	}
	for i := 0; i < nc; i++ {
		n.Children = append(n.Children, &Node{
			Leaf: rng.Intn(2) == 1,
			Word: rng.Intn(1 << PointerBits),
			Pos:  rng.Intn(1 << PosBits),
		})
	}
	return n
}

// TestEncodeInternalByteIdentity pins that the word-level internal-node
// encoder (byte stores + 32-bit LE read-OR-write per cut entry) and the
// bit-by-bit oracle produce identical bytes, over random nodes and the
// format's edge shapes. Both paths get the zeroed buffer the encoder's
// contract requires.
func TestEncodeInternalByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	check := func(name string, n *Node) {
		t.Helper()
		fast := make([]byte, WordBytes)
		slow := make([]byte, WordBytes)
		if err := encodeInternal(fast, n); err != nil {
			t.Fatalf("%s: fast: %v", name, err)
		}
		if err := encodeInternalBitwise(slow, n); err != nil {
			t.Fatalf("%s: bitwise: %v", name, err)
		}
		if !bytes.Equal(fast, slow) {
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("%s: byte %d differs: fast %#02x bitwise %#02x", name, i, fast[i], slow[i])
				}
			}
		}
	}

	// Edge shapes: no children, one child, a full 256-entry word (its
	// last entry ends exactly at bit 4688), all-ones entries, and entries
	// whose Pos overflows PosBits (both paths must truncate alike).
	check("empty", &Node{})
	check("one", &Node{Children: []*Node{{Leaf: true, Word: 1<<PointerBits - 1, Pos: 1<<PosBits - 1}}})
	full := &Node{}
	for i := 0; i < MaxCuts; i++ {
		full.Children = append(full.Children, &Node{Leaf: true, Word: 1<<PointerBits - 1, Pos: 1<<PosBits - 1})
	}
	for d := 0; d < rule.NumDims; d++ {
		full.Cuts = append(full.Cuts, DimCut{Dim: d, Mask: 0xFF, Shift: -7})
	}
	check("full", full)
	over := &Node{Children: []*Node{{Word: 3, Pos: (1 << PosBits) + 5}}}
	check("pos-overflow", over)

	for trial := 0; trial < 200; trial++ {
		check("random", randInternalNode(rng, 1+rng.Intn(MaxCuts)))
	}
}

// TestEncodeWordsIdentity pins that the whole-word encode of a built
// tree — the path imagepatch's dirty-word rewrites go through — matches
// a full Encode byte-for-byte when every word is rebuilt in place.
func TestEncodeWordsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rs := make(rule.RuleSet, 600)
	for i := range rs {
		rs[i] = randomEncodableRule(rng, i)
	}
	tree, err := Build(rs, DefaultConfig(HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	img, err := tree.Encode()
	if err != nil {
		t.Fatal(err)
	}
	img2, err := tree.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]int, tree.Words())
	for w := range dirty {
		dirty[w] = w
	}
	if err := tree.EncodeWords(img2, dirty); err != nil {
		t.Fatal(err)
	}
	for w := range img.Words {
		if !bytes.Equal(img.Words[w], img2.Words[w]) {
			t.Fatalf("word %d differs after in-place EncodeWords", w)
		}
	}
}

// BenchmarkEncodeInternal measures the word-level internal-node encoder
// against the bitwise oracle on a full 256-entry node (the patch path's
// dirty-word unit).
func BenchmarkEncodeInternal(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := randInternalNode(rng, MaxCuts)
	w := make([]byte, WordBytes)
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range w {
				w[j] = 0
			}
			if err := encodeInternal(w, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bitwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range w {
				w[j] = 0
			}
			if err := encodeInternalBitwise(w, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}
