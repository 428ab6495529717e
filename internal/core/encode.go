package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rule"
)

// This file implements the bit-exact 4800-bit memory word encoding of the
// search structure (paper §3):
//
// Internal node word:
//   - bits 0..79: five (mask, shift) byte pairs, one per dimension in
//     dimension order; uncut dimensions hold mask 0 (contributing 0 to the
//     child index);
//   - bits 80..80+256*18-1: 256 cut entries of 18 bits each:
//     1 type bit (1 = leaf), 12-bit memory word index, 5-bit start
//     position of the node within that word.
//
// Leaf storage: consecutive 160-bit rule slots. Each slot holds
//   - 16-bit source port min / 16-bit max,
//   - 16-bit destination port min / 16-bit max,
//   - 35-bit source IP (32-bit address + 3-bit encoded mask; prefix
//     lengths 0..27 store their low bits in the address's unused least
//     significant bits, exactly the trick described in §3),
//   - 35-bit destination IP,
//   - 9-bit protocol (8-bit value + 1 wildcard bit),
//   - 16-bit rule number,
//   - 1 end-of-leaf flag terminating the comparator scan.
//
// A leaf with no rules stores one sentinel slot (rule number 0xFFFF).

// Bit offsets within a 160-bit rule slot.
const (
	ruleOffSrcPortLo = 0
	ruleOffSrcPortHi = 16
	ruleOffDstPortLo = 32
	ruleOffDstPortHi = 48
	ruleOffSrcAddr   = 64
	ruleOffSrcCode   = 96
	ruleOffDstAddr   = 99
	ruleOffDstCode   = 131
	ruleOffProtoVal  = 134
	ruleOffProtoWild = 142
	ruleOffID        = 143
	ruleOffEnd       = 159

	// SentinelID marks an invalid rule slot (empty leaf).
	SentinelID = 0xFFFF

	nodeHeaderBits = 16 * rule.NumDims // five mask/shift byte pairs
	cutEntryBits   = 1 + PointerBits + PosBits
)

// Image is the encoded memory content loaded into the accelerator.
type Image struct {
	// Words holds the memory words; each is WordBytes long. Word 0 is
	// the root internal node (copied to register A at reset).
	Words [][]byte
	// NumInternal is the count of internal-node words at the front.
	NumInternal int
	// Speed records the packing mode the image was laid out with.
	Speed int
}

// Encode serializes the laid-out tree into memory words. It fails if the
// structure cannot be expressed in the word format: more than 4096
// addressable words, rules whose IP fields are not prefixes, protocols
// that are neither exact nor wildcard, or rule IDs >= 0xFFFF.
func (t *Tree) Encode() (*Image, error) {
	if t.words > 1<<PointerBits {
		return nil, fmt.Errorf("core: structure needs %d words; the %d-bit pointer field addresses at most %d",
			t.words, PointerBits, 1<<PointerBits)
	}
	if t.cfg.LeafPointers {
		return nil, fmt.Errorf("core: LeafPointers ablation trees are analytical only and cannot be encoded")
	}
	img := &Image{
		Words:       make([][]byte, t.words),
		NumInternal: len(t.internals),
		Speed:       t.cfg.Speed,
	}
	for i := range img.Words {
		img.Words[i] = make([]byte, WordBytes)
	}
	for _, n := range t.internals {
		if err := encodeInternal(img.Words[n.Word], n); err != nil {
			return nil, err
		}
	}
	for _, l := range t.leafOrder {
		if err := t.encodeLeaf(img, l); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// encodeInternal writes an internal node's memory word: the 80-bit
// mask/shift header as direct byte stores (the header's 16-bit pairs are
// byte-aligned), and each 18-bit cut entry as one 32-bit little-endian
// read-OR-write at its byte offset — an entry shifted into place spans
// at most 25 bits, and the last entry's window (bytes 583..586) stays
// inside the 600-byte word. w must be zero-filled, as both call sites
// (Encode's fresh words, encodeWord's explicit clear) guarantee: the
// entries are OR-merged, not read-modify-masked. encodeInternalBitwise
// (encodefast_test.go) keeps the offset-by-offset path as the
// differential oracle (TestEncodeInternalByteIdentity pins byte identity).
func encodeInternal(w []byte, n *Node) error {
	for _, c := range n.Cuts {
		w[2*c.Dim] = c.Mask
		w[2*c.Dim+1] = byte(c.Shift)
	}
	if len(n.Children) > MaxCuts {
		return fmt.Errorf("core: node has %d children; word format caps at %d", len(n.Children), MaxCuts)
	}
	for i, c := range n.Children {
		if c == nil {
			return fmt.Errorf("core: nil child survived build; expected shared empty leaf")
		}
		if c.Word >= 1<<PointerBits {
			return fmt.Errorf("core: child word %d exceeds pointer field", c.Word)
		}
		e := uint32(0)
		if c.Leaf {
			e = 1
		}
		e |= uint32(c.Word) << 1
		e |= uint32(c.Pos&(1<<PosBits-1)) << (1 + PointerBits)
		off := nodeHeaderBits + i*cutEntryBits
		b := off >> 3
		v := binary.LittleEndian.Uint32(w[b : b+4])
		binary.LittleEndian.PutUint32(w[b:b+4], v|e<<uint(off&7))
	}
	return nil
}

func (t *Tree) encodeLeaf(img *Image, l *Node) error {
	word, pos := l.Word, l.Pos
	n := len(l.Rules)
	if n == 0 {
		return encodeSentinel(img.Words[word], pos)
	}
	if t.leafRefs[l] == 0 {
		// Orphaned leaf: the storage stays allocated (stable layout)
		// but is unreachable, so it holds sentinel slots — nothing for
		// a stray comparator to match, and the bytes no longer depend
		// on rules that later deletes may disable, which keeps
		// word-patched images byte-identical to full re-encodes.
		for i := 0; i < n; i++ {
			encodeSentinel(img.Words[word], pos)
			if pos++; pos == RulesPerWord {
				pos = 0
				word++
			}
		}
		return nil
	}
	for i, id := range l.Rules {
		er, err := t.encodeRuleSlot(id)
		if err != nil {
			return err
		}
		er.End = i == n-1
		er.store(img.Words[word], pos)
		pos++
		if pos == RulesPerWord {
			pos = 0
			word++
		}
	}
	return nil
}

// encodeRuleSlot encodes rule id for storage in a leaf slot. Rules
// disabled by DeleteDelta (empty range — they can survive only in
// orphaned leaves, whose storage stays allocated until Relayout) are
// stored as sentinel slots: never matched by the comparators, and
// deterministic so a word-patched image stays byte-identical to a full
// re-encode.
func (t *Tree) encodeRuleSlot(id int32) (EncodedRule, error) {
	r := &t.rules[id]
	if ruleDisabled(r) {
		return EncodedRule{ID: SentinelID}, nil
	}
	er, err := EncodeRule(r)
	if err != nil {
		return er, fmt.Errorf("core: rule %d: %w", id, err)
	}
	return er, nil
}

// ruleDisabled reports whether r was disabled by DeleteDelta: an empty
// range in any dimension matches nothing.
func ruleDisabled(r *rule.Rule) bool {
	for d := 0; d < rule.NumDims; d++ {
		if r.F[d].Lo > r.F[d].Hi {
			return true
		}
	}
	return false
}

func encodeSentinel(w []byte, pos int) error {
	er := EncodedRule{ID: SentinelID, End: true}
	er.store(w, pos)
	return nil
}

// EncodedRule is the hardware 160-bit representation of one rule, the unit
// the 30 parallel comparators operate on.
type EncodedRule struct {
	SrcPortLo, SrcPortHi uint16
	DstPortLo, DstPortHi uint16
	SrcAddr              uint32 // low bits may carry the encoded mask
	SrcCode              uint8  // 3-bit mask code
	DstAddr              uint32
	DstCode              uint8
	ProtoVal             uint8
	ProtoWild            bool
	ID                   uint16
	End                  bool // last rule of the leaf
}

// EncodeRule converts a rule to its 160-bit hardware form. IP fields must
// be prefixes and the protocol exact or wildcard.
func EncodeRule(r *rule.Rule) (EncodedRule, error) {
	var er EncodedRule
	if r.ID < 0 || r.ID >= SentinelID {
		return er, fmt.Errorf("rule ID %d does not fit the 16-bit field", r.ID)
	}
	er.ID = uint16(r.ID)
	er.SrcPortLo = uint16(r.F[rule.DimSrcPort].Lo)
	er.SrcPortHi = uint16(r.F[rule.DimSrcPort].Hi)
	er.DstPortLo = uint16(r.F[rule.DimDstPort].Lo)
	er.DstPortHi = uint16(r.F[rule.DimDstPort].Hi)
	var err error
	er.SrcAddr, er.SrcCode, err = encodeIP(r.F[rule.DimSrcIP])
	if err != nil {
		return er, fmt.Errorf("srcIP: %w", err)
	}
	er.DstAddr, er.DstCode, err = encodeIP(r.F[rule.DimDstIP])
	if err != nil {
		return er, fmt.Errorf("dstIP: %w", err)
	}
	pr := r.F[rule.DimProto]
	switch {
	case pr.IsFull(rule.DimProto):
		er.ProtoWild = true
	case pr.Lo == pr.Hi:
		er.ProtoVal = uint8(pr.Lo)
	default:
		return er, fmt.Errorf("protocol range [%d,%d] is neither exact nor wildcard", pr.Lo, pr.Hi)
	}
	return er, nil
}

// encodeIP packs a prefix into the 35-bit (addr, 3-bit code) form of §3:
// prefix lengths 28..32 are encoded directly in the code (code = len-25);
// lengths 0..27 set code 0 and hide the length in the address's 5 least
// significant bits, which are below the prefix and therefore unused.
func encodeIP(f rule.Range) (addr uint32, code uint8, err error) {
	m := f.PrefixLen(32)
	if m < 0 {
		return 0, 0, fmt.Errorf("range [%d,%d] is not a prefix", f.Lo, f.Hi)
	}
	if m >= 28 {
		return f.Lo, uint8(m - 25), nil
	}
	return f.Lo | uint32(m), 0, nil
}

// decodeIPLen recovers the prefix length from the 35-bit form.
func decodeIPLen(addr uint32, code uint8) int {
	if code >= 3 {
		return int(code) + 25
	}
	return int(addr & 31)
}

// MatchesPacket implements the hardware comparator: parallel range checks
// on the ports, prefix compare on the IPs, exact-or-wildcard on the
// protocol. Sentinel slots never match.
func (er *EncodedRule) MatchesPacket(p rule.Packet) bool {
	if er.ID == SentinelID {
		return false
	}
	if p.SrcPort < er.SrcPortLo || p.SrcPort > er.SrcPortHi {
		return false
	}
	if p.DstPort < er.DstPortLo || p.DstPort > er.DstPortHi {
		return false
	}
	if !prefixMatch(p.SrcIP, er.SrcAddr, er.SrcCode) {
		return false
	}
	if !prefixMatch(p.DstIP, er.DstAddr, er.DstCode) {
		return false
	}
	if !er.ProtoWild && p.Proto != er.ProtoVal {
		return false
	}
	return true
}

func prefixMatch(v, addr uint32, code uint8) bool {
	m := decodeIPLen(addr, code)
	if m == 0 {
		return true
	}
	sh := uint(32 - m)
	return v>>sh == addr>>sh
}

// store writes the rule into slot pos of memory word w. A 160-bit rule
// slot is byte-aligned (RuleBits/8 = 20 bytes at pos*20), so the whole
// slot is written as three little-endian stores — LSB-first bit packing
// over byte-aligned fields IS little-endian byte order. The field
// composition below mirrors the ruleOff* layout exactly; storeBitwise
// (storefast_test.go) keeps the offset-by-offset path as the
// differential oracle (TestStoreFastPathByteIdentity pins byte identity).
func (er *EncodedRule) store(w []byte, pos int) {
	s := w[pos*(RuleBits/8):]
	// Bits 0..63: the four port bounds.
	binary.LittleEndian.PutUint64(s[0:8],
		uint64(er.SrcPortLo)|uint64(er.SrcPortHi)<<16|
			uint64(er.DstPortLo)<<32|uint64(er.DstPortHi)<<48)
	// Bits 64..127: SrcAddr(32) | SrcCode(3) | DstAddr low 29 bits.
	// The DstAddr shift by 35 truncates at bit 63, keeping its bits
	// 0..28; the straddling high 3 bits land in the next store.
	binary.LittleEndian.PutUint64(s[8:16],
		uint64(er.SrcAddr)|uint64(er.SrcCode&7)<<32|uint64(er.DstAddr)<<35)
	// Bits 128..159: DstAddr high 3 | DstCode(3) | ProtoVal(8) |
	// ProtoWild | ID(16) | End.
	binary.LittleEndian.PutUint32(s[16:20],
		uint32(er.DstAddr>>29)|uint32(er.DstCode&7)<<3|
			uint32(er.ProtoVal)<<6|uint32(b2u(er.ProtoWild))<<14|
			uint32(er.ID)<<15|uint32(b2u(er.End))<<31)
}

// LoadRule reads the rule slot pos of memory word w.
func LoadRule(w []byte, pos int) EncodedRule {
	base := uint(pos * RuleBits)
	return EncodedRule{
		SrcPortLo: uint16(getBits(w, base+ruleOffSrcPortLo, 16)),
		SrcPortHi: uint16(getBits(w, base+ruleOffSrcPortHi, 16)),
		DstPortLo: uint16(getBits(w, base+ruleOffDstPortLo, 16)),
		DstPortHi: uint16(getBits(w, base+ruleOffDstPortHi, 16)),
		SrcAddr:   uint32(getBits(w, base+ruleOffSrcAddr, 32)),
		SrcCode:   uint8(getBits(w, base+ruleOffSrcCode, 3)),
		DstAddr:   uint32(getBits(w, base+ruleOffDstAddr, 32)),
		DstCode:   uint8(getBits(w, base+ruleOffDstCode, 3)),
		ProtoVal:  uint8(getBits(w, base+ruleOffProtoVal, 8)),
		ProtoWild: getBits(w, base+ruleOffProtoWild, 1) == 1,
		ID:        uint16(getBits(w, base+ruleOffID, 16)),
		End:       getBits(w, base+ruleOffEnd, 1) == 1,
	}
}

// NodeWord is the decoded view of an internal node's memory word as the
// accelerator's datapath sees it: five mask/shift pairs plus cut entries.
type NodeWord struct {
	Masks  [rule.NumDims]uint8
	Shifts [rule.NumDims]int8
}

// LoadNode decodes the mask/shift header of an internal node word.
func LoadNode(w []byte) NodeWord {
	var nw NodeWord
	for d := 0; d < rule.NumDims; d++ {
		nw.Masks[d] = uint8(getBits(w, uint(16*d), 8))
		nw.Shifts[d] = int8(getBits(w, uint(16*d+8), 8))
	}
	return nw
}

// Index computes the child index for packet p: the hardware ANDs the five
// masks with the top 8 bits of each field, shifts, and adds.
func (nw *NodeWord) Index(p rule.Packet) int {
	idx := 0
	for d := 0; d < rule.NumDims; d++ {
		v := uint32(p.Top8(d) & nw.Masks[d])
		s := nw.Shifts[d]
		if s >= 0 {
			idx += int(v >> uint(s))
		} else {
			idx += int(v << uint(-s))
		}
	}
	return idx
}

// CutEntry is one decoded 18-bit cut entry.
type CutEntry struct {
	IsLeaf bool
	Word   int
	Pos    int
}

// LoadEntry decodes cut entry i of an internal node word.
func LoadEntry(w []byte, i int) CutEntry {
	off := uint(nodeHeaderBits + i*cutEntryBits)
	return CutEntry{
		IsLeaf: getBits(w, off, 1) == 1,
		Word:   int(getBits(w, off+1, PointerBits)),
		Pos:    int(getBits(w, off+1+PointerBits, PosBits)),
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// getBits reads width bits at offset off from w (LSB-first packing).
func getBits(w []byte, off, width uint) uint64 {
	var v uint64
	for i := uint(0); i < width; i++ {
		idx := (off + i) / 8
		sh := (off + i) % 8
		v |= uint64((w[idx]>>sh)&1) << i
	}
	return v
}
