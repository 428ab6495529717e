package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// storeBitwise is the original field-by-field bit-packing path, kept as
// the differential oracle for the byte-aligned store
// (EncodedRule.store, encode.go).
func (er *EncodedRule) storeBitwise(w []byte, pos int) {
	base := uint(pos * RuleBits)
	setBits(w, base+ruleOffSrcPortLo, 16, uint64(er.SrcPortLo))
	setBits(w, base+ruleOffSrcPortHi, 16, uint64(er.SrcPortHi))
	setBits(w, base+ruleOffDstPortLo, 16, uint64(er.DstPortLo))
	setBits(w, base+ruleOffDstPortHi, 16, uint64(er.DstPortHi))
	setBits(w, base+ruleOffSrcAddr, 32, uint64(er.SrcAddr))
	setBits(w, base+ruleOffSrcCode, 3, uint64(er.SrcCode))
	setBits(w, base+ruleOffDstAddr, 32, uint64(er.DstAddr))
	setBits(w, base+ruleOffDstCode, 3, uint64(er.DstCode))
	setBits(w, base+ruleOffProtoVal, 8, uint64(er.ProtoVal))
	setBits(w, base+ruleOffProtoWild, 1, b2u(er.ProtoWild))
	setBits(w, base+ruleOffID, 16, uint64(er.ID))
	setBits(w, base+ruleOffEnd, 1, b2u(er.End))
}

func randEncodedRule(rng *rand.Rand) EncodedRule {
	return EncodedRule{
		SrcPortLo: uint16(rng.Uint32()),
		SrcPortHi: uint16(rng.Uint32()),
		DstPortLo: uint16(rng.Uint32()),
		DstPortHi: uint16(rng.Uint32()),
		SrcAddr:   rng.Uint32(),
		SrcCode:   uint8(rng.Intn(8)),
		DstAddr:   rng.Uint32(),
		DstCode:   uint8(rng.Intn(8)),
		ProtoVal:  uint8(rng.Uint32()),
		ProtoWild: rng.Intn(2) == 1,
		ID:        uint16(rng.Uint32()),
		End:       rng.Intn(2) == 1,
	}
}

// TestStoreFastPathByteIdentity pins that the byte-aligned store (three
// little-endian word stores) and the bit-by-bit oracle produce identical
// bytes for every slot position, over random rules, edge patterns, and
// previously dirty memory (store must fully overwrite its slot).
func TestStoreFastPathByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	edge := []EncodedRule{
		{},
		{SrcPortLo: 0xFFFF, SrcPortHi: 0xFFFF, DstPortLo: 0xFFFF, DstPortHi: 0xFFFF,
			SrcAddr: 0xFFFFFFFF, SrcCode: 7, DstAddr: 0xFFFFFFFF, DstCode: 7,
			ProtoVal: 0xFF, ProtoWild: true, ID: 0xFFFF, End: true},
		{ID: SentinelID, End: true},                  // sentinel slot
		{DstAddr: 1 << 29},                           // straddles the bit-128 boundary
		{DstAddr: 0x1FFFFFFF},                        // fills bits 99..127 exactly
		{SrcCode: 0xFF, DstCode: 0xFF, ID: 0x8001},   // codes above 3 bits must truncate alike
		{ProtoWild: true}, {End: true}, {SrcCode: 4}, // single-bit probes
	}
	fast := make([]byte, WordBytes)
	slow := make([]byte, WordBytes)
	check := func(er EncodedRule, pos int, fill byte) {
		for i := range fast {
			fast[i], slow[i] = fill, fill
		}
		er.store(fast, pos)
		er.storeBitwise(slow, pos)
		if !bytes.Equal(fast, slow) {
			t.Fatalf("store mismatch at pos %d fill %#x for %+v\nfast %x\nslow %x",
				pos, fill, er, fast, slow)
		}
		if got := LoadRule(fast, pos); got.SrcCode == er.SrcCode&7 && got.DstCode == er.DstCode&7 {
			want := er
			want.SrcCode &= 7
			want.DstCode &= 7
			if got != want {
				t.Fatalf("LoadRule(store) = %+v, want %+v", got, want)
			}
		}
	}
	for pos := 0; pos < RulesPerWord; pos++ {
		for _, er := range edge {
			check(er, pos, 0x00)
			check(er, pos, 0xFF)
		}
		for i := 0; i < 200; i++ {
			check(randEncodedRule(rng), pos, byte(rng.Intn(256)))
		}
	}
}

func BenchmarkStoreRuleSlot(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rules := make([]EncodedRule, 64)
	for i := range rules {
		rules[i] = randEncodedRule(rng)
	}
	w := make([]byte, WordBytes)
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rules[i&63].store(w, i%RulesPerWord)
		}
	})
	b.Run("bitwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rules[i&63].storeBitwise(w, i%RulesPerWord)
		}
	})
}
