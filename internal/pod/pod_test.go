package pod

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// words has the 32-bit-word shape: 32-bit fields and arrays of them.
type words struct {
	A, B uint32
	C    [2]int32
}

// octets has the byte shape: alignment 1, no byte order.
type octets struct{ X, Y, Z uint8 }

// TestWordsRoundTrip pins the serialized layout of the word shape (each
// word little-endian, in field order) and both decode paths: an aligned
// buffer decodes to equal elements, a misaligned one to an equal copy
// that does not alias it.
func TestWordsRoundTrip(t *testing.T) {
	ws := []words{{1, 2, [2]int32{-3, 4}}, {0xDEADBEEF, 5, [2]int32{6, -1}}}
	var want []byte
	for _, w := range ws {
		for _, v := range []uint32{w.A, w.B, uint32(w.C[0]), uint32(w.C[1])} {
			want = binary.LittleEndian.AppendUint32(want, v)
		}
	}
	b := Bytes(ws)
	if !bytes.Equal(b, want) {
		t.Fatalf("Bytes = % x, want % x", b, want)
	}
	if got := Slice[words](b); !slices.Equal(got, ws) {
		t.Fatalf("Slice(Bytes) = %v, want %v", got, ws)
	}
	buf := make([]byte, len(want)+1)
	copy(buf[1:], want)
	got := Slice[words](buf[1:])
	if !slices.Equal(got, ws) {
		t.Fatalf("misaligned Slice = %v, want %v", got, ws)
	}
	buf[1] ^= 0xFF
	if got[0] != ws[0] {
		t.Fatal("a misaligned decode aliases its input")
	}
}

// TestOctetsAliasAnyOffset: the byte shape aliases in both directions at
// any offset.
func TestOctetsAliasAnyOffset(t *testing.T) {
	oc := []octets{{1, 2, 3}, {4, 5, 6}}
	b := Bytes(oc)
	if !bytes.Equal(b, []byte{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("Bytes = %v", b)
	}
	got := Slice[octets](b[1:4])
	if len(got) != 1 || got[0] != (octets{2, 3, 4}) {
		t.Fatalf("Slice at offset 1 = %v", got)
	}
	b[1] = 9
	if got[0].X != 9 || oc[0].Y != 9 {
		t.Fatal("a byte-shaped view copied instead of aliasing")
	}
}

func TestEmpty(t *testing.T) {
	if Bytes([]words(nil)) != nil || Slice[words](nil) != nil || Slice[words](make([]byte, Size[words]()-1)) != nil {
		t.Fatal("an empty input gave a non-nil slice")
	}
}
