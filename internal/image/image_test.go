package image

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func sample() []Section {
	return []Section{
		{ID: 1, Data: []byte("meta")},                    // 4 bytes: exercises padding
		{ID: 2, Data: bytes.Repeat([]byte{0xAB}, 4096)},  // aligned length
		{ID: 7, Data: []byte{}},                          // empty section is legal
		{ID: 3, Data: bytes.Repeat([]byte{0x01, 0}, 21)}, // 42 bytes: padding again
	}
}

func encode(t *testing.T, secs []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Write(&buf, secs)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if n != int64(buf.Len()) || n != Size(secs) {
		t.Fatalf("Write reported %d bytes, buffer has %d, Size says %d", n, buf.Len(), Size(secs))
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	img := encode(t, want)
	if img[0] != 'P' || img[1] != 'C' || img[2] != 'E' || img[3] != 'I' {
		t.Fatalf("image does not start with magic: % x", img[:4])
	}
	got, err := ReadBytes(img)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Errorf("section %d: ID %d, want %d (order must be preserved)", i, got[i].ID, want[i].ID)
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("section %d: data mismatch", i)
		}
	}
}

func TestReadBytes(t *testing.T) {
	want := sample()
	img := encode(t, want)
	got, err := ReadBytes(img)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("section %d mismatch", i)
		}
		if len(got[i].Data) > 0 {
			// The zero-copy contract: sections alias the input buffer.
			if &got[i].Data[0] != &img[bytes.Index(img, got[i].Data)] {
				t.Fatalf("section %d does not alias the input", i)
			}
		}
	}
	wantTrailing := append(bytes.Clone(img), 0)
	if _, err := ReadBytes(wantTrailing); err == nil {
		t.Fatal("ReadBytes accepted trailing bytes")
	}
	for n := 0; n < len(img); n += 11 {
		if _, err := ReadBytes(img[:n]); err == nil {
			t.Fatalf("ReadBytes accepted truncation at %d", n)
		}
	}
	bad := bytes.Clone(img)
	bad[len(bad)-9] ^= 0x40
	var fe *FormatError
	if _, err := ReadBytes(bad); !errors.As(err, &fe) {
		t.Fatalf("ReadBytes corruption error %T, want *FormatError", err)
	}
}

func TestWriteDeterministic(t *testing.T) {
	a := encode(t, sample())
	b := encode(t, sample())
	if !bytes.Equal(a, b) {
		t.Fatal("Write is not byte-deterministic for identical input")
	}
}

func TestSectionAlignment(t *testing.T) {
	img := encode(t, sample())
	got, err := ReadBytes(img)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	for i, s := range got {
		if len(s.Data) == 0 {
			continue
		}
		if off := bytes.Index(img, s.Data); off < 0 || off%8 != 0 {
			t.Errorf("section %d (id %d) starts at image offset %d, not 8-aligned", i, s.ID, off)
		}
	}
}

func TestWriteRejectsBadSectionLists(t *testing.T) {
	if _, err := Write(&bytes.Buffer{}, []Section{{ID: 0}}); err == nil {
		t.Error("Write accepted reserved section ID 0")
	}
	if _, err := Write(&bytes.Buffer{}, []Section{{ID: 3}, {ID: 3}}); err == nil {
		t.Error("Write accepted duplicate section IDs")
	}
}

// wantFormatError asserts ReadBytes fails closed with a *FormatError.
func wantFormatError(t *testing.T, img []byte, what string) {
	t.Helper()
	secs, err := ReadBytes(img)
	if err == nil {
		t.Fatalf("%s: ReadBytes succeeded, want *FormatError", what)
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("%s: error %T (%v) is not a *FormatError", what, err, err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "image: ") || !strings.Contains(msg, fe.Msg) {
		t.Fatalf("%s: error text %q does not carry the image prefix and message", what, msg)
	}
	if secs != nil {
		t.Fatalf("%s: ReadBytes returned sections alongside error", what)
	}
}

func TestReadFailsClosed(t *testing.T) {
	img := encode(t, sample())

	t.Run("empty", func(t *testing.T) { wantFormatError(t, nil, "empty input") })
	t.Run("magic", func(t *testing.T) {
		bad := bytes.Clone(img)
		bad[0] ^= 0xFF
		wantFormatError(t, bad, "corrupt magic")
	})
	t.Run("version", func(t *testing.T) {
		bad := bytes.Clone(img)
		bad[4] = Version + 1
		wantFormatError(t, bad, "future version")
	})
	t.Run("reserved", func(t *testing.T) {
		bad := bytes.Clone(img)
		bad[21] = 0x80
		wantFormatError(t, bad, "nonzero reserved field")
	})
	t.Run("truncation", func(t *testing.T) {
		// Every proper prefix must fail: there is no length at which a
		// truncated image still parses.
		for n := 0; n < len(img); n++ {
			secs, err := ReadBytes(img[:n])
			var fe *FormatError
			if err == nil || !errors.As(err, &fe) || secs != nil {
				t.Fatalf("truncation at %d/%d bytes: err=%v", n, len(img), err)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		// A single flipped bit anywhere in the image must be caught by
		// the header validation, the table CRC, a section CRC, or the
		// padding check.
		for off := 0; off < len(img); off++ {
			bad := bytes.Clone(img)
			bad[off] ^= 1 << (off % 8)
			secs, err := ReadBytes(bad)
			if err == nil {
				// The only acceptable escape is a flip that leaves the
				// image semantically identical — impossible here since
				// every byte is covered by a checksum or validated.
				t.Fatalf("bit flip at offset %d went undetected", off)
			}
			var fe *FormatError
			if !errors.As(err, &fe) || secs != nil {
				t.Fatalf("bit flip at offset %d: non-FormatError %T: %v", off, err, err)
			}
		}
	})
	t.Run("huge-total-length", func(t *testing.T) {
		// A lying total-length field must fail closed against the
		// buffer's real length.
		bad := bytes.Clone(img)
		bad[14] = 0x7F // total length |= 0x7F000000000000
		wantFormatError(t, bad, "hostile total length")
	})
}
