// Package image defines the versioned, checksummed container format for
// engine snapshot images: a fixed header, a CRC-protected section table,
// and 8-byte-aligned data sections.
//
// The container is deliberately dumb: it knows section IDs and bytes,
// not engine semantics. The engine layer (engine.Snapshot/Restore)
// decides what goes in each section and how to validate the decoded
// arenas; this layer guarantees only structural integrity — magic,
// format version, total length, per-section CRC32C, strict section
// packing — so that any truncation or bit corruption fails closed with
// a *FormatError before a single section byte is interpreted.
//
// Layout (all integers little-endian):
//
//	off  0  magic "PCEI" (4 bytes)
//	off  4  format version (uint16)
//	off  6  section count  (uint16)
//	off  8  total image length in bytes (uint64)
//	off 16  CRC32C of the raw section table (uint32)
//	off 20  reserved, must be zero (uint32)
//	off 24  section table: count entries of
//	          {id uint32, crc32c uint32, off uint64, len uint64}
//	...     sections, each starting at align8(previous end), zero pad
//	        between and after; total length is align8(last end)
//
// Sections are packed strictly in table order with only alignment
// padding between them, and the pad bytes must be zero: a reader can
// therefore mmap the image and alias arenas in place (every section
// offset is 8-aligned), and a writer's output is byte-deterministic for
// a given section list.
package image

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// Magic is the 4-byte image signature ("packet classifier engine
	// image").
	Magic = "PCEI"
	// Version is the container format version this package reads and
	// writes. Readers reject any other version: sections are aliased
	// into live engine arenas, so there is no forward-compatible "skip
	// what you don't know" mode.
	Version = 2

	headerLen = 24
	entryLen  = 24
	alignment = 8

	// maxSectionLen bounds a single section so off+len arithmetic can
	// never overflow int64 even with a hostile table.
	maxSectionLen = 1 << 40
)

// crcTable is the Castagnoli polynomial table; CRC32C has hardware
// support (SSE4.2 / ARMv8 CRC) via the stdlib, which matters because
// restore latency is the whole point of the image path.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b — exposed so tests and tools can
// recompute section checksums without duplicating the polynomial choice.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Section is one typed byte range of an image. IDs are assigned by the
// layer above (see engine's image.go); the container requires them to be
// unique within an image but assigns no meaning.
type Section struct {
	ID   uint32
	Data []byte
}

// FormatError is the typed error for every malformed-image condition:
// bad magic, version mismatch, truncation, checksum mismatch, table
// inconsistencies. Restore paths fail closed with one of these — they
// never panic and never return a partially-decoded result.
type FormatError struct {
	// Offset is the image byte offset at which the problem was
	// detected (best effort; -1 when not meaningful).
	Offset int64
	// Section is the ID of the offending section, 0 when the error is
	// not section-specific.
	Section uint32
	// Msg describes the failure.
	Msg string
}

func (e *FormatError) Error() string {
	switch {
	case e.Section != 0:
		return fmt.Sprintf("image: section %d: %s", e.Section, e.Msg)
	case e.Offset >= 0:
		return fmt.Sprintf("image: offset %d: %s", e.Offset, e.Msg)
	default:
		return "image: " + e.Msg
	}
}

func errf(off int64, sec uint32, format string, args ...any) error {
	return &FormatError{Offset: off, Section: sec, Msg: fmt.Sprintf(format, args...)}
}

// align8 rounds n up to the next multiple of the section alignment.
func align8(n int64) int64 { return (n + alignment - 1) &^ (alignment - 1) }

// Size returns the exact encoded size of an image holding the given
// sections, without encoding it.
func Size(sections []Section) int64 {
	off := align8(headerLen + int64(len(sections))*entryLen)
	for _, s := range sections {
		off = align8(off + int64(len(s.Data)))
	}
	return off
}

// Write encodes sections into the container format and writes the image
// to w. It returns the number of bytes written (Size(sections) on
// success). Section order is preserved; IDs must be unique and nonzero.
func Write(w io.Writer, sections []Section) (int64, error) {
	if len(sections) > 0xFFFF {
		return 0, fmt.Errorf("image: %d sections exceed the 16-bit count field", len(sections))
	}
	seen := make(map[uint32]bool, len(sections))
	for _, s := range sections {
		if s.ID == 0 {
			return 0, fmt.Errorf("image: section ID 0 is reserved")
		}
		if seen[s.ID] {
			return 0, fmt.Errorf("image: duplicate section ID %d", s.ID)
		}
		seen[s.ID] = true
		if int64(len(s.Data)) >= maxSectionLen {
			return 0, fmt.Errorf("image: section %d exceeds the %d-byte section bound", s.ID, int64(maxSectionLen))
		}
	}

	total := Size(sections)
	buf := make([]byte, total)
	copy(buf[0:4], Magic)
	binary.LittleEndian.PutUint16(buf[4:6], Version)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(sections)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(total))

	tbl := buf[headerLen : headerLen+len(sections)*entryLen]
	off := align8(headerLen + int64(len(sections))*entryLen)
	for i, s := range sections {
		e := tbl[i*entryLen:]
		binary.LittleEndian.PutUint32(e[0:4], s.ID)
		binary.LittleEndian.PutUint32(e[4:8], Checksum(s.Data))
		binary.LittleEndian.PutUint64(e[8:16], uint64(off))
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(s.Data)))
		copy(buf[off:], s.Data)
		off = align8(off + int64(len(s.Data)))
	}
	binary.LittleEndian.PutUint32(buf[16:20], Checksum(tbl))

	n, err := w.Write(buf)
	return int64(n), err
}

// ReadBytes decodes an image resident in memory — a mapped file, an
// os.ReadFile result, or an in-process snapshot — validating the
// header, the section table checksum, strict section packing (including
// zero padding), and every section's CRC32C, with zero copies and zero
// allocation proportional to the image. On success the returned
// sections appear in table order and their Data slices alias b
// directly, 8-aligned at each section start — callers may therefore
// alias typed arenas over them without copying. b must be exactly one
// image (trailing bytes are an error) and must not be mutated while any
// returned section is in use. Any structural defect — truncation at any
// byte, a flipped bit anywhere, a version or magic mismatch — returns a
// *FormatError; ReadBytes never panics on malformed input.
func ReadBytes(b []byte) ([]Section, error) {
	if len(b) < headerLen {
		return nil, errf(0, 0, "truncated header: %d bytes", len(b))
	}
	total, err := parseHeader(b[:headerLen])
	if err != nil {
		return nil, err
	}
	if uint64(len(b)) != total {
		return nil, errf(8, 0, "image is %d bytes, header says %d", len(b), total)
	}
	return parse(b[:headerLen], b[headerLen:])
}

// parseHeader validates the fixed header and returns the total image
// length it declares.
func parseHeader(hdr []byte) (uint64, error) {
	if string(hdr[0:4]) != Magic {
		return 0, errf(0, 0, "bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return 0, errf(4, 0, "unsupported format version %d (want %d)", v, Version)
	}
	if reserved := binary.LittleEndian.Uint32(hdr[20:24]); reserved != 0 {
		return 0, errf(20, 0, "reserved header field is %#x, want 0", reserved)
	}
	count := int(binary.LittleEndian.Uint16(hdr[6:8]))
	total := binary.LittleEndian.Uint64(hdr[8:16])
	tableLen := int64(count) * entryLen
	if total >= maxSectionLen*2 {
		return 0, errf(8, 0, "total length %d exceeds the image size bound", total)
	}
	if total < uint64(align8(headerLen+tableLen)) || total%alignment != 0 {
		return 0, errf(8, 0, "total length %d inconsistent with %d-section table", total, count)
	}
	return total, nil
}

// parse validates the section table and sections of an image split
// into its header and body (everything past the header). Returned
// sections alias body.
func parse(hdr, body []byte) ([]Section, error) {
	count := int(binary.LittleEndian.Uint16(hdr[6:8]))
	total := binary.LittleEndian.Uint64(hdr[8:16])
	tableCRC := binary.LittleEndian.Uint32(hdr[16:20])
	tableLen := int64(count) * entryLen
	tbl := body[:tableLen]
	if got := Checksum(tbl); got != tableCRC {
		return nil, errf(16, 0, "section table checksum mismatch: got %#08x, want %#08x", got, tableCRC)
	}

	sections := make([]Section, count)
	seen := make(map[uint32]bool, count)
	cursor := align8(headerLen + tableLen)
	for i := range sections {
		e := tbl[i*entryLen:]
		id := binary.LittleEndian.Uint32(e[0:4])
		crc := binary.LittleEndian.Uint32(e[4:8])
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		entryOff := headerLen + int64(i)*entryLen
		if id == 0 {
			return nil, errf(entryOff, 0, "section ID 0 is reserved")
		}
		if seen[id] {
			return nil, errf(entryOff, id, "duplicate section ID")
		}
		seen[id] = true
		if length >= maxSectionLen {
			return nil, errf(entryOff, id, "section length %d exceeds the %d-byte bound", length, int64(maxSectionLen))
		}
		// Strict packing: each section starts exactly at the aligned end
		// of its predecessor. This is what makes the layout canonical
		// (writer output is byte-deterministic) and is also a cheap,
		// total bounds check: no overlap, no out-of-range, no hidden
		// unaccounted bytes.
		if off != uint64(cursor) {
			return nil, errf(entryOff, id, "section offset %d, want %d (strict packing)", off, cursor)
		}
		start := cursor - headerLen
		if start+int64(length) > int64(len(body)) {
			return nil, errf(entryOff, id, "section [%d,+%d) exceeds total length %d", off, length, total)
		}
		data := body[start : start+int64(length) : start+int64(length)]
		if got := Checksum(data); got != crc {
			return nil, errf(int64(off), id, "section checksum mismatch: got %#08x, want %#08x", got, crc)
		}
		sections[i] = Section{ID: id, Data: data}
		cursor = align8(cursor + int64(length))
	}
	if uint64(cursor) != total {
		return nil, errf(8, 0, "sections end at %d but total length is %d", cursor, total)
	}
	// Alignment pad bytes between and after sections must be zero: a
	// flipped bit in padding is corruption like any other.
	pos := align8(headerLen + tableLen)
	for i := range sections {
		end := pos - headerLen + int64(len(sections[i].Data))
		pos = align8(pos + int64(len(sections[i].Data)))
		for _, b := range body[end : pos-headerLen] {
			if b != 0 {
				return nil, errf(headerLen+end, sections[i].ID, "nonzero padding after section")
			}
		}
	}
	return sections, nil
}
