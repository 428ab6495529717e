// Package wire defines the line-rate binary packet trace format and its
// zero-copy framing: the ingest side of the system, feeding the flat
// classification engine at the rate it can classify.
//
// The text trace format (rule.WriteTrace) costs hundreds of nanoseconds
// and several transient allocations per packet to parse — fine for a
// demo, hopeless for 10G. The wire format instead frames fixed-width
// binary records so a reader can slice packets straight out of its fill
// buffer with no per-packet allocation and no intermediate copies:
//
//	stream  := header frame*
//	header  := magic[4]="PCBF" version:u8=1 recordBytes:u8=20 flags:u16le=0
//	frame   := marker[2]={0xD5,0xAA} count:u16le reserved:u32le=0
//	           record[count]
//	record  := srcIP:u32le dstIP:u32le srcPort:u16le dstPort:u16le
//	           proto:u8 pad[3]=0 flowID:u32le
//
// All integers are little-endian. Records are RecordBytes (20) wide;
// flowID is carried for symmetry with ClassBench traces and ignored by
// classification. A frame holds at most MaxFrameRecords records; a
// stream ends cleanly at a frame boundary. The version byte gates
// incompatible evolution; readers reject versions they do not know.
//
// Reader is the ring-buffered zero-copy decoder: ReadBatch decodes
// records directly into a caller-owned []rule.Packet, refilling a fixed
// internal buffer with compaction (a software ring) so steady-state
// ingest performs zero allocations per packet. Writer is the encoding
// side. The pcap adapter in pcap.go presents captured traffic through
// the same ReadBatch interface. See DESIGN.md §9.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/rule"
)

// Format constants.
const (
	// Version is the stream-format version this package reads and writes.
	Version = 1
	// RecordBytes is the fixed width of one packet record.
	RecordBytes = 20
	// HeaderBytes is the stream header size.
	HeaderBytes = 8
	// FrameHeaderBytes is the per-frame header size.
	FrameHeaderBytes = 8
	// MaxFrameRecords caps the records of one frame (count is a u16).
	MaxFrameRecords = 1<<16 - 1
	// DefaultFrameRecords is the frame size WriteTrace and WriteBatch
	// split at: one frame per classification batch keeps framing
	// overhead at 8 bytes per ~80 KiB.
	DefaultFrameRecords = 4096
)

// Magic is the 4-byte stream signature ("PCBF": packet-classification
// binary frames).
var Magic = [4]byte{'P', 'C', 'B', 'F'}

// Frame marker bytes: chosen to be invalid UTF-8/ASCII so a binary
// stream fed to the text parser fails fast and vice versa.
const (
	frameMarker0 = 0xD5
	frameMarker1 = 0xAA
)

// IsMagic reports whether b begins with the wire stream signature.
// Callers sniffing a stream peek at least 4 bytes.
func IsMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == Magic[0] && b[1] == Magic[1] && b[2] == Magic[2] && b[3] == Magic[3]
}

// EncodeRecord stores p (and flowID) into b, which must be at least
// RecordBytes long.
func EncodeRecord(b []byte, p rule.Packet, flowID uint32) {
	_ = b[RecordBytes-1]
	binary.LittleEndian.PutUint32(b[0:4], p.SrcIP)
	binary.LittleEndian.PutUint32(b[4:8], p.DstIP)
	binary.LittleEndian.PutUint16(b[8:10], p.SrcPort)
	binary.LittleEndian.PutUint16(b[10:12], p.DstPort)
	b[12] = p.Proto
	b[13], b[14], b[15] = 0, 0, 0
	binary.LittleEndian.PutUint32(b[16:20], flowID)
}

// BatchReader is the pull interface the ingest pipeline consumes:
// ReadBatch fills pkts with up to len(pkts) packets and returns how many
// it decoded. It returns (n, nil) with n > 0 mid-stream, (n, io.EOF)
// with n >= 0 at a clean end of stream, and (n, err) on framing errors
// (packets decoded before the error are still returned). Implementations
// must not retain pkts and must not allocate per packet in steady state.
type BatchReader interface {
	ReadBatch(pkts []rule.Packet) (int, error)
}

// Reader decodes the wire format from an io.Reader through a fixed
// ring buffer: bytes are read in bulk into buf, records are sliced out
// in place, and the unconsumed tail is compacted to the front before
// each refill. Steady-state operation allocates nothing.
type Reader struct {
	r       io.Reader
	buf     []byte
	lo, hi  int  // unconsumed window within buf
	rem     int  // records remaining in the current frame
	started bool // stream header consumed
	err     error
}

// DefaultReaderBuffer is the ring-buffer size NewReader allocates: four
// whole DefaultFrameRecords frames with headers. Holding several frames
// keeps refills large — big enough that a buffered upstream (the
// pipeline hands the Reader a bufio.Reader after format sniffing) passes
// reads straight through to the source instead of double-copying.
const DefaultReaderBuffer = 4 * (DefaultFrameRecords*RecordBytes + FrameHeaderBytes)

// NewReader returns a Reader decoding the wire stream from r. The
// stream header is validated lazily on the first ReadBatch, so
// construction never blocks.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, DefaultReaderBuffer)}
}

// Reset rewires the Reader to decode a new stream from r, reusing its
// buffer. It allows allocation-free reuse across streams (and powers the
// allocation-regression gate).
func (rd *Reader) Reset(r io.Reader) {
	rd.r = r
	rd.lo, rd.hi, rd.rem = 0, 0, 0
	rd.started = false
	rd.err = nil
}

// avail returns the unconsumed byte count.
func (rd *Reader) avail() int { return rd.hi - rd.lo }

// malformed builds the error that ends a stream whose framing is broken:
// "wire: " and format over its integer operands; truncated wraps
// io.ErrUnexpectedEOF, which callers test for.
//
//repro:coldpath an error that ends the stream: at most once per Reader, never per record
func malformed(truncated bool, format string, operands ...int64) error {
	args := make([]any, len(operands))
	for i, v := range operands {
		args[i] = v
	}
	msg := "wire: " + fmt.Sprintf(format, args...)
	if truncated {
		return fmt.Errorf("%s: %w", msg, io.ErrUnexpectedEOF)
	}
	return errors.New(msg)
}

// fill ensures at least need unconsumed bytes are buffered, compacting
// and reading as required. It returns io.ErrUnexpectedEOF if the stream
// ends first (the caller is mid-header or mid-frame).
func (rd *Reader) fill(need int) error {
	if rd.avail() >= need {
		return nil
	}
	if rd.err != nil {
		if rd.err == io.EOF && rd.avail() > 0 {
			return io.ErrUnexpectedEOF
		}
		return rd.err
	}
	if need > len(rd.buf) {
		return malformed(false, "need %d buffered bytes, buffer holds %d", int64(need), int64(len(rd.buf)))
	}
	if rd.lo > 0 && len(rd.buf)-rd.lo < need {
		copy(rd.buf, rd.buf[rd.lo:rd.hi])
		rd.hi -= rd.lo
		rd.lo = 0
	}
	for rd.avail() < need {
		//repro:allow hotpath -- the ingest source is an io.Reader by contract; one dynamic call refills a whole buffer
		n, err := rd.r.Read(rd.buf[rd.hi:])
		rd.hi += n
		if err != nil {
			rd.err = err
			if rd.avail() >= need {
				return nil
			}
			if err == io.EOF {
				if rd.avail() == 0 {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
		if n == 0 {
			rd.err = io.ErrNoProgress
			return rd.err
		}
	}
	return nil
}

// header consumes and validates the stream header.
//
//repro:coldpath runs once per stream, before the first record is decoded
func (rd *Reader) header() error {
	if err := rd.fill(HeaderBytes); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("wire: truncated stream header: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	h := rd.buf[rd.lo : rd.lo+HeaderBytes]
	if !IsMagic(h) {
		return fmt.Errorf("wire: bad magic %q (not a binary trace)", h[:4])
	}
	if h[4] != Version {
		return fmt.Errorf("wire: unsupported version %d (reader speaks %d)", h[4], Version)
	}
	if h[5] != RecordBytes {
		return fmt.Errorf("wire: record size %d, want %d", h[5], RecordBytes)
	}
	if flags := binary.LittleEndian.Uint16(h[6:8]); flags != 0 {
		return fmt.Errorf("wire: unknown header flags %#x", flags)
	}
	rd.lo += HeaderBytes
	rd.started = true
	return nil
}

// frameHeader consumes the next frame header, setting rem. A clean EOF
// exactly at the frame boundary returns io.EOF.
func (rd *Reader) frameHeader() error {
	if err := rd.fill(FrameHeaderBytes); err != nil {
		if err == io.ErrUnexpectedEOF {
			return malformed(true, "truncated frame header")
		}
		return err
	}
	h := rd.buf[rd.lo : rd.lo+FrameHeaderBytes]
	if h[0] != frameMarker0 || h[1] != frameMarker1 {
		return malformed(false, "bad frame marker %#02x%02x at stream offset", int64(h[0]), int64(h[1]))
	}
	count := int(binary.LittleEndian.Uint16(h[2:4]))
	if count == 0 {
		return malformed(false, "empty frame")
	}
	if reserved := binary.LittleEndian.Uint32(h[4:8]); reserved != 0 {
		return malformed(false, "nonzero reserved frame field %#x", int64(reserved))
	}
	rd.lo += FrameHeaderBytes
	rd.rem = count
	return nil
}

// ReadBatch decodes up to len(pkts) records into pkts, crossing frame
// boundaries as needed. See BatchReader for the return contract.
//
//repro:hotpath
func (rd *Reader) ReadBatch(pkts []rule.Packet) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	if !rd.started {
		if err := rd.header(); err != nil {
			return 0, err // never io.EOF: an empty stream has no header and is malformed
		}
	}
	n := 0
	for n < len(pkts) {
		if rd.rem == 0 {
			err := rd.frameHeader()
			if err == io.EOF {
				if n > 0 {
					return n, io.EOF
				}
				return 0, io.EOF
			}
			if err != nil {
				return n, err
			}
		}
		// Decode the contiguous run of buffered whole records.
		want := min(rd.rem, len(pkts)-n)
		have := rd.avail() / RecordBytes
		if have == 0 {
			if err := rd.fill(RecordBytes); err != nil {
				if err == io.ErrUnexpectedEOF || err == io.EOF {
					return n, malformed(true, "truncated record (frame has %d more)", int64(rd.rem))
				}
				return n, err
			}
			have = rd.avail() / RecordBytes
		}
		run := min(want, have)
		// Slicing the exact run up front lets the compiler hoist the
		// bounds checks out of the per-record loop (this loop is the
		// single hottest spot of binary ingest).
		b := rd.buf[rd.lo : rd.lo+run*RecordBytes]
		dst := pkts[n : n+run]
		for i := range dst {
			// Two aligned 64-bit loads cover the 5-tuple (bytes 0..12);
			// pad and flowID are ignored. This form compiles to straight
			// load/shift/store with one bounds check per record.
			lo := binary.LittleEndian.Uint64(b[i*RecordBytes:])
			hi := binary.LittleEndian.Uint64(b[i*RecordBytes+8:])
			dst[i] = rule.Packet{
				SrcIP:   uint32(lo),
				DstIP:   uint32(lo >> 32),
				SrcPort: uint16(hi),
				DstPort: uint16(hi >> 16),
				Proto:   uint8(hi >> 32),
			}
		}
		n += run
		rd.lo += run * RecordBytes
		rd.rem -= run
	}
	return n, nil
}

// Writer encodes packets into the wire format. The stream header is
// written before the first frame; WriteBatch emits one frame per call
// (splitting batches larger than MaxFrameRecords). The frame assembly
// buffer is reused, so steady-state writing allocates nothing.
type Writer struct {
	w           io.Writer
	buf         []byte
	wroteHeader bool
}

// NewWriter returns a Writer emitting the wire stream to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteBatch appends pkts as one frame (or several, for batches larger
// than MaxFrameRecords). Empty batches write nothing but still force the
// stream header out, so an empty stream is recognizably binary.
func (wr *Writer) WriteBatch(pkts []rule.Packet) error {
	if !wr.wroteHeader {
		var h [HeaderBytes]byte
		copy(h[:4], Magic[:])
		h[4] = Version
		h[5] = RecordBytes
		// h[6:8] flags = 0
		if _, err := wr.w.Write(h[:]); err != nil {
			return err
		}
		wr.wroteHeader = true
	}
	for len(pkts) > 0 {
		n := min(len(pkts), MaxFrameRecords)
		need := FrameHeaderBytes + n*RecordBytes
		if cap(wr.buf) < need {
			wr.buf = make([]byte, need)
		}
		b := wr.buf[:need]
		b[0], b[1] = frameMarker0, frameMarker1
		binary.LittleEndian.PutUint16(b[2:4], uint16(n))
		binary.LittleEndian.PutUint32(b[4:8], 0)
		for i, p := range pkts[:n] {
			EncodeRecord(b[FrameHeaderBytes+i*RecordBytes:], p, 0)
		}
		if _, err := wr.w.Write(b); err != nil {
			return err
		}
		pkts = pkts[n:]
	}
	return nil
}

// WriteTrace serializes a whole trace in DefaultFrameRecords-record
// frames — the binary sibling of rule.WriteTrace.
func WriteTrace(w io.Writer, trace []rule.Packet) error {
	wr := NewWriter(w)
	if len(trace) == 0 {
		return wr.WriteBatch(nil)
	}
	for len(trace) > 0 {
		n := min(len(trace), DefaultFrameRecords)
		if err := wr.WriteBatch(trace[:n]); err != nil {
			return err
		}
		trace = trace[n:]
	}
	return nil
}

// ReadAll drains a BatchReader into a slice — the binary sibling of
// rule.ReadTrace, for whole-trace tools (cmd/pcsim) rather than the
// streaming pipeline.
func ReadAll(r BatchReader) ([]rule.Packet, error) {
	var trace []rule.Packet
	batch := make([]rule.Packet, DefaultFrameRecords)
	for {
		n, err := r.ReadBatch(batch)
		trace = append(trace, batch[:n]...)
		if err == io.EOF {
			return trace, nil
		}
		if err != nil {
			return trace, err
		}
	}
}
