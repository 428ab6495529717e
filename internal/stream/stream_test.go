package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rule"
	"repro/internal/wire"
)

func testHandle(t testing.TB, rules int) (*engine.Handle, rule.RuleSet) {
	t.Helper()
	rs := classbench.Generate(classbench.ACL1(), rules, 41)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewHandle(engine.Compile(tree)), rs
}

func encodeText(t testing.TB, trace []rule.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rule.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeBinary(t testing.TB, trace []rule.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodePcap(t testing.TB, trace []rule.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WritePcap(&buf, trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunFormatsAgree pins the pipeline's invariant: the same trace fed
// as text lines, binary frames, or a pcap capture produces byte-identical
// result streams, all matching a serial ClassifyBatch oracle — at every
// shard count (GOMAXPROCS 1, 2, 4: one shard inline, and fan-outs whose
// shards do and do not divide the batch) and at lengths around the batch
// boundaries, longest first: the pooled ring then hands each run's short
// last slot the segments a full batch filled in the run before.
func TestRunFormatsAgree(t *testing.T) {
	h, rs := testHandle(t, 200)
	// TCP/UDP with zero fragments so the pcap encoding is lossless.
	trace := classbench.GenerateTrace(rs, 3*BatchSize+5, 43)
	for i := range trace {
		if i%2 == 0 {
			trace[i].Proto = 6
		} else {
			trace[i].Proto = 17
		}
	}
	want := make([]int32, len(trace))
	h.Current().Engine().ClassifyBatch(trace, want)
	var oracle bytes.Buffer
	end := make([]int, len(trace)+1) // end[n]: oracle bytes of the first n answers
	for i, id := range want {
		fmt.Fprintf(&oracle, "%d\n", id)
		end[i+1] = oracle.Len()
	}

	cases := map[string]struct {
		encode func(testing.TB, []rule.Packet) []byte
		binary bool
	}{
		"text":   {encodeText, false},
		"binary": {encodeBinary, true},
		"pcap":   {encodePcap, true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, n := range []int{len(trace), BatchSize + 1, BatchSize, BatchSize / 2, BatchSize/2 - 1, 1} {
					var out bytes.Buffer
					st, err := Run(h, bytes.NewReader(tc.encode(t, trace[:n])), &out)
					if err != nil {
						t.Fatalf("GOMAXPROCS %d, %d packets: %v", procs, n, err)
					}
					if wantBatches := int64((n + BatchSize - 1) / BatchSize); st.Packets != int64(n) || st.Batches != wantBatches {
						t.Fatalf("GOMAXPROCS %d: Packets = %d, Batches = %d, want %d, %d", procs, st.Packets, st.Batches, n, wantBatches)
					}
					if st.Binary != tc.binary {
						t.Fatalf("Binary = %v, want %v", st.Binary, tc.binary)
					}
					if !bytes.Equal(out.Bytes(), oracle.Bytes()[:end[n]]) {
						t.Fatalf("GOMAXPROCS %d, %d packets: result stream differs from the serial oracle", procs, n)
					}
				}
			}
		})
	}
}

// TestRunEmpty pins all three empty encodings.
func TestRunEmpty(t *testing.T) {
	h, _ := testHandle(t, 50)
	for name, data := range map[string][]byte{
		"text":   nil,
		"binary": encodeBinary(t, nil),
		"pcap":   encodePcap(t, nil),
	} {
		var out bytes.Buffer
		st, err := Run(h, bytes.NewReader(data), &out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Packets != 0 || out.Len() != 0 {
			t.Fatalf("%s: got %d packets, %d output bytes", name, st.Packets, out.Len())
		}
	}
}

// TestRunCorruptBinaryMidStream pins error semantics: frames decoded
// before the corruption are classified and delivered, the corrupt
// frame's partial batch is not, and the error surfaces.
func TestRunCorruptBinaryMidStream(t *testing.T) {
	h, rs := testHandle(t, 100)
	trace := classbench.GenerateTrace(rs, 2*BatchSize+100, 47)
	data := encodeBinary(t, trace)
	// Corrupt the second frame's marker (frames are DefaultFrameRecords
	// packets each; the first frame survives).
	off := wire.HeaderBytes + wire.FrameHeaderBytes + wire.DefaultFrameRecords*wire.RecordBytes
	data[off] = 0x00
	var out bytes.Buffer
	st, err := Run(h, bytes.NewReader(data), &out)
	if err == nil {
		t.Fatal("corrupt stream ran cleanly")
	}
	if st.Packets != int64(wire.DefaultFrameRecords) {
		t.Fatalf("Packets = %d, want %d (one clean frame)", st.Packets, wire.DefaultFrameRecords)
	}
	if got := bytes.Count(out.Bytes(), []byte("\n")); got != wire.DefaultFrameRecords {
		t.Fatalf("delivered %d result lines, want %d", got, wire.DefaultFrameRecords)
	}
}

// TestRunBadTextLine mirrors the old streamer's contract: a bad line
// fails with its line number, earlier full batches are delivered.
func TestRunBadTextLine(t *testing.T) {
	h, rs := testHandle(t, 50)
	trace := classbench.GenerateTrace(rs, 10, 53)
	data := string(encodeText(t, trace))
	data += "not a packet\n"
	var out bytes.Buffer
	_, err := Run(h, strings.NewReader(data), &out)
	if err == nil || !strings.Contains(err.Error(), "line 11") {
		t.Fatalf("err = %v, want line-11 parse error", err)
	}
}

// errWriter fails after a fixed number of bytes.
type errWriter struct{ left int }

var errSink = errors.New("sink failed")

func (e *errWriter) Write(p []byte) (int, error) {
	if e.left <= 0 {
		return 0, errSink
	}
	n := min(len(p), e.left)
	e.left -= n
	if n < len(p) {
		return n, errSink
	}
	return n, nil
}

// TestRunWriterError pins that a failing output sink aborts the pipeline
// (no deadlock, no goroutine leak under -race) and surfaces the error.
func TestRunWriterError(t *testing.T) {
	h, rs := testHandle(t, 50)
	trace := classbench.GenerateTrace(rs, 4*BatchSize, 59)
	data := encodeBinary(t, trace)
	var full bytes.Buffer
	if _, err := Run(h, bytes.NewReader(data), &full); err != nil {
		t.Fatal(err)
	}
	// Budgets hit the sink at the first write, mid-stream, and at the
	// final flush.
	for _, budget := range []int{0, 100, full.Len() / 2, full.Len() - 1} {
		_, err := Run(h, bytes.NewReader(data), &errWriter{left: budget})
		if !errors.Is(err, errSink) {
			t.Fatalf("budget %d: err = %v, want sink error", budget, err)
		}
	}
}

// TestRunChunkedBinary drives the pipeline through a reader that splits
// frames mid-header and mid-record (the stream-level mirror of
// stream_framing_test.go).
func TestRunChunkedBinary(t *testing.T) {
	h, rs := testHandle(t, 100)
	trace := classbench.GenerateTrace(rs, BatchSize+777, 61)
	data := encodeBinary(t, trace)
	var whole, chunked bytes.Buffer
	if _, err := Run(h, bytes.NewReader(data), &whole); err != nil {
		t.Fatal(err)
	}
	st, err := Run(h, iotest(data, 13), &chunked)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != int64(len(trace)) {
		t.Fatalf("Packets = %d, want %d", st.Packets, len(trace))
	}
	if !bytes.Equal(whole.Bytes(), chunked.Bytes()) {
		t.Fatal("chunked read produced different results")
	}
}

// iotest returns a reader yielding size-byte chunks of data.
func iotest(data []byte, size int) io.Reader {
	return &chunkReader{data: data, size: size}
}

type chunkReader struct {
	data []byte
	pos  int
	size int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.pos >= len(c.data) {
		return 0, io.EOF
	}
	n := min(min(c.size, len(p)), len(c.data)-c.pos)
	copy(p, c.data[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

// TestDetect pins the sniffing boundary cases, including inputs shorter
// than the 4-byte peek.
func TestDetect(t *testing.T) {
	for name, tc := range map[string]struct {
		data   string
		binary bool
	}{
		"empty":     {"", false},
		"short":     {"1\t2", false},
		"text":      {"1\t2\t3\t4\t5\n", false},
		"wire":      {string(encodeBinary(t, nil)), true},
		"pcap":      {string(encodePcap(t, nil)), true},
		"near-miss": {"PCBX rest", false},
	} {
		_, binary := Detect(bufio.NewReader(strings.NewReader(tc.data)))
		if binary != tc.binary {
			t.Fatalf("%s: binary = %v, want %v", name, binary, tc.binary)
		}
	}
}

// TestStreamAllocsPerPacket is the pipeline-level allocation gate: the
// per-packet malloc rate on the binary path must stay far below one —
// buffers are reused across batches, so steady state is O(1) allocs per
// batch (the shard fan-out), not per packet.
func TestStreamAllocsPerPacket(t *testing.T) {
	h, rs := testHandle(t, 100)
	trace := classbench.GenerateTrace(rs, 8*BatchSize, 67)
	data := encodeBinary(t, trace)
	// Warm once (pipeline slot buffers are per-Run; flow cache, pools
	// and lazy engine state warm up here).
	if _, err := Run(h, bytes.NewReader(data), io.Discard); err != nil {
		t.Fatal(err)
	}
	st, err := Run(h, bytes.NewReader(data), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	perPacket := float64(st.Allocs) / float64(st.Packets)
	if perPacket >= 1 {
		t.Fatalf("binary path allocates %.2f/packet (Allocs=%d, Packets=%d); want « 1",
			perPacket, st.Allocs, st.Packets)
	}
}

// TestAppendIDsZeroAllocs gates the result encoder per call: with a warm
// buffer, formatting IDs of every width and sign allocates nothing.
// TestStreamAllocsPerPacket divides by packets, so one allocation per
// batch would pass it.
func TestAppendIDsZeroAllocs(t *testing.T) {
	ids := []int32{0, 7, -1, 10, 99, 1234, 56789, 2147483647, -2147483648}
	buf := appendIDs(nil, ids)
	if got, want := string(buf), "0\n7\n-1\n10\n99\n1234\n56789\n2147483647\n-2147483648\n"; got != want {
		t.Fatalf("appendIDs = %q, want %q", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { buf = appendIDs(buf[:0], ids) }); a != 0 {
		t.Fatalf("appendIDs allocates %.1f times per call", a)
	}
}
