// Package stream is the line-rate ingest pipeline: it pulls packet
// batches from a framed source (binary wire format, pcap capture, or the
// legacy text trace as a compatibility shim), classifies them on the
// epoch-snapshot engine via engine.Handle.ClassifySharded, and
// serializes result IDs — one decimal per line, the format the text
// streamer always produced — without ever stalling the classify stage on
// output.
//
// Dataflow (DESIGN.md §9):
//
//	            free ring                work ring               done ring
//	source ──► [slot pkts] ──reader──► [classify+encode] ──► [writer] ──► w
//	   ▲                                                        │
//	   └────────────────── slots recycle ───────────────────────┘
//
// A fixed ring of slots carries reused packet/result/output buffers
// through three stages running on their own goroutines, so frame
// decoding, classification and result serialization overlap. Within the
// classify stage the batch is sharded across cores by ClassifySharded —
// one goroutine wave per slot — and each shard, as soon as its range is
// classified, formats its results into its own segment of the slot; the
// writer drains the segments in order, so output serialization never
// blocks a classify shard. Steady state performs zero allocations per
// packet; the only per-batch allocations are that one fan-out's.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/rule"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// BatchSize is the number of packets per pipeline slot: the granularity
// of classification dispatch and of epoch observation.
const BatchSize = 4096

// slots is the pipeline ring depth: one slot being filled, one being
// classified, one being written, one of slack.
const slots = 4

// Stats describes one finished stream, the observables that make ingest
// regressions visible.
type Stats struct {
	// Packets is the number of packets classified and delivered.
	Packets int64
	// Batches is the number of pipeline dispatches (≤ BatchSize packets
	// each).
	Batches int64
	// Allocs approximates the heap allocations the stream performed:
	// the process-wide heap-object allocation delta across the call
	// (runtime/metrics, no stop-the-world). Exact when nothing else
	// runs concurrently; steady-state ingest keeps it to a small
	// per-batch constant (the shard fan-out), so Allocs/Packets far
	// below 1 is the expected regime on every path.
	Allocs int64
	// Binary reports that the source was detected as binary-framed
	// (wire format or pcap) rather than the text shim.
	Binary bool
	// BatchP50Ns and BatchP99Ns are the run's per-batch classify+encode
	// latency quantiles in nanoseconds (log2-bucket estimates, exact to
	// within a factor of two): the latency-under-load observable —
	// dividing by the batch size bounds per-packet queuing delay. Zero
	// when the run dispatched no batches.
	BatchP50Ns, BatchP99Ns int64
	// ReaderStalls counts decode-stage waits for a free pipeline slot
	// (the classify/write side was the bottleneck); WriterStalls counts
	// classify-stage waits for the done ring to drain (output
	// serialization was the bottleneck). Both zero means the source was
	// the bottleneck — the pipeline ran input-bound.
	ReaderStalls, WriterStalls int64
	// Skipped counts source records decoded but not deliverable as
	// packets — for pcap captures, records that were not parseable
	// IPv4-over-Ethernet (wire.PcapReader.Skipped): other link
	// protocols, non-initial fragments, truncated frames. Always zero
	// for the wire and text framings, and on abort paths where the
	// decoder could not be safely observed (a stage goroutine may still
	// hold it).
	Skipped int64
}

// slot is one ring entry: reused input, result and per-shard output
// buffers plus the batch's read status.
type slot struct {
	pkts []rule.Packet
	out  []int32
	segs [][]byte // shard k's formatted results, written in order
	// encode is ClassifySharded's tail for this slot: shard k formats
	// out[lo:hi] into segs[k]. Built once with the slot, so dispatching a
	// batch allocates no closure.
	encode func(k, lo, hi int)
	n      int
	err    error
}

// textSource adapts the legacy text trace format (rule.WriteTrace lines)
// to the BatchReader contract. It reuses the scanner's token buffer and
// parses with rule.ParseTraceLineBytes, so the shim allocates nothing
// per packet either — it is slower than binary framing only because
// decimal parsing is inherently slower than slicing fixed-width records.
type textSource struct {
	sc     *bufio.Scanner
	buf    []byte // pooled scanner buffer, returned by Run when safe
	lineNo int
}

func newTextSource(r io.Reader) *textSource {
	sc := bufio.NewScanner(r)
	buf, _ := scanBufPool.Get().(*[]byte)
	if buf == nil {
		b := make([]byte, 0, 64*1024)
		buf = &b
	}
	sc.Buffer(*buf, 1024*1024)
	return &textSource{sc: sc, buf: *buf}
}

func (t *textSource) ReadBatch(pkts []rule.Packet) (int, error) {
	n := 0
	for n < len(pkts) {
		if !t.sc.Scan() {
			if err := t.sc.Err(); err != nil {
				return n, err
			}
			return n, io.EOF
		}
		t.lineNo++
		p, ok, err := rule.ParseTraceLineBytes(t.sc.Bytes())
		if err != nil {
			return n, fmt.Errorf("trace line %d: %w", t.lineNo, err)
		}
		if !ok {
			continue
		}
		pkts[n] = p
		n++
	}
	return n, nil
}

// Detect sniffs r (buffered) and returns the matching batch source:
// native wire framing, a pcap capture, or the text shim. It consumes
// nothing — detection is a Peek. The decoders come from the pools below;
// Run returns them there, a one-shot caller just drops them.
func Detect(br *bufio.Reader) (src wire.BatchReader, binary bool) {
	head, _ := br.Peek(4)
	switch {
	case wire.IsMagic(head):
		if rd, _ := wireRdPool.Get().(*wire.Reader); rd != nil {
			rd.Reset(br)
			return rd, true
		}
		return wire.NewReader(br), true
	case wire.IsPcapMagic(head):
		if rd, _ := pcapRdPool.Get().(*wire.PcapReader); rd != nil {
			rd.Reset(br)
			return rd, true
		}
		return wire.NewPcapReader(br), true
	default:
		return newTextSource(br), false
	}
}

// Fixed-cost pools: every buffer a stream needs besides the slot ring —
// the input bufio layer, the framed decoders with their ring buffers,
// the text scanner's token buffer, the output bufio layer — is recycled
// across runs, so back-to-back short streams do not pay ~½ MiB of
// allocation and page-faulting per call. Decoder-side entries return to
// their pool only when the reader stage provably exited (same rule as
// the slot ring); the writer side always returns because stage 3 runs
// on the calling goroutine.
var (
	brPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64*1024) }}
	bwPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64*1024) }}

	wireRdPool  sync.Pool // *wire.Reader
	pcapRdPool  sync.Pool // *wire.PcapReader
	scanBufPool sync.Pool // *[]byte (bufio.Scanner token buffer)
)

// heapAllocsMetric is the cumulative heap-object allocation counter —
// the runtime/metrics equivalent of MemStats.Mallocs, readable without
// a stop-the-world.
const heapAllocsMetric = "/gc/heap/allocs:objects"

func heapAllocs() int64 {
	s := []metrics.Sample{{Name: heapAllocsMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// Run streams packets from r through h into w: reads are auto-detected
// as binary wire framing, pcap, or text lines; results are written as
// one decimal rule ID per line in input order. Classification follows
// epoch snapshots batch by batch, so concurrent updates through h never
// stall the stream. On error, every result already written corresponds
// to a delivered packet (the writer flushes before returning) and
// Stats.Packets counts exactly those.
func Run(h *engine.Handle, r io.Reader, w io.Writer) (Stats, error) {
	a0 := heapAllocs()
	br, ok := r.(*bufio.Reader)
	pooledBR := false
	if !ok {
		br = brPool.Get().(*bufio.Reader)
		br.Reset(r)
		pooledBR = true
	}
	src, isBinary := Detect(br)
	st, safe, err := run(h, src, w)
	st.Binary = isBinary
	if safe {
		switch src := src.(type) {
		case *wire.Reader:
			src.Reset(nil)
			wireRdPool.Put(src)
		case *wire.PcapReader:
			// Capture before Reset zeroes it; safe==true proves the
			// reader stage exited, so this read cannot race.
			st.Skipped = src.Skipped
			src.Reset(nil)
			pcapRdPool.Put(src)
		case *textSource:
			buf := src.buf
			scanBufPool.Put(&buf)
		}
		if pooledBR {
			br.Reset(nil)
			brPool.Put(br)
		}
	}
	st.Allocs = heapAllocs() - a0
	return st, err
}

// slotRing is the set of slots one pipeline run cycles through. Rings
// are pooled across runs so a stream's fixed cost does not include
// allocating (and faulting in) ~360 KiB of batch buffers.
type slotRing struct {
	slots  [slots]*slot
	shards int
	// hist accumulates the run's per-batch classify+encode latency; it
	// rides the pooled ring so a stream's fixed cost does not include
	// allocating it, and is Reset at the start of every run.
	hist telemetry.Hist
}

var ringPool sync.Pool

func getRing(shards int) *slotRing {
	if r, _ := ringPool.Get().(*slotRing); r != nil && r.shards == shards {
		return r
	}
	r := &slotRing{shards: shards}
	for i := range r.slots {
		s := &slot{
			pkts: make([]rule.Packet, BatchSize),
			out:  make([]int32, BatchSize),
			segs: make([][]byte, shards),
		}
		for k := range s.segs {
			s.segs[k] = make([]byte, 0, 8*BatchSize/shards+16)
		}
		s.encode = func(k, lo, hi int) { s.segs[k] = appendIDs(s.segs[k], s.out[lo:hi]) }
		r.slots[i] = s
	}
	return r
}

// run executes the three-stage pipeline. The second return reports
// whether both stage goroutines exited — i.e. whether buffers the
// source or slots reference may be recycled by the caller.
func run(h *engine.Handle, src wire.BatchReader, w io.Writer) (Stats, bool, error) {
	var st Stats
	free := make(chan *slot, slots)
	work := make(chan *slot, slots)
	// done holds fewer than all slots so a writer that falls behind is
	// observable: with capacity for every slot the classify stage could
	// never block on it (the stall counter would be structurally zero).
	// Total pipelining is bounded by the slot count either way — slots
	// stuck in done starve the free ring — so this only moves where the
	// backpressure surfaces, not how much there is.
	done := make(chan *slot, slots/2)
	abort := make(chan struct{})
	var abortOnce sync.Once
	stop := func() { abortOnce.Do(func() { close(abort) }) }
	// exited counts finished stage goroutines; the ring returns to the
	// pool only if both stages are provably done with its slots (on the
	// abort path the reader may still be blocked inside src.ReadBatch —
	// then the ring is simply left to the GC rather than joined on,
	// since a blocking source must not delay the error return).
	var exited atomic.Int32
	// A slot is classified and encoded in one shard, and so one segment,
	// per core; capped so segment bookkeeping stays trivial on wide hosts.
	ring := getRing(min(runtime.GOMAXPROCS(0), 16))
	ring.hist.Reset()
	for _, s := range ring.slots {
		free <- s
	}
	tel := h.Telemetry()
	var readerStalls, writerStalls atomic.Int64

	// Stage 1: frame decoding. Fills slots from the free ring and hands
	// them to the classify stage in input order.
	go func() {
		defer close(work)
		defer exited.Add(1)
		for {
			var s *slot
			select {
			case s = <-free:
			default:
				// No free slot: the classify/write side is behind.
				readerStalls.Add(1)
				if tel != nil {
					tel.ReaderStalls.Inc()
				}
				select {
				case s = <-free:
				case <-abort:
					return
				}
			}
			n, err := src.ReadBatch(s.pkts)
			s.n, s.err = n, err
			if err == io.EOF {
				s.err = nil
				if n == 0 {
					return
				}
			}
			select {
			case work <- s:
			case <-abort:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// Stage 2: classification + result formatting. One goroutine keeps
	// slot order; parallelism lives inside ClassifySharded, whose shards
	// each encode their own range into their own segment.
	go func() {
		defer close(done)
		defer exited.Add(1)
		for s := range work {
			if s.err == nil && s.n > 0 {
				start := time.Now()
				for k := range s.segs {
					s.segs[k] = s.segs[k][:0] // a short batch fills fewer shards
				}
				h.ClassifySharded(s.pkts[:s.n], s.out[:s.n], len(s.segs), s.encode)
				ns := int64(time.Since(start))
				ring.hist.Observe(ns)
				if tel != nil {
					tel.StreamBatchNs.Observe(ns)
					tel.StreamPackets.Add(uint64(s.n))
					tel.StreamBatches.Inc()
					tel.WorkQueue.Set(int64(len(work)))
					tel.DoneQueue.Set(int64(len(done)))
				}
			}
			select {
			case done <- s:
			default:
				// Done ring full: output serialization is behind.
				writerStalls.Add(1)
				if tel != nil {
					tel.WriterStalls.Inc()
				}
				select {
				case done <- s:
				case <-abort:
					return
				}
			}
		}
	}()

	// Stage 3 (this goroutine): drain the done ring in order, write each
	// slot's segments, recycle the slot.
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(w)
	var firstErr error
	for s := range done {
		if firstErr == nil && s.err == nil && s.n > 0 {
			for _, seg := range s.segs {
				if len(seg) == 0 {
					continue
				}
				if _, err := bw.Write(seg); err != nil {
					firstErr = err
					stop()
					break
				}
			}
			if firstErr == nil {
				st.Packets += int64(s.n)
				st.Batches++
			}
		}
		if firstErr == nil && s.err != nil {
			// Source error: packets decoded before the failure in this
			// slot are deliberately not classified or delivered — a
			// corrupt frame invalidates its partial batch.
			firstErr = s.err
			stop()
		}
		select {
		case free <- s:
		default:
		}
	}
	stop()
	// done closing happens after both stage goroutines' exited.Add on
	// the clean path, so 2 here proves no goroutine still touches the
	// ring's buffers (or the source's).
	safe := exited.Load() == 2
	st.ReaderStalls = readerStalls.Load()
	st.WriterStalls = writerStalls.Load()
	if hs := ring.hist.Snapshot(); hs.Count > 0 {
		st.BatchP50Ns = int64(hs.Quantile(0.50))
		st.BatchP99Ns = int64(hs.Quantile(0.99))
	}
	if safe {
		ringPool.Put(ring)
	}
	if err := bw.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	bw.Reset(nil)
	bwPool.Put(bw)
	return st, safe, firstErr
}

//repro:hotpath
func appendIDs(buf []byte, ids []int32) []byte {
	// Hand-rolled itoa: strconv.AppendInt is ~a quarter of the cached
	// hot path's CPU at line rate (it re-derives digit counts and
	// handles bases the IDs never use). Rule IDs are almost always
	// short non-negative decimals, so fill a small scratch backwards
	// and append the used tail plus the newline in one copy.
	var tmp [12]byte
	for _, id := range ids {
		if uint32(id) < 10 { // covers the dominant single-digit IDs
			buf = append(buf, byte('0'+id), '\n')
			continue
		}
		v := uint32(id)
		neg := id < 0
		if neg {
			v = uint32(-int64(id))
		}
		i := len(tmp)
		tmp[i-1] = '\n'
		i--
		for v >= 10 {
			q := v / 10
			i--
			tmp[i] = byte('0' + v - q*10)
			v = q
		}
		i--
		tmp[i] = byte('0' + v)
		if neg {
			i--
			tmp[i] = '-'
		}
		buf = append(buf, tmp[i:]...)
	}
	return buf
}
