package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flowcache"
	"repro/internal/hwsim"
	"repro/internal/image"
	"repro/internal/rule"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// perLayer names the metrics of the traced run, layer = package name. They
// are measured single-threaded on the workload's own inputs by timing
// exported calls from outside, on instances the harness owns; counts that
// only the composed system produces (cache hit ratio, recompiles, device
// write cycles) come from a facade exercised in the same run. A layer the
// workload bypasses reports 0.
var perLayer = []metricDef{
	{name: "rule.parse_ns_pkt", unit: "ns"},
	{name: "wire.decode_ns_pkt", unit: "ns"},
	{name: "wire.bytes_pkt", unit: "B"},
	{name: "flowcache.probe_ns_pkt", unit: "ns"},
	{name: "flowcache.insert_ns_pkt", unit: "ns"},
	{name: "flowcache.hit_ratio", unit: "ratio", higherBetter: true},
	{name: "flowcache.occupied", unit: "count"},
	{name: "flowcache.stale_evictions", unit: "count"},
	{name: "engine.classify_ns_pkt", unit: "ns"},
	{name: "engine.classify_portable_ns_pkt", unit: "ns"},
	{name: "engine.classify_aos_ns_pkt", unit: "ns"},
	{name: "engine.cached_ns_pkt", unit: "ns"},
	{name: "engine.compile_ms", unit: "ms"},
	{name: "engine.apply_us", unit: "us"},
	{name: "engine.snapshot_ms", unit: "ms"},
	{name: "engine.restore_ms", unit: "ms"},
	{name: "engine.mem_bytes", unit: "B"},
	{name: "engine.garbage_ratio", unit: "ratio"},
	{name: "core.build_ms", unit: "ms"},
	{name: "core.encode_ms", unit: "ms"},
	{name: "core.insert_delta_us", unit: "us"},
	{name: "core.delete_delta_us", unit: "us"},
	{name: "core.words", unit: "count"},
	{name: "core.depth", unit: "count"},
	{name: "core.walk_nodes_avg", unit: "count"},
	{name: "core.leaf_words_avg", unit: "count"},
	{name: "core.degradation", unit: "ratio"},
	{name: "stream.serial_ns_pkt", unit: "ns"},
	{name: "stream.unattributed_ns_pkt", unit: "ns"},
	{name: "stream.batch_p50_us", unit: "us"},
	{name: "stream.reader_stalls", unit: "count"},
	{name: "stream.writer_stalls", unit: "count"},
	{name: "stream.allocs_pkt", unit: "count"},
	{name: "stream.rtt_p99_us", unit: "us"},
	{name: "stream.source_read_ns_pkt", unit: "ns"},
	{name: "stream.sink_write_ns_pkt", unit: "ns"},
	{name: "hwsim.classify_ns_pkt", unit: "ns"},
	{name: "hwsim.hicuts_cycles_pkt", unit: "cycles"},
	{name: "hwsim.memreads_pkt", unit: "count"},
	{name: "hwsim.worst_latency_cycles", unit: "cycles"},
	{name: "hwsim.worst_case_cycles", unit: "cycles"},
	{name: "hwsim.load_cycles", unit: "cycles"},
	{name: "hwsim.write_cycles_per_update", unit: "cycles"},
	{name: "hwsim.model_mismatches", unit: "count"},
	{name: "image.write_ms", unit: "ms"},
	{name: "image.read_us", unit: "us"},
	{name: "telemetry.scrape_ms", unit: "ms"},
	{name: "telemetry.recompiles", unit: "count"},
	{name: "telemetry.events_dropped", unit: "count"},
	{name: "repro.classify_batch_ns_pkt", unit: "ns"},
	{name: "repro.classify_one_ns", unit: "ns"},
	{name: "repro.update_us", unit: "us"},
	{name: "trace.span_sum_ns_pkt", unit: "ns"},
	{name: "trace.update_span_sum_us", unit: "us"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

const (
	layerPackets  = 1 << 18  // trace prefix one per-layer classify pass covers
	replayUpdates = 400      // rules the control-path replays insert; with the deletes, 736 updates
	replayLag     = 64       // a replayed rule is deleted this many inserts later
	layerShare    = 1.0 / 40 // of --seconds, the time box of one per-layer metric
	cacheEpoch    = 1        // epoch the harness's own cache entries are stamped with
)

// layerRun is the traced run of one workload and the instances it owns.
type layerRun struct {
	in *inputs
	o  options
	r  *result
	lt []rule.Packet // prefix of the trace the classify passes cover

	tree *core.Tree
	eng  *engine.Engine
	// h serves eng the way the facade would: through the flow cache when
	// the workload has one.
	h *engine.Handle
}

// runTraced measures the per-layer metrics, replays the ingest and the
// control path layer by layer under a span recorder, prints both waterfalls
// and writes the spans to o.outDir.
func runTraced(in *inputs, o options, stdout io.Writer) (*result, error) {
	l := &layerRun{in: in, o: o, r: newResult(in.w, o.seed, true), lt: in.trace[:layerPackets/o.scale]}
	if err := l.controlPlane(); err != nil {
		return nil, fmt.Errorf("%s: %w", in.w.name, err)
	}
	l.dataPlane()
	if err := l.device(); err != nil {
		return nil, fmt.Errorf("%s: %w", in.w.name, err)
	}
	updateUs, err := l.facade()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.w.name, err)
	}
	tr := newTracer()
	if err := l.pipeline(tr, stdout); err != nil {
		return nil, fmt.Errorf("%s: %w", in.w.name, err)
	}
	if err := l.replayControl(tr, updateUs, stdout); err != nil {
		return nil, fmt.Errorf("%s: %w", in.w.name, err)
	}
	path, err := tr.flush(o.outDir, in.w.name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "\n%d spans written to %s\n", len(tr.spans), path)
	l.r.complete()
	return l.r, nil
}

// perPacket times pass, which handles n packets, and reports the median
// nanoseconds per packet under name.
func (l *layerRun) perPacket(name string, n int, pass func()) float64 {
	s := timed(l.o.box(layerShare), l.o.passes(3), pass)
	l.r.put(name, s.scaled(func(sec float64) float64 { return sec * 1e9 / float64(n) }))
	return s.median() * 1e9 / float64(n)
}

// perCall times one call per pass and reports the median in units of
// 1/perSecond seconds (1e3 for ms, 1e6 for us).
func (l *layerRun) perCall(name string, perSecond float64, call func()) {
	s := timed(l.o.box(layerShare), l.o.passes(3), call)
	l.r.put(name, s.scaled(func(sec float64) float64 { return sec * perSecond }))
}

// checkBatch compares the sampled answers of the batch at trace offset off
// with the linear oracle.
func (l *layerRun) checkBatch(layer string, off int, out []int32) {
	for i := 0; i < len(out); i += oracleStride {
		if want := l.in.oracle[(off+i)/oracleStride]; out[i] != want {
			l.r.fail("%s: packet %d answered %d, linear oracle %d", layer, off+i, out[i], want)
		}
	}
	l.r.Attempted += int64(len(out))
}

// classifyPass runs classify over lt batch by batch and checks every batch.
func (l *layerRun) classifyPass(layer string, out []int32, classify func(pkts []rule.Packet, out []int32)) func() {
	return func() {
		for off := 0; off < len(l.lt); off += stream.BatchSize {
			classify(l.lt[off:off+stream.BatchSize], out)
			l.checkBatch(layer, off, out)
		}
	}
}

// controlPlane times what builds and serializes the structure (core, engine,
// image) and records the structural counts behind Eqs. 5-7.
func (l *layerRun) controlPlane() error {
	ccfg := core.DefaultConfig(core.HyperCuts)
	var err error
	l.perCall("core.build_ms", 1e3, func() {
		var t *core.Tree
		if t, err = core.Build(l.in.rs, ccfg); err == nil {
			l.tree = t
		}
	})
	if err != nil {
		return err
	}
	l.perCall("core.encode_ms", 1e3, func() { _, err = l.tree.Encode() })
	if err != nil {
		return err
	}
	l.perCall("engine.compile_ms", 1e3, func() { l.eng = engine.Compile(l.tree) })
	l.h = engine.NewHandle(l.eng)
	if l.in.w.cache > 0 {
		l.h.EnableCache(l.in.w.cache)
	}

	var blob bytes.Buffer
	l.perCall("engine.snapshot_ms", 1e3, func() {
		blob.Reset()
		_, err = l.eng.Snapshot(&blob)
	})
	if err != nil {
		return err
	}
	l.perCall("engine.restore_ms", 1e3, func() { _, err = engine.RestoreBytes(blob.Bytes()) })
	if err != nil {
		return err
	}
	var sections []image.Section
	l.perCall("image.read_us", 1e6, func() { sections, err = image.ReadBytes(blob.Bytes()) })
	if err != nil {
		return err
	}
	l.perCall("image.write_ms", 1e3, func() { _, err = image.Write(io.Discard, sections) })
	if err != nil {
		return err
	}
	l.r.putValue("engine.mem_bytes", float64(l.eng.MemoryBytes()))

	l.r.putValue("core.words", float64(l.tree.Words()))
	l.r.putValue("core.depth", float64(l.tree.Depth()))
	var nodes, leafWords, n int
	for i := 0; i < len(l.in.trace); i += oracleStride {
		pi := l.tree.Walk(l.in.trace[i])
		nodes += pi.Internal
		leafWords += pi.LeafWords
		n++
		l.r.check(1, pi.Match == int(l.in.oracle[i/oracleStride]), "core.Walk: packet %d answered %d, linear oracle %d", i, pi.Match, l.in.oracle[i/oracleStride])
	}
	l.r.putValue("core.walk_nodes_avg", float64(nodes)/float64(n))
	l.r.putValue("core.leaf_words_avg", float64(leafWords)/float64(n))
	return nil
}

// dataPlane times the layers a packet crosses: text parse, wire decode, cache
// probe and insert, and the engine's classify variants.
func (l *layerRun) dataPlane() {
	// rule: parse the text framing of the same packets, line by line.
	text := l.in.text
	for lines, i := 0, 0; lines < len(l.lt); i++ {
		if l.in.text[i] == '\n' {
			lines++
			text = l.in.text[:i+1]
		}
	}
	l.perPacket("rule.parse_ns_pkt", len(l.lt), func() {
		rest, n := text, 0
		for len(rest) > 0 {
			eol := bytes.IndexByte(rest, '\n')
			p, ok, err := rule.ParseTraceLineBytes(rest[:eol])
			if err != nil || !ok || p != l.lt[n] {
				l.r.fail("rule.ParseTraceLineBytes: line %d parsed to %v (ok %v, err %v), want %v", n, p, ok, err, l.lt[n])
			}
			rest = rest[eol+1:]
			n++
		}
		l.r.Attempted += int64(n)
	})

	// wire: decode the whole binary stream batch by batch.
	src := bytes.NewReader(nil)
	rd := wire.NewReader(src)
	pkts := make([]rule.Packet, stream.BatchSize)
	l.perPacket("wire.decode_ns_pkt", len(l.in.trace), func() {
		src.Reset(l.in.wire)
		rd.Reset(src)
		total := 0
		for {
			n, err := rd.ReadBatch(pkts)
			if n > 0 && pkts[0] != l.in.trace[total] {
				l.r.fail("wire.Reader: packet %d decoded to %v, want %v", total, pkts[0], l.in.trace[total])
			}
			total += n
			if err != nil {
				if err != io.EOF {
					l.r.fail("wire.Reader: %v", err)
				}
				break
			}
		}
		l.r.check(int64(total), total == len(l.in.trace), "wire.Reader decoded %d of %d packets", total, len(l.in.trace))
	})
	l.r.putValue("wire.bytes_pkt", float64(len(l.in.wire))/float64(len(l.in.trace)))

	// engine: the active kernel, the portable kernel, the AoS scan, and the
	// cached path the facade serves from.
	out := make([]int32, stream.BatchSize)
	l.perPacket("engine.classify_ns_pkt", len(l.lt), l.classifyPass("engine.ClassifyBatch", out, l.eng.ClassifyBatch))
	if portable, err := l.eng.WithKernel(engine.KernelPortable); err != nil {
		l.r.fail("engine.WithKernel(portable): %v", err)
	} else {
		l.perPacket("engine.classify_portable_ns_pkt", len(l.lt), l.classifyPass("engine portable kernel", out, portable.ClassifyBatch))
	}
	l.perPacket("engine.classify_aos_ns_pkt", len(l.lt), l.classifyPass("engine.ClassifyBatchAoS", out, l.eng.ClassifyBatchAoS))
	cached := l.classifyPass("engine.Handle.ClassifyBatchCached", out, l.h.ClassifyBatchCached)
	cached() // fill the cache before timing
	l.perPacket("engine.cached_ns_pkt", len(l.lt), cached)

	// flowcache: probe a filled cache, then insert every packet (an
	// in-place overwrite for a resident flow, an eviction otherwise).
	if l.in.w.cache == 0 {
		l.r.putValue("flowcache.probe_ns_pkt", 0)
		l.r.putValue("flowcache.insert_ns_pkt", 0)
		return
	}
	c := flowcache.New(l.in.w.cache)
	fill := func() {
		for off := 0; off < len(l.lt); off += stream.BatchSize {
			batch := l.lt[off : off+stream.BatchSize]
			l.eng.ClassifyBatch(batch, out)
			for i, p := range batch {
				c.Insert(p, cacheEpoch, out[i])
			}
		}
	}
	fill()
	l.perPacket("flowcache.probe_ns_pkt", len(l.lt), func() {
		for off := 0; off < len(l.lt); off += stream.BatchSize {
			c.ProbeBatch(l.lt[off:off+stream.BatchSize], cacheEpoch, out)
			for i := 0; i < len(out); i += oracleStride {
				if want := l.in.oracle[(off+i)/oracleStride]; out[i] != want && out[i] != flowcache.NoEntry {
					l.r.fail("flowcache.ProbeBatch: packet %d answered %d, linear oracle %d", off+i, out[i], want)
				}
			}
			l.r.Attempted += stream.BatchSize
		}
	})
	l.perPacket("flowcache.insert_ns_pkt", len(l.lt), func() {
		for _, p := range l.lt {
			c.Insert(p, cacheEpoch, -1)
		}
	})
}

// device times the cycle-accurate model on the host and records its
// simulated counts, each lookup checked against the analytical Eq. 5/7 walk.
func (l *layerRun) device() error {
	img, err := l.tree.Encode()
	if err != nil {
		return err
	}
	sim, err := hwsim.New(img, hwsim.ASIC)
	if err != nil {
		return err
	}
	l.r.putValue("hwsim.load_cycles", float64(sim.LoadCycles()))
	l.r.putValue("hwsim.worst_case_cycles", float64(l.tree.WorstCaseCycles()))
	st := l.in.trace[:simPackets/l.o.scale]
	var memReads, worst, mismatches int
	for i, p := range st {
		res, pi := sim.ClassifyOne(p), l.tree.Walk(p)
		memReads += res.MemReads
		worst = max(worst, res.LatencyCycles)
		if res.LatencyCycles != pi.Cycles() || res.Match != pi.Match {
			mismatches++
			l.r.fail("hwsim: packet %d took %d cycles for rule %d, Eq. 5/7 walk predicts %d for rule %d", i, res.LatencyCycles, res.Match, pi.Cycles(), pi.Match)
		}
	}
	l.r.Attempted += int64(len(st))
	l.r.putValue("hwsim.memreads_pkt", float64(memReads)/float64(len(st)))
	l.r.putValue("hwsim.worst_latency_cycles", float64(worst))
	l.r.putValue("hwsim.model_mismatches", float64(mismatches))
	l.perPacket("hwsim.classify_ns_pkt", len(st), func() {
		for _, p := range st {
			sim.ClassifyOne(p)
		}
	})

	// The HiCuts structure of the same rules, for the paper's comparison. It
	// may outgrow the 1024-word part, so it is loaded into a device with the
	// pointer field's whole address space.
	ht, err := core.Build(l.in.rs, core.DefaultConfig(core.HiCuts))
	if err != nil {
		return err
	}
	himg, err := ht.Encode()
	if err != nil {
		return err
	}
	wide := hwsim.ASIC
	wide.MemoryWords = 1 << core.PointerBits
	hsim, err := hwsim.New(himg, wide)
	if err != nil {
		return err
	}
	_, hstats := hsim.Run(st)
	l.r.putValue("hwsim.hicuts_cycles_pkt", hstats.AvgCyclesPerPacket)
	return nil
}

// facade exercises a whole accelerator for the numbers only the composed
// system has: the facade's own classify cost, the closed-loop tail, and the
// counters that ingest and back-to-back updates leave behind. It returns the
// median Insert/Delete call, which the control waterfall reconciles against.
func (l *layerRun) facade() (updateUs float64, err error) {
	a, err := repro.BuildAccelerator(l.in.rs, l.in.cfg)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	out := make([]int32, stream.BatchSize)
	warm := l.classifyPass("repro.Accelerator.ClassifyBatch", out, a.ClassifyBatch)
	warm()
	l.perPacket("repro.classify_batch_ns_pkt", len(l.lt), warm)
	one := l.lt[:stream.BatchSize]
	l.perPacket("repro.classify_one_ns", len(one), func() {
		for i, p := range one {
			if got := a.Classify(p); i%oracleStride == 0 && got != int(l.in.oracle[i/oracleStride]) {
				l.r.fail("repro.Accelerator.Classify: packet %d answered %d, linear oracle %d", i, got, l.in.oracle[i/oracleStride])
			}
		}
		l.r.Attempted += int64(len(one))
	})

	src := bytes.NewReader(nil)
	calls := 0
	var streamErr error
	rtt := timed(l.o.box(4*layerShare), l.o.passes(200), func() {
		src.Reset(l.in.batches[calls%len(l.in.batches)])
		calls++
		if _, err := a.ClassifyStream(src, io.Discard); err != nil {
			streamErr = err
		}
	})
	if streamErr != nil {
		return 0, streamErr
	}
	l.r.Attempted += int64(len(rtt))
	l.r.putValue("stream.rtt_p99_us", rtt.quantile(0.99)*1e6)

	// Back-to-back updates with no reader: the facade's update cost with
	// nothing contending, and the device write cycles they cause.
	writesBefore := a.DeviceWriteCycles()
	var upd sample
	timedCall := func(kind string, id int, call func() error) error {
		t0 := time.Now()
		err := call()
		upd = append(upd, float64(time.Since(t0).Nanoseconds())/1e3)
		l.r.check(1, err == nil, "facade %s of rule %d: %v", kind, id, err)
		return nil
	}
	l.in.updates(replayLag/l.o.scale,
		func(inserted int) bool { return inserted < replayUpdates/l.o.scale },
		func(nr rule.Rule) error { return timedCall("insert", nr.ID, func() error { return a.Insert(nr) }) },
		func(id int) error { return timedCall("delete", id, func() error { return a.Delete(id) }) })
	a.WaitMaintenance()
	l.r.put("repro.update_us", upd)
	l.r.putValue("hwsim.write_cycles_per_update", float64(a.DeviceWriteCycles()-writesBefore)/float64(len(upd)))

	// One pass of the whole stream: its hit ratio is the workload's, and it
	// meets every entry the updates left stale.
	before := a.CacheStats()
	src.Reset(l.in.wire)
	n, err := a.ClassifyStream(src, io.Discard)
	if err != nil {
		return 0, err
	}
	l.r.check(n, n == int64(len(l.in.trace)), "facade stream classified %d of %d packets", n, len(l.in.trace))
	cs := a.CacheStats()
	hitRatio := 0.0
	if lookups := cs.Hits + cs.Misses - before.Hits - before.Misses; lookups > 0 {
		hitRatio = float64(cs.Hits-before.Hits) / float64(lookups)
	}
	l.r.putValue("flowcache.hit_ratio", hitRatio)
	l.r.putValue("flowcache.occupied", float64(cs.Occupied))
	l.r.putValue("flowcache.stale_evictions", float64(cs.StaleEvictions))
	tel := a.Telemetry()
	l.r.putValue("telemetry.recompiles", float64(tel.Recompiles))
	l.r.putValue("telemetry.events_dropped", float64(tel.EventsDropped))
	return upd.median(), nil
}

// timedReader and timedWriter are the stream's source and sink with a clock
// around every call, so the time the pipeline spends in the harness's own
// I/O is known.
type timedReader struct {
	r  io.Reader
	ns int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.ns += time.Since(t0).Nanoseconds()
	return n, err
}

type timedWriter struct {
	w  io.Writer
	ns int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.ns += time.Since(t0).Nanoseconds()
	return n, err
}

// pipeline runs the whole stream on one processor (stream.Run under
// GOMAXPROCS(1)), so that its stages cannot overlap and their costs add,
// then replays the same bytes through the layers' exported calls in pipeline
// order under the span recorder and reconciles the two.
func (l *layerRun) pipeline(tr *tracer, stdout io.Writer) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	packets := len(l.in.trace)
	rec := telemetry.New()
	l.h.SetTelemetry(rec)

	src := bytes.NewReader(nil)
	var last stream.Stats
	var err error
	serial := l.perPacket("stream.serial_ns_pkt", packets, func() {
		src.Reset(l.in.wire)
		var sink digestSink
		if last, err = stream.Run(l.h, src, &sink); err == nil {
			l.r.check(last.Packets, last.Packets == int64(packets), "stream.Run classified %d of %d packets", last.Packets, packets)
		}
	})
	if err != nil {
		return err
	}
	l.r.putValue("stream.batch_p50_us", float64(last.BatchP50Ns)/1e3)
	l.r.putValue("stream.reader_stalls", float64(last.ReaderStalls))
	l.r.putValue("stream.writer_stalls", float64(last.WriterStalls))
	l.r.putValue("stream.allocs_pkt", float64(last.Allocs)/float64(packets))
	decode, _ := l.r.get("wire.decode_ns_pkt")
	cached, _ := l.r.get("engine.cached_ns_pkt")
	l.r.putValue("stream.unattributed_ns_pkt", serial-decode.Value-cached.Value)

	var read, write sample
	timed(l.o.box(layerShare), l.o.passes(3), func() {
		src.Reset(l.in.wire)
		rd, wr := timedReader{r: src}, timedWriter{w: new(digestSink)}
		if _, err = stream.Run(l.h, &rd, &wr); err == nil {
			read = append(read, float64(rd.ns)/float64(packets))
			write = append(write, float64(wr.ns)/float64(packets))
		}
	})
	if err != nil {
		return err
	}
	l.r.put("stream.source_read_ns_pkt", read)
	l.r.put("stream.sink_write_ns_pkt", write)
	l.perCall("telemetry.scrape_ms", 1e3, func() { err = rec.WriteProm(io.Discard) })
	if err != nil {
		return err
	}

	// The replay owns a cache of its own, filled by one untimed pass, and is
	// run once without spans: the difference is what tracing costs.
	var cache *flowcache.Cache
	if l.in.w.cache > 0 {
		cache = flowcache.New(l.in.w.cache)
	}
	l.replayIngest(nil, cache)
	plain := timed(l.o.box(layerShare), l.o.passes(3), func() { l.replayIngest(nil, cache) })
	first := len(tr.spans)
	traced := timed(l.o.box(layerShare), l.o.passes(3), func() { l.replayIngest(tr, cache) })
	l.r.putValue("trace.overhead_ratio", traced.median()/plain.median())
	replayed := float64(len(traced) * packets)
	sum := waterfall(stdout,
		fmt.Sprintf("%s ingest, %d traced passes of %d packets on one processor", l.in.w.name, len(traced), packets),
		"ns/pkt", selfRows(tr.selfTimes(first, "batch"), "batch", replayed), serial, "stream.serial_ns_pkt", "encode, write, ring hand-off")
	l.r.putValue("trace.span_sum_ns_pkt", sum)
	return nil
}

// replayIngest passes the wire stream through the layers in pipeline order,
// one span per call: wire.Reader.ReadBatch, flowcache.ProbeBatch,
// engine.Engine.Classify on the misses, flowcache.Insert of their answers.
func (l *layerRun) replayIngest(tr *tracer, cache *flowcache.Cache) {
	src := bytes.NewReader(l.in.wire)
	rd := wire.NewReader(src)
	pkts := make([]rule.Packet, stream.BatchSize)
	out := make([]int32, stream.BatchSize)
	misses := make([]int, 0, stream.BatchSize)
	for batch, off := 0, 0; ; batch++ {
		root := tr.begin("batch", -1, batch)
		s := tr.begin("wire.Reader.ReadBatch", root, batch)
		n, err := rd.ReadBatch(pkts)
		tr.end(s)
		if n == 0 {
			tr.end(root)
			if err != io.EOF {
				l.r.fail("replay: wire.Reader: %v", err)
			}
			return
		}
		if cache != nil {
			s = tr.begin("flowcache.ProbeBatch", root, batch)
			cache.ProbeBatch(pkts[:n], cacheEpoch, out)
			tr.end(s)
		} else {
			for i := range out[:n] {
				out[i] = flowcache.NoEntry
			}
		}
		s = tr.begin("engine.Engine.Classify", root, batch)
		misses = misses[:0]
		for i, p := range pkts[:n] {
			if out[i] == flowcache.NoEntry {
				out[i] = int32(l.eng.Classify(p))
				misses = append(misses, i)
			}
		}
		tr.end(s)
		if cache != nil {
			s = tr.begin("flowcache.Insert", root, batch)
			for _, i := range misses {
				cache.Insert(pkts[i], cacheEpoch, out[i])
			}
			tr.end(s)
		}
		tr.end(root)
		l.checkBatch("replay", off, out[:n])
		off += n
	}
}

// replayControl passes updates through the control path's layers on
// instances of its own, one span per call: core.Tree.InsertDelta or
// DeleteDelta, engine.Handle.Apply, hwsim.Sim.ApplyDelta. The patched engine
// and device image are then checked against a fresh compile and re-encode.
func (l *layerRun) replayControl(tr *tracer, facadeUpdateUs float64, stdout io.Writer) error {
	tree, err := core.Build(l.in.rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		return err
	}
	h := engine.NewHandle(engine.Compile(tree))
	img, err := tree.Encode()
	if err != nil {
		return err
	}
	sim, err := hwsim.New(img, hwsim.ASIC)
	if err != nil {
		return err
	}
	var inserts, deletes, applies, deferred, updates sample
	us := func(i int) float64 { return float64(tr.spans[i].End-tr.spans[i].Start) / 1e3 }
	update := func(id int, name string, delta func() (*core.Delta, error)) error {
		root := tr.begin("update", -1, id)
		s := tr.begin(name, root, id)
		d, err := delta()
		tr.end(s)
		if err != nil {
			return err
		}
		if name == "core.Tree.InsertDelta" {
			inserts = append(inserts, us(s))
		} else {
			deletes = append(deletes, us(s))
		}
		s = tr.begin("engine.Handle.Apply", root, id)
		_, err = h.Apply(d)
		tr.end(s)
		if err != nil {
			return err
		}
		applies = append(applies, us(s))
		s = tr.begin("hwsim.Sim.ApplyDelta", root, id)
		_, err = sim.ApplyDelta(tree, d)
		tr.end(s)
		deferred = append(deferred, us(s))
		tr.end(root)
		updates = append(updates, us(root))
		l.r.Attempted++
		return err
	}
	err = l.in.updates(replayLag/l.o.scale,
		func(inserted int) bool { return inserted < replayUpdates/l.o.scale },
		func(nr rule.Rule) error {
			return update(nr.ID, "core.Tree.InsertDelta", func() (*core.Delta, error) { return tree.InsertDelta(nr) })
		},
		func(id int) error {
			return update(id, "core.Tree.DeleteDelta", func() (*core.Delta, error) { return tree.DeleteDelta(id) })
		})
	if err != nil {
		return err
	}
	l.r.put("core.insert_delta_us", inserts)
	l.r.put("core.delete_delta_us", deletes)
	l.r.put("engine.apply_us", applies)
	l.r.put("trace.update_span_sum_us", updates)
	l.r.putValue("engine.garbage_ratio", h.Current().Engine().GarbageRatio())
	l.r.putValue("core.degradation", tree.Degradation())
	err = engine.VerifyPatched(l.lt, h.Current().Engine(), engine.Compile(tree))
	l.r.check(int64(len(l.lt)), err == nil, "patched engine differs from a fresh compile: %v", err)
	err = sim.VerifyImage(tree)
	l.r.check(1, err == nil, "word-patched device image differs from a fresh encode: %v", err)

	// The facade applies the device words lazily, on the next hardware-path
	// use, so its call is reconciled against the other two layers; the
	// deferred part is shown below the waterfall for scale.
	waterfall(stdout,
		fmt.Sprintf("%s control path, medians of %d updates", l.in.w.name, len(updates)), "us/update",
		[]row{
			{"core.Tree.InsertDelta / DeleteDelta", append(inserts, deletes...).median()},
			{"engine.Handle.Apply", applies.median()},
		},
		facadeUpdateUs, "repro.update_us (Accelerator.Insert/Delete)", "facade lock, telemetry, recompile check")
	fmt.Fprintf(stdout, "  %-46s %10.3f  (deferred by the facade to the next hardware-path use)\n", "hwsim.Sim.ApplyDelta", deferred.median())
	return nil
}
