package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/rule"
	"repro/internal/stream"
)

// The timed run spends its --seconds on six phases, every one driving the
// public facade. The shares below are of that budget; set-up repetitions and
// the verification pass run outside it.
const (
	shareWire      = 0.175
	shareText      = 0.175
	shareRTT       = 0.05
	shareSim       = 0.20
	shareColdStart = 0.10
	shareChurn     = 0.30
)

const (
	setupReps  = 5
	thinkTime  = time.Millisecond // updater's pause between calls (closed loop), see think
	deleteLag  = 256              // a pool rule is deleted this many inserts after it went in
	cacheEntry = 24               // bytes one flow-cache entry occupies
)

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64
	// scale divides the trace length and the repetition counts; only the
	// smoke test sets it above 1.
	scale int
	// outDir receives the image file of the cold-start phase and the span
	// files of traced runs.
	outDir string
}

func (o options) box(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// passes is the least number of repetitions behind a median.
func (o options) passes(n int) int {
	if o.scale > 1 {
		return 2
	}
	return n
}

// digestSink is where result streams go: it counts and checksums the bytes so
// every timed pass is compared with the verified one.
type digestSink struct {
	n   int64
	crc uint32
}

func (s *digestSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p)
	return len(p), nil
}

// reference is the verified result stream of the whole trace.
type reference struct {
	ids     []int32 // every packet's answer
	digest  digestSink
	batches []digestSink // digest of each BatchSize slice of it
}

// runEndToEnd is the timed, untraced run of one workload.
func runEndToEnd(in *inputs, o options) (*result, error) {
	r := newResult(in.w, o.seed, false)
	a, err := setup(in, o, r)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	ref, err := verify(in, a, r)
	if err != nil {
		return nil, err
	}
	if err := ingest(in, o, r, a, ref); err != nil {
		return nil, err
	}
	simulate(in, o, r, a)
	if err := coldStart(in, o, r, ref); err != nil {
		return nil, err
	}
	churn(in, o, r, a)
	r.complete()
	return r, nil
}

// setup measures what a user pays before the first answer: BuildAccelerator
// (tree build, memory-image encode, device load, engine compile, cache
// allocation) plus the first batch through it. The median of setupReps
// repetitions is reported; the last accelerator is kept for the later phases.
func setup(in *inputs, o options, r *result) (*repro.Accelerator, error) {
	var a *repro.Accelerator
	var s sample
	out := make([]int32, stream.BatchSize)
	for i := 0; i < o.passes(setupReps); i++ {
		if a != nil {
			a.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		a, err = repro.BuildAccelerator(in.rs, in.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.w.name, err)
		}
		a.ClassifyBatch(in.trace[:stream.BatchSize], out)
		s = append(s, time.Since(t0).Seconds())
	}
	r.put("setup_s", s)
	r.putValue("engine_mem_bytes", float64(a.SoftwareEngine().MemoryBytes()+a.CacheStats().Capacity*cacheEntry))
	return a, nil
}

// verify streams the whole trace once in each framing, requires the two result
// streams to be byte-identical and every sampled packet to carry the linear
// oracle's answer, and returns the stream as the reference for timed passes.
// It also warms the cache and every lazily built structure.
func verify(in *inputs, a *repro.Accelerator, r *result) (*reference, error) {
	var wout, tout bytes.Buffer
	for _, f := range []struct {
		data []byte
		out  *bytes.Buffer
	}{{in.wire, &wout}, {in.text, &tout}} {
		n, err := a.ClassifyStream(bytes.NewReader(f.data), f.out)
		if err != nil {
			return nil, fmt.Errorf("%s: verification stream: %w", in.w.name, err)
		}
		r.check(n, n == int64(len(in.trace)), "verification stream classified %d of %d packets", n, len(in.trace))
	}
	r.check(1, bytes.Equal(wout.Bytes(), tout.Bytes()), "wire and text framings gave different result streams")

	out := wout.Bytes()
	ref := &reference{ids: make([]int32, 0, len(in.trace))}
	ref.digest.Write(out)
	for pos, batchStart := 0, 0; pos < len(out); {
		eol := bytes.IndexByte(out[pos:], '\n')
		id, err := strconv.Atoi(string(out[pos : pos+max(eol, 0)]))
		if eol < 0 || err != nil {
			return nil, fmt.Errorf("%s: result stream is malformed at byte %d", in.w.name, pos)
		}
		ref.ids = append(ref.ids, int32(id))
		pos += eol + 1
		if len(ref.ids)%stream.BatchSize == 0 {
			var d digestSink
			d.Write(out[batchStart:pos])
			ref.batches = append(ref.batches, d)
			batchStart = pos
		}
	}
	if len(ref.ids) != len(in.trace) {
		return nil, fmt.Errorf("%s: result stream holds %d answers for %d packets", in.w.name, len(ref.ids), len(in.trace))
	}
	for i, want := range in.oracle {
		got := ref.ids[i*oracleStride]
		r.check(1, got == want, "packet %d: stream answered %d, linear oracle %d", i*oracleStride, got, want)
	}
	return ref, nil
}

// ingest measures bytes-in to bytes-out throughput of ClassifyStream over the
// whole trace in both framings, then the closed-loop round trip of one
// batch-sized stream per call with a single caller.
func ingest(in *inputs, o options, r *result, a *repro.Accelerator, ref *reference) error {
	var streamErr error
	for _, f := range []struct {
		metric string
		data   []byte
		share  float64
	}{{"ingest_wire_mpps", in.wire, shareWire}, {"ingest_text_mpps", in.text, shareText}} {
		runtime.GC()
		src := bytes.NewReader(nil)
		s := timed(o.box(f.share), o.passes(7), func() {
			var sink digestSink
			src.Reset(f.data)
			n, err := a.ClassifyStream(src, &sink)
			if err != nil {
				streamErr = err
			}
			r.check(n, sink == ref.digest, "%s: pass output differs from the verified stream", f.metric)
		})
		if streamErr != nil {
			return fmt.Errorf("%s: %s: %w", in.w.name, f.metric, streamErr)
		}
		r.put(f.metric, s.mpps(len(in.trace)))
	}

	runtime.GC()
	src := bytes.NewReader(nil)
	calls := 0
	s := timed(o.box(shareRTT), o.passes(200), func() {
		k := calls % len(in.batches)
		calls++
		var sink digestSink
		src.Reset(in.batches[k])
		if _, err := a.ClassifyStream(src, &sink); err != nil {
			streamErr = err
		}
		r.check(1, sink == ref.batches[k], "closed-loop call %d: output differs from the verified stream", calls)
	})
	if streamErr != nil {
		return fmt.Errorf("%s: closed-loop stream: %w", in.w.name, streamErr)
	}
	r.put("stream_rtt_p50_us", s.scaled(func(sec float64) float64 { return sec * 1e6 }))
	return nil
}

// simulate runs the paper's product: scattered traffic through the
// cycle-accurate device model. The simulated statistics must repeat exactly
// from pass to pass; only the host time is a measurement.
func simulate(in *inputs, o options, r *result, a *repro.Accelerator) {
	tr := in.simTrace
	var first repro.Stats
	runtime.GC()
	pass := 0
	s := timed(o.box(shareSim), o.passes(5), func() {
		matches, st := a.Run(tr)
		if pass == 0 {
			first = st
			for i := 0; i*oracleStride < len(tr); i++ {
				got, want := matches[i*oracleStride], int(in.simOracle[i])
				r.check(1, got == want, "packet %d: device model answered %d, linear oracle %d", i*oracleStride, got, want)
			}
		}
		pass++
		r.check(int64(len(tr)), st == first, "simulated statistics changed between passes: %+v then %+v", first, st)
	})
	r.put("sim_host_mpps", s.mpps(len(tr)))
	r.putValue("sim_cycles_pkt", first.AvgCyclesPerPacket)
	r.putValue("sim_energy_nj_pkt", first.EnergyPerPacketJ*1e9)
	r.putValue("sim_memory_bytes", float64(a.MemoryBytes()))
}

// coldStart repeats build, save, restore and first batch. build_ms is
// BuildAccelerator alone; restore_ms runs from the restore call until the
// restored replica has answered its first batch, which must equal what the
// built accelerator answered. Each cycle waits for the replica's background
// tree rebuild before the next one starts.
func coldStart(in *inputs, o options, r *result, ref *reference) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "image-"+in.w.name+".pcei")
	defer os.Remove(path)
	restoreCfg := in.cfg
	restoreCfg.RestorePath = path
	out := make([]int32, stream.BatchSize)
	var build, restore sample
	var imageBytes int64
	var cycleErr error
	runtime.GC()
	timed(o.box(shareColdStart), o.passes(7), func() {
		t0 := time.Now()
		b, err := repro.BuildAccelerator(in.rs, in.cfg)
		if err != nil {
			cycleErr = err
			return
		}
		build = append(build, time.Since(t0).Seconds()*1e3)
		f, err := os.Create(path)
		if err != nil {
			cycleErr = err
			return
		}
		n, err := b.SaveImage(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		b.Close()
		if err != nil {
			cycleErr = err
			return
		}
		r.check(1, imageBytes == 0 || n == imageBytes, "image size changed between builds: %d then %d bytes", imageBytes, n)
		imageBytes = n

		t0 = time.Now()
		c, err := repro.BuildAccelerator(in.rs, restoreCfg)
		if err != nil {
			cycleErr = err
			return
		}
		c.ClassifyBatch(in.trace[:stream.BatchSize], out)
		restore = append(restore, time.Since(t0).Seconds()*1e3)
		r.check(stream.BatchSize, slices.Equal(out, ref.ids[:stream.BatchSize]), "restored replica's first batch differs from the built accelerator's")
		c.WaitMaintenance()
		c.Close()
	})
	if cycleErr != nil {
		return fmt.Errorf("%s: cold start: %w", in.w.name, cycleErr)
	}
	r.put("build_ms", build)
	r.put("restore_ms", restore)
	r.putValue("image_bytes", float64(imageBytes))
	return nil
}

// think is the updater's pause between two calls. It busy-waits: after a
// sleep, the first call on a virtual CPU that was just scheduled back in cost
// 8 us more (20 against 12) and moved by 70% with the state of the host, which
// measured the hypervisor and not the update path.
func think() {
	for t0 := time.Now(); time.Since(t0) < thinkTime; {
	}
}

// churn is the control path beside the data path: one updater, closed loop
// with thinkTime between calls, alternates Insert and Delete of pool rules
// while one reader loops ClassifyBatch over the trace. A call is timed from
// call to return, which is after the new epoch is published; the harness then
// requires that the epoch advanced and that a packet inside the touched rule
// gets the linear oracle's answer. Afterwards a fresh linear scan over the
// harness's own copy of the live rules re-verifies what the churn left.
func churn(in *inputs, o options, r *result, a *repro.Accelerator) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var read result // the reader's own counts, merged once it has stopped
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]int32, stream.BatchSize)
		for !stop.Load() {
			for off := 0; off < len(in.trace) && !stop.Load(); off += stream.BatchSize {
				a.ClassifyBatch(in.trace[off:off+stream.BatchSize], out)
				read.Attempted += stream.BatchSize
				// The pool rules have the lowest priority, so a sampled
				// packet keeps its original answer unless it had none.
				for i := 0; i < stream.BatchSize; i += oracleStride {
					want, got := in.oracle[(off+i)/oracleStride], out[i]
					if got != want && !(want == -1 && int(got) >= len(in.rs)) {
						read.fail("reader: packet %d answered %d during churn, linear oracle %d", off+i, got, want)
					}
				}
			}
		}
	}()

	base := len(in.rs)
	first, next := base, base // the inserted rules alive are [first, next)
	probe := make([]rule.Packet, 1)
	got := make([]int32, 1)
	// update times call, then requires a new epoch and, for a packet inside
	// the touched rule, the oracle's answer: the original rule that claims it
	// (poolBase, a linear scan made during set-up), else the oldest inserted
	// rule alive that does. Then the updater thinks.
	update := func(kind string, id int, call func() error) float64 {
		before := a.Epoch()
		t0 := time.Now()
		err := call()
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		r.check(1, err == nil, "%s rule %d: %v", kind, id, err)
		r.check(1, a.Epoch() > before, "%s rule %d: epoch did not advance", kind, id)

		k := (id - base) % len(in.pool)
		probe[0] = corner(&in.pool[k])
		want := in.poolBase[k]
		for j := first; want < 0 && j < next; j++ {
			if in.pool[(j-base)%len(in.pool)].Matches(probe[0]) {
				want = int32(j)
			}
		}
		a.ClassifyBatch(probe, got)
		r.check(1, got[0] == want, "after %s of rule %d a packet inside it answered %d, linear oracle %d", kind, id, got[0], want)
		think()
		return us
	}
	var ins, del sample
	runtime.GC()
	start := time.Now()
	in.updates(deleteLag/o.scale,
		func(int) bool { return len(ins) < o.passes(50) || time.Since(start) < o.box(shareChurn) },
		func(nr rule.Rule) error {
			next = nr.ID + 1
			ins = append(ins, update("insert", nr.ID, func() error { return a.Insert(nr) }))
			return nil
		},
		func(id int) error {
			first = id + 1
			del = append(del, update("delete", id, func() error { return a.Delete(id) }))
			return nil
		})
	elapsed := time.Since(start).Seconds()
	stop.Store(true)
	wg.Wait()
	a.WaitMaintenance()
	r.merge(&read)
	r.put("insert_p50_us", ins)
	r.put("delete_p50_us", del)
	r.putValue("churn_classify_mpps", float64(read.Attempted)/elapsed/1e6)

	r.check(1, a.PatchError() == nil, "patch pipeline fell back to a recompile: %v", a.PatchError())
	r.check(1, a.LoadError() == nil, "device image no longer loads: %v", a.LoadError())
	live := append(rule.RuleSet(nil), in.rs...)
	for id := base; id < next; id++ {
		pr := in.pool[(id-base)%len(in.pool)]
		pr.ID = id
		if id < first {
			pr.F[rule.DimProto] = rule.Range{Lo: 1, Hi: 0} // deleted: matches nothing
		}
		live = append(live, pr)
	}
	const recheck = 2048
	step := max(len(in.trace)/recheck, 1)
	for i := 0; i < len(in.trace); i += step {
		probe[0] = in.trace[i]
		a.ClassifyBatch(probe, got)
		want := int32(live.Match(probe[0]))
		r.check(1, got[0] == want, "after churn packet %d answered %d, linear scan of the live rules %d", i, got[0], want)
	}
}
