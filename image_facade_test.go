package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/image"
	"repro/internal/rule"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Facade-level tests of the engine-image cold-start path (SaveImage /
// Config.RestorePath), the idempotent-Close contract, the scan-kernel
// fallback observability, and the pcap Skipped plumbing.

// classifyAll runs the software batch path over trace.
func classifyAll(a *Accelerator, trace []Packet) []int32 {
	out := make([]int32, len(trace))
	a.ClassifyBatch(trace, out)
	return out
}

func saveImageFile(t *testing.T, a *Accelerator) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SaveImage(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// A restored accelerator must classify identically to the one that
// saved the image — immediately (serving from the restored engine while
// the tree rebuilds) and after the background build reconciles.
func TestSaveImageRestore(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 500, 21)
	if err != nil {
		t.Fatal(err)
	}
	src, err := BuildAccelerator(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := saveImageFile(t, src)
	trace := GenerateTrace(rs, 4096, 22)
	want := classifyAll(src, trace)

	dst, err := BuildAccelerator(rs, Config{RestorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	// Before the background tree build completes the restored engine is
	// already serving; Telemetry must not block on the rebuild either.
	got := classifyAll(dst, trace)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored engine: packet %d classified %d, want %d", i, got[i], want[i])
		}
	}
	_ = dst.Telemetry()

	dst.WaitMaintenance()
	// Fresh build of the same rs: layouts are identical, so the restored
	// engine must still be the serving epoch (no spurious swap).
	if dst.Epoch() != 0 {
		t.Errorf("identical-layout restore swapped epochs: epoch = %d, want 0", dst.Epoch())
	}
	got = classifyAll(dst, trace)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after tree rebuild: packet %d classified %d, want %d", i, got[i], want[i])
		}
	}
	// The control plane is live: updates and the hardware path work.
	extra, err := GenerateRuleset("fw1", 10, 23)
	if err != nil {
		t.Fatal(err)
	}
	for i := range extra {
		extra[i].ID = len(rs) + i
	}
	if err := dst.InsertBatch(extra); err != nil {
		t.Fatalf("InsertBatch on restored accelerator: %v", err)
	}
	if err := src.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	want, got = classifyAll(src, trace), classifyAll(dst, trace)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after post-restore updates: packet %d classified %d, want %d", i, got[i], want[i])
		}
	}
	if m, s := dst.Run(trace[:64]); len(m) != 64 || s.Packets != 64 {
		t.Fatalf("hardware path after restore: %d matches, stats %+v", len(m), s)
	}
	if dst.Words() == 0 || dst.MemoryBytes() == 0 {
		t.Error("tree metrics zero after the background rebuild finished")
	}
}

// A snapshot taken after churn restores to a layout the fresh build does
// not produce: the reconcile must swap the compiled engine in, and
// classification must agree with the source throughout.
func TestSaveImageRestoreAfterChurn(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 400, 31)
	if err != nil {
		t.Fatal(err)
	}
	src, err := BuildAccelerator(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	src.threshold = -1
	defer src.Close()
	pool, err := GenerateRuleset("ipc1", 60, 32)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append(RuleSet{}, rs...), pool...)
	for i := range pool {
		pool[i].ID = len(rs) + i
		if err := src.Insert(pool[i]); err != nil {
			t.Fatal(err)
		}
	}
	path := saveImageFile(t, src)
	trace := GenerateTrace(full, 4096, 33)
	want := classifyAll(src, trace)

	for i := range full {
		full[i].ID = i
	}
	dst, err := BuildAccelerator(full, Config{RestorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	dst.mu.Lock()
	dst.threshold = -1
	dst.mu.Unlock()
	defer dst.Close()
	got := classifyAll(dst, trace) // pre-reconcile: the churned image serves
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("churned restore (pre-reconcile): packet %d = %d, want %d", i, got[i], want[i])
		}
	}
	dst.WaitMaintenance()
	if dst.Epoch() == 0 {
		t.Error("churned snapshot vs fresh build: expected a reconcile swap, epoch still 0")
	}
	got = classifyAll(dst, trace)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("churned restore (post-reconcile): packet %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// Whatever layout an image carried, one Recompile after the restore lands
// the accelerator on the engine a fresh build of the same ruleset
// compiles — nothing of the image (or of its re-derived bank) survives
// into the recompiled layout.
func TestRestoreThenRecompileMatchesFreshBuild(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 400, 51)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	dst, err := BuildAccelerator(rs, Config{Algorithm: HyperCuts, RestorePath: saveImageFile(t, fresh)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	dst.Recompile() // waits for the background rebuild
	if dst.Epoch() != 1 {
		t.Fatalf("epoch %d after restore + one Recompile, want 1", dst.Epoch())
	}
	if !dst.handle.Current().Engine().LayoutEqual(fresh.handle.Current().Engine()) {
		t.Fatal("restore + Recompile: engine layout differs from a fresh build's")
	}
}

// Restore must fail closed — missing file, corrupt image — with a typed
// error from the image layer where applicable.
func TestRestoreFailsClosedFacade(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 200, 41)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildAccelerator(rs, Config{RestorePath: filepath.Join(t.TempDir(), "absent.img")}); err == nil {
		t.Fatal("restore from a missing file succeeded")
	}
	src, err := BuildAccelerator(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := saveImageFile(t, src)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	bad := filepath.Join(t.TempDir(), "bad.img")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = BuildAccelerator(rs, Config{RestorePath: bad})
	if err == nil {
		t.Fatal("restore of a corrupt image succeeded")
	}
	var fe *image.FormatError
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("restore error %q does not name the image path", err)
	}
	if !errors.As(err, &fe) {
		t.Errorf("restore error %T is not a *image.FormatError", err)
	}
}

// The third rung: a restored image whose control-plane rebuild fails (rs
// carries a duplicate rule ID, which core.Build rejects) keeps serving
// from the restored engine on every path, fails updates closed with the
// rebuild's error, reports no tree quantities, and never blocks
// telemetry or Close.
func TestRestoreTreeRebuildFails(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 300, 81)
	if err != nil {
		t.Fatal(err)
	}
	src, err := BuildAccelerator(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := saveImageFile(t, src)
	trace := GenerateTrace(rs, 1024, 82)
	want := classifyAll(src, trace)

	bad := append(RuleSet{}, rs...)
	bad[1].ID = bad[0].ID
	a, err := BuildAccelerator(bad, Config{RestorePath: path, TelemetryAddr: "127.0.0.1:0", CacheSize: 64})
	if err != nil {
		t.Fatalf("restore with an unbuildable ruleset must still serve the image: %v", err)
	}
	// The data plane serves the image whether or not the rebuild is done.
	var in, out bytes.Buffer
	if err := rule.WriteTrace(&in, trace); err != nil {
		t.Fatal(err)
	}
	if n, err := a.ClassifyStream(&in, &out); err != nil || n != int64(len(trace)) {
		t.Fatalf("ClassifyStream = %d, %v", n, err)
	}
	lines := strings.Fields(out.String())
	for i, got := range classifyAll(a, trace) {
		if got != want[i] || lines[i] != strconv.Itoa(int(want[i])) {
			t.Fatalf("packet %d: batch %d, stream %s, want %d", i, got, lines[i], want[i])
		}
	}

	a.WaitMaintenance()
	r := rs[0]
	r.ID = len(rs)
	for name, err := range map[string]error{
		"Insert":      a.Insert(r),
		"Delete":      a.Delete(0),
		"InsertBatch": a.InsertBatch([]Rule{r}),
		"DeleteBatch": a.DeleteBatch([]int{0, 1}),
	} {
		if err == nil || !strings.Contains(err.Error(), "duplicate ID") {
			t.Errorf("%s on a tree-less accelerator: %v, want the rebuild error", name, err)
		}
	}
	if a.Epoch() != 0 {
		t.Errorf("epoch %d: a failed update published", a.Epoch())
	}
	// The hardware-model methods come down to the restored engine.
	matches, st := a.Run(trace)
	if st.Packets != int64(len(trace)) || st.Cycles != 0 || st.EnergyPerPacketJ != 0 {
		t.Errorf("Run stats without a tree: %+v", st)
	}
	for i, p := range trace {
		m, lat, reads := a.ClassifyDetailed(p)
		if got := a.Classify(p); got != int(want[i]) || m != got || matches[i] != got || lat != 0 || reads != 0 {
			t.Fatalf("packet %d: Classify %d, Detailed (%d,%d,%d), Run %d, want %d", i, got, m, lat, reads, matches[i], want[i])
		}
	}
	if a.MemoryBytes() != 0 || a.Words() != 0 || a.WorstCaseCycles() != 0 ||
		a.GuaranteedPPS() != 0 || a.Degradation() != 0 || a.DeviceWriteCycles() != 0 {
		t.Error("tree quantities nonzero without a tree")
	}
	if err := a.LoadError(); err == nil || !strings.Contains(err.Error(), "duplicate ID") {
		t.Errorf("LoadError = %v, want the rebuild error", err)
	}
	a.Recompile() // no tree: a no-op
	if snap := a.Telemetry(); snap.Recompiles != 0 || snap.Degradation != 0 || snap.Epoch != 0 {
		t.Errorf("telemetry without a tree: recompiles %d, degradation %v, epoch %d", snap.Recompiles, snap.Degradation, snap.Epoch)
	}
	resp, err := http.Get("http://" + a.TelemetryAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "repro_tree_") {
			t.Errorf("scrape carries a tree sample without a tree: %s", line)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// Close must be idempotent and safe against concurrent classification,
// in-flight background recompiles, and telemetry scrapes. Run with
// -race this also shakes out the maint.Add-vs-Wait ordering.
func TestCloseIdempotentConcurrent(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 400, 51)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildAccelerator(rs, Config{
		TelemetryAddr: "127.0.0.1:0",
		CacheSize:     1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.threshold = 0.01 // trip background recompiles eagerly
	addr := a.TelemetryAddr()
	trace := GenerateTrace(rs, 512, 52)
	out := make([]int32, len(trace))

	var wg sync.WaitGroup
	start := make(chan struct{})
	// Classification keeps running across Close (documented as valid).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			mine := make([]int32, len(trace))
			for i := 0; i < 50; i++ {
				a.ClassifyBatch(trace, mine)
				_ = a.Telemetry()
			}
		}()
	}
	// Churn that trips the recompile trigger (publishLocked) while Close runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		pool, err := GenerateRuleset("fw1", 40, 53)
		if err != nil {
			return
		}
		for i := range pool {
			pool[i].ID = len(rs) + i
			if a.Insert(pool[i]) != nil {
				return
			}
		}
	}()
	// Scrapes racing the server shutdown: errors are expected once the
	// listener dies, data races are not.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// The contract under test: many concurrent Closes, one result.
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = a.Close()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, e := range errs {
		if e != errs[0] {
			t.Errorf("Close call %d returned %v, call 0 returned %v", i, e, errs[0])
		}
	}
	if err := a.Close(); err != errs[0] {
		t.Errorf("post-race Close returned %v, want the original %v", err, errs[0])
	}
	// Still serving after Close, per the documented contract.
	a.ClassifyBatch(trace, out)
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("telemetry listener still serving after Close")
	}
}

// An unsatisfiable REPRO_SCAN_KERNEL must keep working (silent-continue)
// but leave a visible trail: the fallback counter on /metrics and a
// kernel_fallback flight-recorder event. The env override is resolved at
// process init, so the scenario runs in a child test process.
func TestKernelFallbackTelemetry(t *testing.T) {
	if os.Getenv("REPRO_KERNEL_FALLBACK_CHILD") == "1" {
		runKernelFallbackChild(t)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate test binary: %v", err)
	}
	cmd := exec.Command(exe, "-test.run", "TestKernelFallbackTelemetry$", "-test.v")
	cmd.Env = append(os.Environ(),
		"REPRO_KERNEL_FALLBACK_CHILD=1",
		"REPRO_SCAN_KERNEL=definitely-not-a-kernel",
	)
	outb, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process failed: %v\n%s", err, outb)
	}
	if !bytes.Contains(outb, []byte("PASS")) {
		t.Fatalf("child did not pass:\n%s", outb)
	}
	// The degrade is logged once at init (satellite contract: observable,
	// not silent).
	if !bytes.Contains(outb, []byte("not satisfiable")) {
		t.Errorf("child stderr lacks the one-time fallback log:\n%s", outb)
	}
}

func runKernelFallbackChild(t *testing.T) {
	if engine.KernelFallback() == "" {
		t.Fatal("engine.KernelFallback() empty despite bogus REPRO_SCAN_KERNEL")
	}
	rs, err := GenerateRuleset("acl1", 100, 61)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildAccelerator(rs, Config{TelemetryAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("silent-continue broken: BuildAccelerator failed under bogus override: %v", err)
	}
	defer a.Close()
	// Classification still works on the probed default kernel.
	_ = a.SoftwareEngine().Classify(GenerateTrace(rs, 1, 62)[0])
	found := false
	for _, e := range a.TelemetryEvents() {
		if e.Kind == telemetry.EvKernelFallback {
			found = true
		}
	}
	if !found {
		t.Error("no kernel_fallback event in the flight recorder")
	}
	resp, err := http.Get("http://" + a.TelemetryAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("repro_scan_kernel_fallbacks_total 1")) {
		t.Errorf("/metrics lacks repro_scan_kernel_fallbacks_total 1:\n%s", body)
	}
}

// appendGarbagePcapRecords appends n syntactically valid pcap records
// whose frames are not parseable IPv4-over-Ethernet (an ARP ethertype
// and a truncated runt, alternating) — they must be Skipped, not errors.
func appendGarbagePcapRecords(buf *bytes.Buffer, n int) {
	for i := 0; i < n; i++ {
		var frame []byte
		if i%2 == 0 {
			frame = make([]byte, 40)
			binary.BigEndian.PutUint16(frame[12:14], 0x0806) // ARP
		} else {
			frame = []byte{0x02, 0x02, 0x02, 0x02, 0x02} // runt: shorter than an Ethernet header
		}
		var rec [16]byte
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
		buf.Write(rec[:])
		buf.Write(frame)
	}
}

// A mixed valid/garbage capture: the facade stream stats must report
// exactly the undeliverable records as Skipped and classify the rest.
func TestClassifyStreamPcapSkipped(t *testing.T) {
	rs, err := GenerateRuleset("acl1", 300, 71)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildAccelerator(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	trace := GenerateTrace(rs, 600, 72)
	for i := range trace {
		if trace[i].Proto != 6 && trace[i].Proto != 17 {
			trace[i].Proto = 6 // pcap framing zeroes ports for other protocols
		}
	}
	var capture bytes.Buffer
	if err := wire.WritePcap(&capture, trace); err != nil {
		t.Fatal(err)
	}
	const garbage = 37
	appendGarbagePcapRecords(&capture, garbage)
	// Interleave a second valid tail after the garbage, so Skipped is
	// counted mid-stream, not just at EOF.
	if err := writePcapRecordsOnly(&capture, trace[:100]); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	st, err := a.ClassifyStreamStats(bytes.NewReader(capture.Bytes()), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Binary {
		t.Error("pcap capture not detected as binary framing")
	}
	if want := int64(len(trace) + 100); st.Packets != want {
		t.Fatalf("stream delivered %d packets, want %d", st.Packets, want)
	}
	if st.Skipped != garbage {
		t.Fatalf("StreamStats.Skipped = %d, want %d", st.Skipped, garbage)
	}
	if lines := bytes.Count(out.Bytes(), []byte{'\n'}); int64(lines) != st.Packets {
		t.Fatalf("output has %d lines for %d packets", lines, st.Packets)
	}
}

// writePcapRecordsOnly emits pcap records without a global header, for
// appending to an existing capture.
func writePcapRecordsOnly(w *bytes.Buffer, trace []rule.Packet) error {
	var full bytes.Buffer
	if err := wire.WritePcap(&full, trace); err != nil {
		return err
	}
	_, err := w.Write(full.Bytes()[24:])
	return err
}
