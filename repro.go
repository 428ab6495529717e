// Package repro is the public API of this reproduction of "Energy
// Efficient Packet Classification Hardware Accelerator" (Kennedy, Wang &
// Liu, IPDPS/IPPS 2008).
//
// It provides a small facade over the internal packages:
//
//   - generate ClassBench-style rulesets and packet traces
//     (GenerateRuleset, GenerateTrace);
//   - build the paper's modified HiCuts/HyperCuts search structure and
//     run it on the cycle-accurate accelerator model (BuildAccelerator,
//     Accelerator.Classify / Run);
//   - update the ruleset live (Accelerator.Insert / Delete, batched as
//     one epoch via InsertBatch / DeleteBatch) while software
//     classification keeps running at full rate on lock-free epoch
//     snapshots (SoftwareEngine, ClassifyStream), with
//     degradation-triggered background recompaction;
//   - serve repeated flows from a sharded epoch-invalidated flow cache
//     (Config.CacheSize, CacheStats) that keeps cached answers
//     packet-exact under live updates;
//   - compare against the software baselines the paper uses
//     (NewSoftwareBaseline);
//   - regenerate every evaluation table (WriteAllTables).
//
// An Accelerator keeps the paper's §4 machines apart. The data plane
// (ClassifyBatch, ClassifyStream, SoftwareEngine, SaveImage, telemetry)
// reads lock-free epoch snapshots and never waits for anything. The
// control plane (updates, recompiles, the tree getters) serializes on one
// mutex around the off-chip tree copy. The device model
// (repro_device.go) is what the control plane pushes dirty words into and
// what Classify and Run answer from. See examples/ and DESIGN.md §6.
package repro

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flowcache"
	"repro/internal/hicuts"
	"repro/internal/hwsim"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/rule"
	"repro/internal/sa1100"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Re-exported primitive types.
type (
	// Packet is a 5-tuple packet header.
	Packet = rule.Packet
	// Rule is one classification rule.
	Rule = rule.Rule
	// RuleSet is a priority-ordered rule list.
	RuleSet = rule.RuleSet
	// Range is a closed interval within one header dimension.
	Range = rule.Range
)

// Algorithm selects the decision-tree algorithm.
type Algorithm = core.Algorithm

// Algorithm values.
const (
	HiCuts    = core.HiCuts
	HyperCuts = core.HyperCuts
)

// Target selects the simulated implementation technology.
type Target int

// Implementation targets with the paper's Table 5 operating points.
const (
	// TargetASIC is the 65 nm ASIC at 226 MHz.
	TargetASIC Target = iota
	// TargetFPGA is the Virtex5SX95T at 77 MHz.
	TargetFPGA
)

// GenerateRuleset produces an n-rule synthetic filter set in the style of
// the ClassBench seed named by profile: "acl1", "fw1" or "ipc1".
func GenerateRuleset(profile string, n int, seed int64) (RuleSet, error) {
	p, err := classbench.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	return classbench.Generate(p, n, seed), nil
}

// GenerateTrace produces an n-packet header trace for rs (mostly packets
// matching rules, with Zipf-skewed rule popularity).
func GenerateTrace(rs RuleSet, n int, seed int64) []Packet {
	return classbench.GenerateTrace(rs, n, seed)
}

// GenerateFlowTrace produces an n-packet trace with flow-level temporal
// locality: `flows` distinct 5-tuples arriving as packet trains of mean
// length `burst` with Zipf-skewed flow popularity (the traffic shape the
// flow cache exploits; see Config.CacheSize). flows <= 0 and burst <= 0
// select defaults.
func GenerateFlowTrace(rs RuleSet, n, flows, burst int, seed int64) []Packet {
	return classbench.GenerateFlowTrace(rs, n, flows, burst, seed)
}

// Config tunes the accelerator build.
type Config struct {
	// Algorithm is HiCuts or HyperCuts. The zero value is HiCuts; name
	// HyperCuts (the paper's best performer after modification)
	// explicitly for large rulesets — acl1 at 10k rules fits the
	// 1024-word ASIC under HyperCuts but not under HiCuts.
	Algorithm Algorithm
	// Binth and Spfac follow the paper (§3); zero values select the
	// defaults used in its tables (binth 120, spfac 4).
	Binth, Spfac int
	// CompactLeaves selects the paper's speed=0 leaf packing (fully
	// contiguous, most memory-efficient). The default is speed=1,
	// which the paper's tables use.
	CompactLeaves bool
	// Target picks the simulated device (default ASIC).
	Target Target
	// CacheSize, when positive, puts a sharded exact-match flow cache
	// of (at least) that many entries in front of the software
	// classification paths (Classify, ClassifyBatch, ClassifyStream):
	// repeated 5-tuples cost one lock-free hash probe instead of a tree
	// walk. Entries are stamped with the update epoch, so results stay
	// packet-exact under live Insert/Delete — every update invalidates
	// by epoch, and stale entries fall through to the tree and
	// repopulate. While batch and stream traffic shows no flow locality
	// the cache bypasses itself, so a packet costs the tree walk and
	// nothing on top, and resumes when flows return (CacheStats.Bypassed,
	// DESIGN.md §7). 0 disables caching.
	CacheSize int
	// RestorePath, when non-empty, boots the accelerator from a
	// serialized engine image (Accelerator.SaveImage) instead of waiting
	// for a build: the image is validated (checksums, version, every
	// structural invariant) and published as a serving epoch immediately
	// — orders of magnitude faster than compiling rs — while the
	// control-plane tree is rebuilt from rs in the background. Updates
	// and the hardware-model paths wait for that rebuild; software
	// classification (ClassifyBatch, ClassifyStream) serves from the
	// restored image throughout. The simulated device memory is
	// re-derived lazily on first hardware-path use, exactly as after a
	// recompile. rs must be the ruleset the image reflects (including
	// any churn since its build); restore fails closed with a typed
	// error on a corrupt, truncated or version-skewed image. See
	// DESIGN.md §13.
	RestorePath string
	// TelemetryAddr, when non-empty, serves the accelerator's telemetry
	// plane over HTTP on that host:port (":0" picks a free port — read
	// it back with Accelerator.TelemetryAddr): Prometheus text-format
	// metrics on /metrics, the flight-recorder event ring on
	// /debug/events, and the standard pprof handlers on /debug/pprof/.
	// Telemetry itself (counters, latency histograms, the flight
	// recorder behind Accelerator.Telemetry) is always on — it is
	// engineered to cost nothing measurable — so this flag only
	// controls the HTTP exposition. See DESIGN.md §12.
	TelemetryAddr string
}

// DefaultRecompileThreshold is the default update-degradation level that
// triggers a background recompile: once a quarter of the leaf table is
// overgrown or orphaned (or the engine arenas are a quarter garbage),
// folding the patches into a fresh image costs less than carrying them.
const DefaultRecompileThreshold = 0.25

// Accelerator is a built search structure loaded into the simulated
// hardware classifier, together with the live-updatable software engine.
// All methods are safe for concurrent use, by three owners (paper §4):
// the data plane classifies on lock-free epoch snapshots and never takes
// mu; the control plane patches the tree, replays each delta onto the
// engine as the next epoch, and recompacts in the background once
// degradation or arena garbage passes DefaultRecompileThreshold; the
// device model receives the dirty words lazily (see DeviceWriteCycles).
type Accelerator struct {
	// Data plane: lock-free, never waits for a tree. tel is the always-on
	// telemetry plane every layer emits into; telSrv its optional HTTP
	// exposition (Config.TelemetryAddr).
	handle *engine.Handle
	tel    *telemetry.Recorder
	telSrv *telemetry.Server

	// Control plane: mu guards everything from here to closed (dev.hw is
	// immutable). tree is nil on a restored accelerator
	// (Config.RestorePath) until the background rebuild installs it —
	// treeReady is closed then — or for good if that rebuild failed with
	// treeErr.
	mu        sync.Mutex
	tree      *core.Tree
	treeReady chan struct{}
	treeErr   error
	dev       device  // the device model; see repro_device.go
	patchErr  error   // last engine.Patch failure (sticky; see PatchError)
	threshold float64 // recompile trigger level; negative disables it
	// degFloor is the degradation measured right after the last
	// recompile: the part Relayout+Compile cannot reclaim (leaves grown
	// past Binth need a re-cut, i.e. a fresh BuildAccelerator). The
	// auto-trigger fires on drift above this floor, not the absolute
	// level, so irreducible overgrowth cannot cause recompile-per-update.
	degFloor float64
	// closed stops new background maintenance once Close has begun;
	// closeOnce/closeErr make Close idempotent and safe to race with
	// itself.
	closed    bool
	closeOnce sync.Once
	closeErr  error

	maint       sync.WaitGroup // in-flight background recompiles and rebuilds
	recompiling atomic.Bool
}

// coreConfig maps the facade Config onto the tree builder's knobs.
func coreConfig(cfg Config) core.Config {
	ccfg := core.DefaultConfig(cfg.Algorithm)
	if cfg.Binth > 0 {
		ccfg.Binth = cfg.Binth
	}
	if cfg.Spfac > 0 {
		ccfg.Spfac = cfg.Spfac
	}
	ccfg.Speed = 1
	if cfg.CompactLeaves {
		ccfg.Speed = 0
	}
	return ccfg
}

func (cfg Config) device() hwsim.Device {
	if cfg.Target == TargetFPGA {
		return hwsim.FPGA
	}
	return hwsim.ASIC
}

// newAccelerator wires a published engine and a device model into an
// accelerator with the flow cache and the always-on telemetry plane (and
// its optional HTTP exposition) attached. The once-per-process
// scan-kernel fallback (an unsatisfiable REPRO_SCAN_KERNEL override that
// silently degraded to the probed default) becomes countable here: one
// counter tick and one flight-recorder event per accelerator, so
// dashboards see the degrade even though classification continued.
func newAccelerator(h *engine.Handle, sim *hwsim.Sim, cfg Config) (*Accelerator, error) {
	a := &Accelerator{handle: h, tel: telemetry.New(), threshold: DefaultRecompileThreshold}
	a.dev = device{hw: cfg.device(), sim: sim, onWrite: func(cycles, fullLoad int64) {
		a.tel.Events.Record(telemetry.EvDeviceWrite, h.Current().Epoch(), cycles, fullLoad, 0)
	}}
	if cfg.CacheSize > 0 {
		h.EnableCache(cfg.CacheSize)
	}
	h.SetTelemetry(a.tel)
	if msg := engine.KernelFallback(); msg != "" {
		a.tel.KernelFallbacks.Inc()
		a.tel.Events.Record(telemetry.EvKernelFallback, 0, 0, 0, 0)
	}
	a.tel.RegisterCollector(a.collectScrape)
	if cfg.TelemetryAddr != "" {
		srv, err := telemetry.Serve(cfg.TelemetryAddr, a.tel)
		if err != nil {
			return nil, fmt.Errorf("repro: telemetry listener: %w", err)
		}
		a.telSrv = srv
	}
	return a, nil
}

// installTree makes t the control-plane tree and records its build; the
// caller holds mu (a scrape may already be reading).
func (a *Accelerator) installTree(t *core.Tree) {
	a.tree = t
	a.tel.BuildNs.Observe(t.BuildNanos())
	a.tel.Events.Record(telemetry.EvBuild, a.handle.Current().Epoch(),
		t.BuildNanos(), int64(t.NumRules()), int64(t.Words()))
}

// BuildAccelerator constructs the modified decision tree for rs, encodes
// it into 4800-bit memory words, and loads it into a simulated device.
// With Config.RestorePath set it instead restores a serialized engine
// image and serves immediately while the tree rebuilds in the background.
func BuildAccelerator(rs RuleSet, cfg Config) (*Accelerator, error) {
	ccfg := coreConfig(cfg)
	if cfg.RestorePath != "" {
		return restoreAccelerator(rs, cfg, ccfg)
	}
	tree, err := core.Build(rs, ccfg)
	if err != nil {
		return nil, err
	}
	img, err := tree.Encode()
	if err != nil {
		return nil, fmt.Errorf("repro: structure built (%d words) but not encodable: %w", tree.Words(), err)
	}
	sim, err := hwsim.New(img, cfg.device())
	if err != nil {
		return nil, err
	}
	a, err := newAccelerator(engine.NewHandle(engine.Compile(tree)), sim, cfg)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.installTree(tree)
	a.mu.Unlock()
	return a, nil
}

// restoreAccelerator boots from a serialized engine image: the restored
// engine is validated and published before this returns — a serving
// epoch in microseconds instead of a build — while the control-plane
// tree, which the image deliberately does not carry, is rebuilt from rs
// as background maintenance. Once ready, the tree's compiled layout is
// reconciled against what is serving: if the snapshot carried post-build
// churn the layouts differ, and the compiled engine is swapped in as the
// next epoch so subsequent delta patches address the layout they are
// derived from. Readers never stall either way. The simulated device
// memory is loaded lazily on first hardware-path use, exactly as after a
// recompile.
func restoreAccelerator(rs RuleSet, cfg Config, ccfg core.Config) (*Accelerator, error) {
	data, err := os.ReadFile(cfg.RestorePath)
	if err != nil {
		return nil, fmt.Errorf("repro: restore image: %w", err)
	}
	h, err := engine.RestoreBytes(data)
	if err != nil {
		return nil, fmt.Errorf("repro: restore image %s: %w", cfg.RestorePath, err)
	}
	a, err := newAccelerator(h, nil, cfg)
	if err != nil {
		return nil, err
	}
	a.treeReady = make(chan struct{})
	a.maint.Add(1)
	go func() {
		defer a.maint.Done()
		tree, err := core.Build(rs, ccfg)
		a.mu.Lock()
		defer a.mu.Unlock()
		defer close(a.treeReady)
		if err != nil {
			a.treeErr = fmt.Errorf("repro: control-plane rebuild after restore: %w", err)
			return
		}
		if compiled := engine.Compile(tree); !h.Current().Engine().LayoutEqual(compiled) {
			h.Swap(compiled)
		}
		a.installTree(tree)
	}()
	return a, nil
}

// lockTree is the one way into the control plane: it takes mu and returns
// the tree, or nil and the reason there is none — a restore's background
// rebuild failed (treeErr) or, when wait is false, is still running (nil
// error). The caller unlocks mu.
func (a *Accelerator) lockTree(wait bool) (*core.Tree, error) {
	if wait && a.treeReady != nil {
		<-a.treeReady
	}
	a.mu.Lock()
	return a.tree, a.treeErr
}

// onTree runs f on the control-plane tree under mu, or not at all when
// there is no tree (see lockTree).
func (a *Accelerator) onTree(wait bool, f func(*core.Tree)) {
	t, _ := a.lockTree(wait)
	defer a.mu.Unlock()
	if t != nil {
		f(t)
	}
}

// hardware enters the control plane for a hardware-model method: the tree
// is waited for, mu is held on return, and the device memory is brought
// up to date with every applied update. The error is the device's load
// error, or the rebuild's when there is no tree to load.
func (a *Accelerator) hardware() (*core.Tree, error) {
	t, err := a.lockTree(true)
	if t != nil {
		err = a.dev.sync(t)
	}
	return t, err
}

// SaveImage serializes the current epoch's engine — the search structure:
// flat arenas, leaf table, rule-ID pool, rule table and metadata; the
// comparator bank is re-derived on restore — into the versioned,
// checksummed image format of internal/image, written to w.
// The blob is everything BuildAccelerator needs, via Config.RestorePath,
// to publish a serving epoch without rebuilding (see DESIGN.md §13); a
// restored replica then catches up by replaying the same delta stream
// through the normal update path. SaveImage captures one epoch snapshot;
// concurrent updates land in later epochs and do not tear it.
func (a *Accelerator) SaveImage(w io.Writer) (int64, error) {
	return a.handle.Current().Engine().Snapshot(w)
}

// collectScrape contributes the scrape-time /metrics samples whose live
// state is owned elsewhere: the flow cache's own atomic counters and the
// mutex-guarded tree quantities. It runs only while an exposition is
// rendered, so taking a.mu here costs the data plane nothing.
func (a *Accelerator) collectScrape(emit func(name string, value float64)) {
	if c := a.handle.Cache(); c != nil {
		st := c.Stats()
		emit("repro_cache_hits_total", float64(st.Hits))
		emit("repro_cache_misses_total", float64(st.Misses))
		emit("repro_cache_bypassed_total", float64(st.Bypassed))
		emit("repro_cache_stale_evictions_total", float64(st.StaleEvictions))
		emit("repro_cache_evictions_total", float64(st.Evictions))
		emit("repro_cache_inserts_total", float64(st.Inserts))
		emit("repro_cache_live_entries", float64(st.Occupied))
		bypassing := 0.0
		if st.Bypassing {
			bypassing = 1
		}
		emit("repro_cache_bypass_active", bypassing)
	}
	// A scrape must never block on the restore-path tree rebuild: skip
	// the tree samples until the tree exists.
	if h := a.treeHealth(); h.ok {
		emit("repro_tree_degradation", h.degradation)
		emit("repro_tree_orphan_leaves", float64(h.orphans))
		emit("repro_tree_words", float64(h.words))
	}
}

// treeHealth is the tree's structural gauges as Telemetry and a scrape
// report them; ok is false while there is no tree. It never waits for a
// restore's rebuild.
type treeHealth struct {
	degradation    float64
	orphans, words int
	ok             bool
}

func (a *Accelerator) treeHealth() (h treeHealth) {
	a.onTree(false, func(t *core.Tree) {
		h = treeHealth{t.Degradation(), t.Orphans(), t.Words(), true}
	})
	return h
}

// Classify returns the highest-priority matching rule ID for p, or -1,
// classifying on the simulated hardware datapath. If updates have grown
// the structure past what the device memory can hold (see LoadError),
// the logical tree answers instead — matches stay exact.
//
// With Config.CacheSize set, the flow cache is consulted first: a
// repeated 5-tuple skips both the accelerator lock and the hardware
// walk. Entries are epoch-stamped, so cached answers are always exactly
// what the current structure would return. This path ignores the
// cache's admission mode (a miss here is a device-model walk under the
// accelerator lock, far above that mode's break-even): every lookup is a
// hit or a miss in CacheStats.
func (a *Accelerator) Classify(p Packet) int {
	c := a.handle.Cache()
	if c != nil {
		if rid, ok := c.Lookup(p, a.handle.Current().Epoch()); ok {
			return int(rid)
		}
	}
	r, epoch := a.classifyHardware(p)
	if c != nil {
		c.Insert(p, epoch, int32(r.Match))
	}
	return r.Match
}

// classifyHardware answers one packet from the device model under mu,
// with the epoch the answer is valid for: under mu the tree cannot
// change, so the current epoch is exactly the state the answer is
// computed from — safe to stamp a cache entry with.
func (a *Accelerator) classifyHardware(p Packet) (hwsim.Result, uint64) {
	t, _ := a.hardware()
	defer a.mu.Unlock()
	s := a.handle.Current()
	return a.dev.classify(t, s.Engine(), p), s.Epoch()
}

// ClassifyBatch classifies pkts[i] into out[i] on the software fast path
// (the current epoch's flat engine), through the flow cache when
// Config.CacheSize is set. It performs zero allocations; out must be at
// least as long as pkts. Safe for concurrent use, including during
// Insert/Delete — each batch observes one consistent epoch.
func (a *Accelerator) ClassifyBatch(pkts []Packet, out []int32) {
	a.handle.ClassifyBatchCached(pkts, out)
}

// CacheStats reports the flow cache's counters (hits, misses, bypassed,
// stale evictions, occupancy) and its admission mode. The zero value is
// returned when caching is disabled.
func (a *Accelerator) CacheStats() CacheStats {
	if c := a.handle.Cache(); c != nil {
		return c.Stats()
	}
	return CacheStats{}
}

// CacheStats is the flow cache's counter snapshot; see
// internal/flowcache.Stats for field semantics.
type CacheStats = flowcache.Stats

// ClassifyDetailed additionally reports the lookup's latency in clock
// cycles and memory reads. When the device image is unloadable (see
// LoadError) the analytical Eq. 5/7 walk supplies the cycle counts.
func (a *Accelerator) ClassifyDetailed(p Packet) (match, latencyCycles, memReads int) {
	r, _ := a.classifyHardware(p)
	return r.Match, r.LatencyCycles, r.MemReads
}

// Stats summarizes a trace run on the accelerator.
type Stats = hwsim.Stats

// Run classifies a whole trace, returning per-packet matches and
// aggregate throughput/energy statistics. The device is locked for the
// duration (one stream per device, as in hardware); use ClassifyStream
// for software classification concurrent with updates. When the device
// image is unloadable (see LoadError) the matches come from the logical
// tree and the statistics from the analytical Eq. 5/7 walk — the same
// quantities the simulator is tested against.
func (a *Accelerator) Run(trace []Packet) ([]int, Stats) {
	t, _ := a.hardware()
	defer a.mu.Unlock()
	return a.dev.run(t, a.handle.Current().Engine(), trace)
}

// MemoryBytes is the search-structure size (words x 600 bytes).
func (a *Accelerator) MemoryBytes() (n int) {
	a.onTree(true, func(t *core.Tree) { n = t.MemoryBytes() })
	return n
}

// Words is the number of 4800-bit memory words used (device holds 1024).
func (a *Accelerator) Words() (n int) {
	a.onTree(true, func(t *core.Tree) { n = t.Words() })
	return n
}

// WorstCaseCycles is the guaranteed per-packet bound (Tables 4 and 8).
func (a *Accelerator) WorstCaseCycles() (n int) {
	a.onTree(true, func(t *core.Tree) { n = t.WorstCaseCycles() })
	return n
}

// GuaranteedPPS is the worst-case sustained throughput: the pipeline
// overlap hides one cycle (paper §4).
func (a *Accelerator) GuaranteedPPS() (pps float64) {
	a.onTree(true, func(t *core.Tree) {
		pps = hwsim.WorstCaseThroughputPPS(a.dev.hw, t.WorstCaseCycles())
	})
	return pps
}

// DeviceName names the simulated implementation target.
func (a *Accelerator) DeviceName() string { return a.dev.hw.Name }

// Insert adds a rule at the lowest priority (ID must equal the current
// rule count), modelling the paper's §4 control-plane update path: the
// off-chip copy of the structure absorbs the change, the resulting delta
// is patched onto the flat software image as the next lock-free epoch
// (no recompile — readers keep classifying throughout), and the
// simulated device memory is patched lazily on its next use — word by
// word through the write interface, charging only the dirty words. Safe
// for concurrent use; updates serialize against each other.
func (a *Accelerator) Insert(r Rule) error { return a.InsertBatch([]Rule{r}) }

// Delete removes a rule by ID; see Insert for the update path.
func (a *Accelerator) Delete(id int) error { return a.DeleteBatch([]int{id}) }

// InsertBatch adds a burst of rules (IDs must consecutively extend the
// current rule count) and publishes them as one epoch: the deltas are
// coalesced into a single copy-on-write patch (engine.Handle.ApplyBatch),
// so a BGP-style storm of control-plane updates costs one snapshot
// publication — and one flow-cache invalidation — instead of one per
// rule. Rules are validated against the tree one by one; on a mid-batch
// error the already-absorbed prefix is still published (exactly, never
// lost) and the error reports the failing rule.
func (a *Accelerator) InsertBatch(rules []Rule) error {
	return a.update("insert", len(rules), func(t *core.Tree, i int) (*core.Delta, error) {
		return t.InsertDelta(rules[i])
	})
}

// DeleteBatch removes a burst of rules by ID as one epoch; see
// InsertBatch for the coalescing semantics.
func (a *Accelerator) DeleteBatch(ids []int) error {
	return a.update("delete", len(ids), func(t *core.Tree, i int) (*core.Delta, error) {
		return t.DeleteDelta(ids[i])
	})
}

// update is the one body of the four update methods (Insert and Delete
// are a burst of one): the tree absorbs the burst change by change —
// step(t, i) applies the i-th — and the deltas it absorbed are replayed
// onto the engine snapshot chain as one epoch, queued for the device, and
// weighed against the recompile trigger. The tree has already changed by
// the time the engine is patched, so a patch failure must not leave the
// published engine diverged from it: the fallback is an inline full
// recompile, which resynchronizes unconditionally. The updates
// themselves therefore still succeed, but the failure is recorded — it
// means updates are paying recompile cost, the exact degradation this
// pipeline exists to avoid — and PatchError surfaces it.
func (a *Accelerator) update(op string, n int, step func(t *core.Tree, i int) (*core.Delta, error)) error {
	t, err := a.lockTree(true)
	defer a.mu.Unlock()
	if err != nil {
		return err
	}
	ds := make([]*core.Delta, 0, n)
	for i := 0; i < n; i++ {
		var d *core.Delta
		if d, err = step(t, i); err != nil {
			if n > 1 {
				err = fmt.Errorf("repro: batch %s %d: %w", op, i, err)
			}
			break
		}
		ds = append(ds, d)
	}
	a.publishLocked(t, ds) // a mid-burst error still publishes the absorbed prefix
	return err
}

// publishLocked is update's second half: the deltas the tree absorbed
// become the next epoch, reach the device queue, and may trip a recompile.
func (a *Accelerator) publishLocked(t *core.Tree, ds []*core.Delta) {
	if len(ds) == 0 {
		return
	}
	// Flight-record the tree-side absorption (the patch/publish that
	// follows records its own events in the handle), and refresh the
	// degradation gauge the updates just moved. Degradation is O(leaves):
	// taken once, it serves the gauge, the trigger and the trip event.
	var dirty, edits int
	for _, d := range ds {
		dirty += d.DirtyWordCount()
		edits += len(d.LeafEdits)
	}
	a.tel.Events.Record(telemetry.EvDeltaApply, a.handle.Current().Epoch(),
		int64(dirty), int64(len(ds)), int64(edits))
	deg := t.Degradation()
	a.tel.DegradationPPM.Set(int64(deg * 1e6))
	s, err := a.handle.ApplyBatch(ds)
	if err != nil {
		a.patchErr = fmt.Errorf("repro: batch delta patch failed (updates applied via full recompile): %w", err)
		a.recompileLocked(t)
		return
	}
	a.dev.queue(ds)
	// One background rebuild starts when the engine arenas have
	// accumulated too much patch garbage, or the tree has degraded a
	// further threshold's worth beyond what the last recompile could
	// reclaim (degFloor — overgrown leaves survive Relayout; only a fresh
	// BuildAccelerator re-cuts them).
	garbage := s.Engine().GarbageRatio()
	if a.threshold < 0 || a.closed || deg < a.degFloor+a.threshold && garbage < a.threshold {
		return
	}
	if !a.recompiling.CompareAndSwap(false, true) {
		return // one rebuild in flight is enough
	}
	a.tel.DegradTrips.Inc()
	a.tel.Events.Record(telemetry.EvDegradationTrip, s.Epoch(),
		int64(deg*1e6), int64(garbage*1e6), int64((a.degFloor+a.threshold)*1e6))
	a.maint.Add(1)
	go func() {
		defer a.maint.Done()
		defer a.recompiling.Store(false)
		a.Recompile()
	}()
}

// PatchError reports the most recent failure of the incremental patch
// pipeline, or nil. A non-nil value means some Insert/Delete could not
// be replayed as a delta and fell back to a full recompile — results
// stayed correct and consistent, but updates paid recompile cost.
// Monitor it like LoadError; it is cleared only by rebuilding the
// Accelerator, since a patch failure indicates a delta-protocol bug
// worth reporting.
func (a *Accelerator) PatchError() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.patchErr
}

// Degradation reports how far incremental updates have pushed the
// structure from its built quality (the fraction of leaf-table entries
// overgrown or orphaned — see core.Tree.Degradation). It is the signal
// the auto-recompile trigger compares against DefaultRecompileThreshold;
// surface it in dashboards to watch update churn.
func (a *Accelerator) Degradation() (deg float64) {
	a.onTree(true, func(t *core.Tree) { deg = t.Degradation() })
	return deg
}

// Epoch returns the software image's current epoch: 0 at build,
// incremented by every applied update and recompile swap.
func (a *Accelerator) Epoch() uint64 { return a.handle.Current().Epoch() }

// TelemetryEvent is one flight-recorder record: a classification-plane
// lifecycle transition (epoch publish, degradation trip, recompile,
// cache-invalidation wave, device write, ...) with a monotonic timestamp
// and kind-specific payload words. See internal/telemetry.Event and the
// EventKind constants for the schema.
type TelemetryEvent = telemetry.Event

// TelemetrySnapshot is a point-in-time view of the accelerator's
// telemetry plane: the lifetime data-plane and control-plane counters,
// the structural health gauges, classify-latency quantiles, the flow
// cache's counters, and the retained flight-recorder events
// (oldest-first). All quantities are internally consistent to within
// in-flight updates; Telemetry() takes no data-plane locks.
type TelemetrySnapshot struct {
	// Epoch is the newest published engine epoch.
	Epoch uint64
	// Packets and Batches count classifications through the engine
	// handle's batch paths (ClassifyBatch, ClassifyStream).
	Packets, Batches uint64
	// EpochPublishes counts snapshot publications (patches + swaps);
	// DeltasApplied the tree deltas replayed onto the engine;
	// PatchFailures the deltas that fell back to a full recompile.
	EpochPublishes, DeltasApplied, PatchFailures uint64
	// Recompiles counts completed rebuild/swap cycles and
	// DegradationTrips the threshold crossings that triggered them.
	Recompiles, DegradationTrips uint64
	// CacheInvalidations counts flow-cache invalidation waves (epoch
	// bumps with a cache attached).
	CacheInvalidations uint64
	// GarbageRatio is the published engine's arena-garbage fraction;
	// Degradation and Orphans mirror Accelerator.Degradation and the
	// tree's orphaned-leaf count.
	GarbageRatio, Degradation float64
	Orphans                   int
	// SnapshotAgeNs is how long ago the newest epoch was published
	// (monotonic nanoseconds; the age of what readers classify on).
	SnapshotAgeNs int64
	// ClassifyP50Ns and ClassifyP99Ns are per-batch classify-latency
	// quantile estimates (log2-bucket resolution; 0 until a batch ran).
	ClassifyP50Ns, ClassifyP99Ns int64
	// Cache is the flow cache's counter snapshot (zero value when
	// caching is disabled).
	Cache CacheStats
	// Events is the flight recorder's retained history, oldest-first;
	// EventsDropped is how many older events wraparound discarded.
	Events        []TelemetryEvent
	EventsDropped uint64
}

// Telemetry snapshots the accelerator's always-on telemetry plane. It is
// cheap (atomic loads plus one copy of the event ring) and safe to call
// at any rate from monitoring loops; the same data serves the HTTP
// exposition enabled by Config.TelemetryAddr.
func (a *Accelerator) Telemetry() TelemetrySnapshot {
	t, health := a.tel, a.treeHealth() // zero while a restore's tree rebuild runs
	s := TelemetrySnapshot{
		Epoch:              a.handle.Current().Epoch(),
		Packets:            t.Packets.Load(),
		Batches:            t.Batches.Load(),
		EpochPublishes:     t.Epochs.Load(),
		DeltasApplied:      t.Deltas.Load(),
		PatchFailures:      t.PatchFails.Load(),
		Recompiles:         t.Recompiles.Load(),
		DegradationTrips:   t.DegradTrips.Load(),
		CacheInvalidations: t.CacheInv.Load(),
		GarbageRatio:       float64(t.GarbagePPM.Load()) / 1e6,
		Degradation:        health.degradation,
		Orphans:            health.orphans,
		SnapshotAgeNs:      t.NowNanos() - t.LastPublishNs.Load(),
		Cache:              a.CacheStats(),
		Events:             t.Events.Snapshot(),
		EventsDropped:      t.Events.Dropped(),
	}
	if hs := t.ClassifyNs.Snapshot(); hs.Count > 0 {
		s.ClassifyP50Ns = int64(hs.Quantile(0.50))
		s.ClassifyP99Ns = int64(hs.Quantile(0.99))
	}
	return s
}

// TelemetryEvents returns the flight recorder's retained events,
// oldest-first — Telemetry().Events without the counter snapshot.
func (a *Accelerator) TelemetryEvents() []TelemetryEvent {
	return a.tel.Events.Snapshot()
}

// TelemetryAddr returns the listen address of the telemetry HTTP plane —
// useful with Config.TelemetryAddr ":0" — or "" when no server was
// started.
func (a *Accelerator) TelemetryAddr() string {
	if a.telSrv == nil {
		return ""
	}
	return a.telSrv.Addr()
}

// Close waits for in-flight background maintenance (recompiles, a
// restore's tree rebuild) and shuts down the telemetry HTTP server if
// Config.TelemetryAddr started one. It is idempotent and safe to call
// concurrently — with itself, with classification, and with a telemetry
// scrape; every call returns the first call's result. The accelerator
// itself needs no teardown; classifying after Close is still valid (only
// the HTTP exposition is gone).
func (a *Accelerator) Close() error {
	a.closeOnce.Do(func() {
		// Refuse new background recompiles first (under mu), so maint
		// cannot grow from zero concurrently with the Wait below.
		a.mu.Lock()
		a.closed = true
		a.mu.Unlock()
		a.maint.Wait()
		if a.telSrv != nil {
			a.closeErr = a.telSrv.Close()
		}
	})
	return a.closeErr
}

// LoadError reports whether the last lazy device-memory rewrite failed —
// typically because updates grew the structure past the device's word
// capacity. Software classification is unaffected; the hardware-model
// methods fall back to exact logical-tree answers. A recompile (or
// explicit Recompile) clears the condition if the compacted structure
// fits again.
func (a *Accelerator) LoadError() error {
	_, err := a.hardware()
	defer a.mu.Unlock()
	return err
}

// Recompile folds all accumulated update patches into a fresh structure:
// the tree is re-laid-out (compacting orphaned leaves), recompiled, and
// swapped in as the next epoch. Readers never stall — they classify on
// the previous epoch until the swap lands. Updates arriving during the
// rebuild wait for it (the control plane serializes; the data plane does
// not).
func (a *Accelerator) Recompile() {
	a.onTree(true, a.recompileLocked)
}

func (a *Accelerator) recompileLocked(t *core.Tree) {
	start := time.Now()
	a.tel.Events.Record(telemetry.EvRecompileStart, a.handle.Current().Epoch(),
		int64(t.Degradation()*1e6), int64(t.Orphans()), 0)
	t.Relayout()
	s := a.handle.Swap(engine.Compile(t))
	// Relayout moves leaf indices and word numbers, so queued deltas
	// are invalid for the device image: full load on next use.
	a.dev.invalidate()
	a.degFloor = t.Degradation()
	ns := int64(time.Since(start))
	a.tel.Recompiles.Inc()
	a.tel.RecompileNs.Observe(ns)
	a.tel.DegradationPPM.Set(int64(a.degFloor * 1e6))
	a.tel.Events.Record(telemetry.EvRecompileDone, s.Epoch(),
		ns, int64(t.Words()), int64(a.degFloor*1e6))
}

// WaitMaintenance blocks until background recompiles in flight have
// finished. Useful in tests and orderly shutdown; normal operation never
// needs it.
func (a *Accelerator) WaitMaintenance() { a.maint.Wait() }

// DeviceWriteCycles reports the cumulative cycles the simulated device's
// write interface has spent: every structure load (including full
// re-encodes after recompiles) plus one cycle per word rewritten by the
// incremental update path (hwsim §4 model). Updates applied since the
// last hardware-path use may still be queued; this flushes them first,
// so the figure reflects every applied update.
func (a *Accelerator) DeviceWriteCycles() int64 {
	a.hardware()
	defer a.mu.Unlock()
	return a.dev.writeCycles()
}

// Engine is the flat software classification engine: the accelerator's
// search structure compiled into contiguous pointer-free arrays (see
// internal/engine). Classify and ClassifyBatch allocate nothing per
// packet; all methods are safe for concurrent use. The engine is one
// epoch's immutable snapshot — updates applied through the accelerator
// afterwards do not change it; call SoftwareEngine again (or use
// ClassifyStream, which follows epochs automatically) to observe them.
type Engine struct {
	e *engine.Engine
}

// SoftwareEngine returns the current epoch's flat host-CPU engine, the
// production software fast path. It is an O(1) snapshot capture, not a
// recompile.
func (a *Accelerator) SoftwareEngine() *Engine {
	return &Engine{e: a.handle.Current().Engine()}
}

// StreamBatch is the number of packets ClassifyStream classifies per
// engine-shard dispatch (and the granularity at which it observes
// concurrent rule updates).
const StreamBatch = stream.BatchSize

// StreamStats reports what a finished ClassifyStream run did: packets
// delivered, pipeline batches dispatched, the approximate heap
// allocations the stream performed (steady-state binary ingest stays
// far below one per packet), and whether binary framing was detected.
// See internal/stream.Stats for field semantics.
type StreamStats = stream.Stats

// ClassifyStream reads a packet trace from r and writes one matched rule
// ID per line to w, returning the number of packets classified. The
// input framing is auto-detected from its first bytes:
//
//   - the binary wire format (internal/wire, pcgen -binary): fixed-width
//     20-byte records framed for zero-copy batch decoding — the line-rate
//     ingest path, no per-packet parsing or allocation;
//   - a pcap capture (pcgen -pcap or real captures): Ethernet/IPv4
//     5-tuples are extracted, non-IPv4 records are skipped;
//   - otherwise the text trace format of WriteTrace (five tab-separated
//     decimal fields per line, '#' comments tolerated), kept as a
//     compatibility shim over the same batch pipeline.
//
// Packets flow through a ring-buffered three-stage pipeline (decode →
// classify → write) in batches of StreamBatch, classified across all
// cores through the flow cache when Config.CacheSize is set, with
// per-core result buffers so output serialization never stalls the
// classify workers. Each batch captures the newest epoch snapshot, so a
// stream served concurrently with Insert/Delete keeps running at full
// rate — updates land between batches, never mid-batch, and never stall
// the stream (the lock-free snapshot handle is the only coupling).
func (a *Accelerator) ClassifyStream(r io.Reader, w io.Writer) (int64, error) {
	st, err := a.ClassifyStreamStats(r, w)
	return st.Packets, err
}

// ClassifyStreamStats is ClassifyStream returning the full stream
// observables (packets, batches, allocations, detected framing) so
// ingest regressions are measurable in production and in tests.
func (a *Accelerator) ClassifyStreamStats(r io.Reader, w io.Writer) (StreamStats, error) {
	return stream.Run(a.handle, r, w)
}

// Classify returns the highest-priority matching rule ID for p, or -1.
func (e *Engine) Classify(p Packet) int { return e.e.Classify(p) }

// ClassifyBatch classifies pkts[i] into out[i] with zero allocations; out
// must be at least as long as pkts.
func (e *Engine) ClassifyBatch(pkts []Packet, out []int32) { e.e.ClassifyBatch(pkts, out) }

// ParallelClassify shards the batch over up to workers goroutines
// (workers <= 0 selects GOMAXPROCS).
func (e *Engine) ParallelClassify(pkts []Packet, out []int32, workers int) {
	e.e.ParallelClassify(pkts, out, workers)
}

// MemoryBytes is the engine's flat-image footprint.
func (e *Engine) MemoryBytes() int { return e.e.MemoryBytes() }

// SoftwareBaseline is one of the paper's software comparison points
// running on the modelled StrongARM SA-1100.
type SoftwareBaseline struct {
	name string
	c    sa1100.TracedClassifier
}

// NewSoftwareBaseline builds a software classifier: "hicuts", "hypercuts"
// or "linear".
func NewSoftwareBaseline(kind string, rs RuleSet) (*SoftwareBaseline, error) {
	switch kind {
	case "hicuts":
		t, err := hicuts.Build(rs, hicuts.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return &SoftwareBaseline{kind, t}, nil
	case "hypercuts":
		t, err := hypercuts.Build(rs, hypercuts.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return &SoftwareBaseline{kind, t}, nil
	case "linear":
		return &SoftwareBaseline{kind, linear.New(rs)}, nil
	}
	return nil, fmt.Errorf("repro: unknown baseline %q (want hicuts, hypercuts or linear)", kind)
}

// Name returns the baseline's kind.
func (s *SoftwareBaseline) Name() string { return s.name }

// Classify returns the matching rule ID or -1.
func (s *SoftwareBaseline) Classify(p Packet) int {
	m, _ := s.c.ClassifyTraced(p, nil)
	return m
}

// Measure runs the trace on the SA-1100 cost model, returning throughput
// and energy statistics comparable with Accelerator.Run.
func (s *SoftwareBaseline) Measure(trace []Packet) sa1100.ClassStats {
	return sa1100.MeasureClassification(s.c, trace, sa1100.DefaultCosts())
}

// WriteAllTables regenerates every evaluation table of the paper (Tables
// 2-8 plus the §5.2/§5.3 headline claims) and writes them to w. Options
// zero value uses the paper's sizes; see internal/bench for knobs.
func WriteAllTables(w io.Writer, opts bench.Options) error {
	rows, err := bench.RunACL1(opts)
	if err != nil {
		return err
	}
	for _, t := range []*bench.Table{
		bench.Table2(rows), bench.Table3(rows), bench.Table5(),
		bench.Table6(rows), bench.Table7(rows), bench.Table8(rows),
	} {
		if _, err := fmt.Fprintln(w, t.Format()); err != nil {
			return err
		}
	}
	t4, err := bench.RunTable4(opts)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, bench.Table4(t4).Format()); err != nil {
		return err
	}
	cl, err := bench.RunClaims(opts)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, bench.ClaimsTable(cl).Format())
	return err
}
