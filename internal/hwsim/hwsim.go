// Package hwsim is a cycle-accurate software model of the paper's packet
// classification hardware accelerator (paper §4, Figures 4 and 5).
//
// The modelled datapath:
//
//   - A 4800-bit wide memory (up to 1024 words on the paper's device)
//     delivering one full word per clock cycle.
//   - Register A holds the decision tree's root node, transferred from
//     memory word 0 in one cycle when Reset is asserted.
//   - Register B latches the incoming packet when Start is asserted while
//     Ready is high; the root child index is computed from registers A
//     and B with the mask/shift/add datapath (no memory access).
//   - Internal-node traversal reads one memory word per cycle; the word's
//     mask/shift header and the packet in register B select the next cut
//     entry combinationally.
//   - When a leaf is reached the packet moves to register C and 30
//     parallel comparators search one memory word of rules per cycle; the
//     Ready pin rises during the compare so the next packet can be
//     latched into register B and its root index precomputed. This
//     overlap hides one cycle per packet — the accelerator classifies one
//     packet per clock when the worst-case path is two cycles.
//
// Because the simulator interprets the encoded memory image (the same
// bits a VHDL implementation would read), its results are checked in
// tests against the analytical Eq. 5/7 predictions of internal/core.
//
// Mapping to paper Figure 4:
//
//	Figure 4 component          -> code
//	Main memory (134 BRAMs)     -> core.Image.Words ([][]byte, 600 B each)
//	Reg A (root node)           -> Sim.regA (core.NodeWord)
//	Reg B (incoming packet)     -> FSM.regB (pipeline.go)
//	Reg C (packet in compare)   -> FSM.regC
//	Mask/shift/add unit         -> core.NodeWord.Index
//	30 comparator blocks        -> core.EncodedRule.MatchesPacket per slot
//	Start/Ready pins            -> FSM.Step arguments / FSM.Ready
//	Write interface             -> Sim.LoadCycles (one word per cycle)
//
// The flow chart of Figure 5 is implemented state-for-state in
// pipeline.go (FSM.Step).
package hwsim

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rule"
)

// Device describes an implementation target of the accelerator. The two
// predefined devices carry the post-place-and-route figures of paper
// Table 5; power values are the normalized (65 nm, 1 V) numbers so energy
// comparisons against the SA-1100 software model are like-for-like.
type Device struct {
	// Name identifies the device.
	Name string
	// FreqHz is the operating clock frequency.
	FreqHz float64
	// PowerW is the normalized average power drawn while classifying.
	PowerW float64
	// IncludesMemory records whether PowerW covers the search-structure
	// memory (true for the FPGA figure, false for ASIC/SA-1100; paper
	// §5.1 notes the asymmetry).
	IncludesMemory bool
	// MemoryWords is the device's search-structure capacity in 4800-bit
	// words; 0 selects the paper's baseline of 1024 (614,400 bytes).
	MemoryWords int
}

// Capacity returns the device's memory capacity in words.
func (d Device) Capacity() int {
	if d.MemoryWords > 0 {
		return d.MemoryWords
	}
	return core.DeviceWords
}

// Predefined devices (paper Table 5).
var (
	// FPGA is the Xilinx Virtex5SX95T implementation: 77 MHz, 1.811 W
	// including block RAM, 3280 slices, 134 block RAMs.
	FPGA = Device{Name: "Virtex5SX95T", FreqHz: 77e6, PowerW: 1.811, IncludesMemory: true}
	// ASIC is the TSMC 65 nm implementation: 226 MHz, 18.32 mW
	// normalized datapath power, 51,488 NAND-equivalent gates.
	ASIC = Device{Name: "ASIC-65nm", FreqHz: 226e6, PowerW: 0.01832}
	// FPGALarge is the paper's §3 scale-up option: "this could easily be
	// doubled to 2048 memory words and implemented on devices such as
	// the Virtex XC5VLX330T which can store up to 1,458,000 bytes"
	// (2430 words). The paper reports no power figure for this part;
	// the SX95T figure is reused here as a lower bound, so energy
	// numbers for this device are indicative only.
	FPGALarge = Device{Name: "VirtexXC5VLX330T", FreqHz: 77e6, PowerW: 1.811,
		IncludesMemory: true, MemoryWords: 1458000 / core.WordBytes}
)

// EnergyPerCycleJ returns the device's energy per clock cycle.
func (d Device) EnergyPerCycleJ() float64 { return d.PowerW / d.FreqHz }

// Sim is an accelerator instance with a loaded search structure.
type Sim struct {
	img *core.Image
	dev Device

	// regA caches the decoded root node (register A).
	regA core.NodeWord

	// loadCycles counts the cycles spent on the write interface so far:
	// the initial full load plus one cycle per word rewritten by
	// ApplyDelta/PatchWords (the paper's §4 update path charges only the
	// dirty words, not a reload).
	loadCycles int64
}

// New loads the encoded image into a simulated accelerator. The load
// models the shared write interface: one word per cycle through the
// write_enable/write_address port.
func New(img *core.Image, dev Device) (*Sim, error) {
	if len(img.Words) == 0 {
		return nil, fmt.Errorf("hwsim: empty image")
	}
	if len(img.Words) > dev.Capacity() {
		return nil, fmt.Errorf("hwsim: image needs %d words; %s holds %d (paper §3 suggests larger parts such as the XC5VLX330T)",
			len(img.Words), dev.Name, dev.Capacity())
	}
	s := &Sim{img: img, dev: dev}
	s.regA = core.LoadNode(img.Words[0]) // Reset: root -> register A
	s.loadCycles = int64(len(img.Words)) + 1
	return s, nil
}

// LoadCycles is the cumulative cycle count of the write interface: the
// initial structure load (one word per cycle plus the root transfer) and
// every word written since by the incremental update path. With deltas
// applied word-by-word, sustained updates charge cycles proportional to
// the words they dirty — not to the structure size.
func (s *Sim) LoadCycles() int64 { return s.loadCycles }

// Image returns the loaded memory image (the simulator's live device
// memory — treat as read-only; use ApplyDelta/PatchWords to modify it).
func (s *Sim) Image() *core.Image { return s.img }

// ApplyDelta replays one or more consecutive update deltas into the
// device memory word-by-word through the write interface: only the words
// the deltas dirtied are rewritten (core.Tree.PatchImage), and
// LoadCycles is charged one cycle per written word. t must be the tree
// the deltas were taken from, in its current (post-update) state; the
// deltas must cover the whole history since the image was last written,
// in order. This is the hardware half of the paper's §4 update story —
// the control-plane processor patches the off-chip copy and pushes just
// the changed words to the accelerator.
//
// On error (the structure outgrew the device, or a delta is invalid for
// this image) the image may hold a partial rewrite; reload with a full
// re-encode, exactly as a real control plane would.
func (s *Sim) ApplyDelta(t *core.Tree, ds ...*core.Delta) (int, error) {
	if t.Words() > s.dev.Capacity() {
		return 0, fmt.Errorf("hwsim: updated structure needs %d words; %s holds %d",
			t.Words(), s.dev.Name, s.dev.Capacity())
	}
	n, err := t.PatchImage(s.img, ds...)
	if err != nil {
		return n, err
	}
	// Internal-node cut headers are invariant under incremental updates,
	// so the cached register A (masks/shifts of word 0) stays valid even
	// when word 0's cut entries were repointed.
	s.loadCycles += int64(n)
	return n, nil
}

// PatchWords rewrites the given memory words from the tree's current
// state, one word per cycle through the write interface. It is the raw
// write port under ApplyDelta, exposed for callers that track dirty
// words themselves. The words must lie within the current image (use
// ApplyDelta when the structure's word count changed).
func (s *Sim) PatchWords(t *core.Tree, words []int) (int, error) {
	if err := t.EncodeWords(s.img, words); err != nil {
		return 0, err
	}
	s.loadCycles += int64(len(words))
	return len(words), nil
}

// VerifyImage cross-checks the (possibly word-patched) device memory
// against a full re-encode of the tree, byte for byte. It is the
// hardware-image analogue of engine.VerifyPatched: the update-churn
// benchmark and the differential tests run it before trusting any number
// produced from a patched image.
func (s *Sim) VerifyImage(t *core.Tree) error {
	fresh, err := t.Encode()
	if err != nil {
		return fmt.Errorf("hwsim: verify re-encode: %w", err)
	}
	if len(fresh.Words) != len(s.img.Words) {
		return fmt.Errorf("hwsim: patched image has %d words, fresh encode %d", len(s.img.Words), len(fresh.Words))
	}
	for i := range fresh.Words {
		if !bytes.Equal(fresh.Words[i], s.img.Words[i]) {
			return fmt.Errorf("hwsim: word %d of patched image differs from fresh encode", i)
		}
	}
	return nil
}

// Result is the outcome of classifying one packet.
type Result struct {
	// Match is the matching rule ID, or -1.
	Match int
	// MemReads is the number of memory words read: internal nodes after
	// the root plus leaf words scanned.
	MemReads int
	// LatencyCycles is the unpipelined latency: one cycle of root-index
	// computation plus one cycle per memory read (Eqs. 5 and 7).
	LatencyCycles int
}

// ClassifyOne runs a single packet through the datapath.
func (s *Sim) ClassifyOne(p rule.Packet) Result {
	res := Result{Match: -1}
	// Cycle 1: root child index from registers A and B.
	entry := core.LoadEntry(s.img.Words[0], s.regA.Index(p))
	// Internal traversal: one word read per cycle.
	for !entry.IsLeaf {
		w := s.img.Words[entry.Word]
		res.MemReads++
		node := core.LoadNode(w)
		entry = core.LoadEntry(w, node.Index(p))
	}
	// Leaf search: one word per cycle, 30 comparators in parallel; the
	// leaf's window runs from the entry position to the end-flagged slot.
	word, pos := entry.Word, entry.Pos
	for {
		w := s.img.Words[word]
		res.MemReads++
		endSeen := false
		for slot := pos; slot < core.RulesPerWord; slot++ {
			er := core.LoadRule(w, slot)
			if er.MatchesPacket(p) {
				res.Match = int(er.ID)
				res.LatencyCycles = res.MemReads + 1
				return res
			}
			if er.End {
				endSeen = true
				break
			}
		}
		if endSeen {
			break
		}
		word++
		pos = 0
	}
	res.LatencyCycles = res.MemReads + 1
	return res
}

// Stats aggregates a trace run.
type Stats struct {
	Packets  int64
	Matched  int64
	MemReads int64
	// Cycles is the total pipelined cycle count for the stream: the
	// reset cycle, the first packet's root cycle, then one cycle per
	// memory read (root computations of later packets overlap the leaf
	// search of their predecessors, paper §4).
	Cycles int64
	// WorstLatency is the largest single-packet latency observed.
	WorstLatency int
	// AvgCyclesPerPacket is the sustained pipelined cost per packet.
	AvgCyclesPerPacket float64
	// PacketsPerSecond is the throughput at the device clock (Table 7).
	PacketsPerSecond float64
	// EnergyPerPacketJ is the average classification energy (Table 6).
	EnergyPerPacketJ float64
	// TotalEnergyJ is energy over the whole stream.
	TotalEnergyJ float64
}

// Add accumulates one classified packet.
func (st *Stats) Add(r Result) {
	st.Packets++
	if r.Match >= 0 {
		st.Matched++
	}
	st.MemReads += int64(r.MemReads)
	if r.LatencyCycles > st.WorstLatency {
		st.WorstLatency = r.LatencyCycles
	}
}

// Finish closes a run of the functional model on dev: the stream costs
// the reset cycle (root -> register A), the first packet's root cycle,
// then one cycle per memory read (see Cycles), and the derived figures
// follow at dev's clock and power.
func (st *Stats) Finish(dev Device) { st.finish(dev, 2+st.MemReads) }

// finish sets the stream's total cycle count and derives the per-packet,
// throughput and energy figures from it.
func (st *Stats) finish(dev Device, cycles int64) {
	st.Cycles = cycles
	if st.Packets > 0 {
		st.AvgCyclesPerPacket = float64(st.Cycles-2) / float64(st.Packets)
		seconds := float64(st.Cycles) / dev.FreqHz
		st.PacketsPerSecond = float64(st.Packets) / seconds
		st.TotalEnergyJ = float64(st.Cycles) * dev.EnergyPerCycleJ()
		st.EnergyPerPacketJ = st.TotalEnergyJ / float64(st.Packets)
	}
}

// Run classifies every packet of trace and returns per-packet matches
// along with aggregate statistics.
func (s *Sim) Run(trace []rule.Packet) ([]int, Stats) {
	matches := make([]int, len(trace))
	var st Stats
	for i, p := range trace {
		r := s.ClassifyOne(p)
		matches[i] = r.Match
		st.Add(r)
	}
	st.Finish(s.dev)
	return matches, st
}

// RunVerified classifies the trace like Run while cross-checking every
// match against the flat software engine handed in — compiled fresh from
// the same tree, or built by a chain of engine.Patch calls from an older
// compile. The simulator interprets the encoded 4800-bit words and the
// engine walks its own flat arrays, so agreement pins the image
// encoding, the simulated datapath and the software fast path (patched
// or fresh) to each other packet by packet. A mismatch aborts with an
// error naming the first divergent packet.
func (s *Sim) RunVerified(trace []rule.Packet, eng *engine.Engine) ([]int, Stats, error) {
	matches, st := s.Run(trace)
	want := make([]int32, len(trace))
	eng.ClassifyBatch(trace, want)
	for i := range trace {
		if int32(matches[i]) != want[i] {
			return matches, st, fmt.Errorf("hwsim: packet %d: simulator matched rule %d, engine matched %d",
				i, matches[i], want[i])
		}
	}
	return matches, st, nil
}

// WorstCaseThroughputPPS returns the guaranteed minimum throughput for a
// structure with the given worst-case cycle count (paper §5.2: the worst
// case also bounds the sustainable rate; the pipeline overlap saves one
// cycle).
func WorstCaseThroughputPPS(dev Device, worstCaseCycles int) float64 {
	eff := worstCaseCycles - 1
	if eff < 1 {
		eff = 1
	}
	return dev.FreqHz / float64(eff)
}

// Device returns the simulated device.
func (s *Sim) Device() Device { return s.dev }
