// Package core implements the paper's primary contribution: the
// hardware-oriented modifications of the HiCuts and HyperCuts algorithms
// (paper §3) and the memory-image layout consumed by the hardware
// accelerator (paper §4).
//
// Differences from the original software algorithms:
//
//   - Region compaction and pushing common rule subsets upwards are
//     removed (they need division hardware / slow down traversal).
//   - Cuts are restricted to the 8 most significant bits of each of the
//     five dimensions so a child index is computed with per-dimension
//     8-bit mask and shift values followed by an add — one clock cycle.
//   - The number of cuts np at an internal node is 32, 64, 128 or 256:
//     HiCuts starts at 32 and doubles while Eq. 3 holds (space measure
//     permits and np < 129); HyperCuts considers all combinations of
//     per-dimension power-of-two cut counts with 32 <= np <= 2^(4+spfac)
//     (Eq. 4).
//   - Actual rules (160 bits each) are stored in leaf nodes rather than
//     pointers, 30 rules per 4800-bit memory word, searchable in one
//     clock cycle by 30 parallel comparators.
//   - Nodes are rearranged after the build: all internal nodes first,
//     then leaf storage; the speed parameter selects between fully
//     contiguous leaf packing (speed 0, Eq. 5 cycle cost) and
//     word-boundary-respecting packing (speed 1, Eq. 6 constraint and
//     Eq. 7 cycle cost).
package core

import (
	"fmt"
	"runtime"

	"repro/internal/rule"
)

// Hardware geometry constants (paper §3 and §4).
const (
	// WordBits is the width of one memory word.
	WordBits = 4800
	// WordBytes is WordBits in bytes.
	WordBytes = WordBits / 8
	// RuleBits is the storage of one rule in a leaf.
	RuleBits = 160
	// RulesPerWord is the number of rules one memory word holds and the
	// number of parallel comparators in the accelerator.
	RulesPerWord = WordBits / RuleBits
	// MinCuts is the starting cut count of the modified algorithms.
	MinCuts = 32
	// MaxCuts is the cap on cuts at one internal node; 256 cut entries
	// of 18 bits plus the per-dimension mask/shift bytes fit in one
	// memory word.
	MaxCuts = 256
	// PointerBits is the width of the memory-word index inside a cut
	// entry ("up to 12 bits depending on number of memory words").
	PointerBits = 12
	// PosBits addresses a rule start position within a word (0..29).
	PosBits = 5
	// DeviceWords is the memory capacity of the accelerator as sized in
	// the paper: 1024 words of 600 bytes = 614,400 bytes.
	DeviceWords = 1024
	// DeviceBytes is the accelerator's total search-structure memory.
	DeviceBytes = DeviceWords * WordBytes
)

// Algorithm selects which modified algorithm builds the tree.
type Algorithm int

const (
	// HiCuts cuts one dimension per internal node (modified per Eq. 3).
	HiCuts Algorithm = iota
	// HyperCuts cuts multiple dimensions per internal node (Eq. 4).
	HyperCuts
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case HiCuts:
		return "HiCuts"
	case HyperCuts:
		return "HyperCuts"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Config holds build parameters for the modified algorithms.
type Config struct {
	// Algorithm selects HiCuts or HyperCuts.
	Algorithm Algorithm
	// Binth is the leaf threshold. Defaults to DefaultBinth (120 = four
	// memory words): the parallel comparators search 30 rules per cycle,
	// so multi-word leaves are cheap, and larger leaves keep rules that
	// no top-8-bit cut can separate (wildcards, wide ranges) inside one
	// leaf instead of replicating them across half-empty children. The
	// paper's worst-case access counts (Tables 4 and 8: 2-8 cycles,
	// i.e. multi-word leaf scans) imply a threshold of this order.
	Binth int
	// Spfac is the space factor; the paper's tables use 4 and Eq. 4
	// admits 1..4 for HyperCuts.
	Spfac int
	// Speed is the paper's speed parameter (0 or 1): 0 packs leaves
	// fully contiguously (most memory-efficient, Eq. 5 cycles); 1 starts
	// a leaf in a word only if it fits there entirely (Eq. 6), trading
	// storage for throughput (Eq. 7).
	Speed int
	// StartCuts overrides the 32-cut starting point (ablation; 0 = 32).
	StartCuts int
	// CutCap overrides the 256-cut cap (ablation; 0 = 256). Values
	// above 256 are rejected: the word format cannot address more.
	CutCap int
	// MaxDepth bounds recursion (0 = 64).
	MaxDepth int
	// Workers bounds the build's worker pool: child subtrees fan out
	// over up to Workers goroutines (0 = GOMAXPROCS, 1 = fully
	// sequential). The parallel build is deterministic — it produces a
	// tree identical in structure, layout and statistics to Workers=1,
	// because every subtree's cut decisions depend only on its own rule
	// list and region prefix.
	Workers int
	// LeafPointers stores 4-byte rule pointers in leaves instead of full
	// rules (ablation of the rules-in-leaf modification; costs one extra
	// cycle per packet in the simulator as the rule fetch becomes a
	// dependent memory access).
	LeafPointers bool
}

// DefaultBinth is the default leaf threshold (four memory words).
const DefaultBinth = 4 * RulesPerWord

// DefaultConfig returns the configuration used for the paper's tables:
// spfac 4, speed 1, binth 120 (see Config.Binth for why the hardware
// wants leaves measured in words rather than rules).
func DefaultConfig(a Algorithm) Config {
	return Config{Algorithm: a, Binth: DefaultBinth, Spfac: 4, Speed: 1}
}

func (c *Config) sanitize() error {
	if c.Binth <= 0 {
		c.Binth = DefaultBinth
	}
	if c.Spfac <= 0 {
		c.Spfac = 4
	}
	if c.Spfac > 4 && c.Algorithm == HyperCuts {
		return fmt.Errorf("core: HyperCuts spfac must be 1..4 (Eq. 4), got %d", c.Spfac)
	}
	if c.Speed != 0 && c.Speed != 1 {
		return fmt.Errorf("core: speed must be 0 or 1, got %d", c.Speed)
	}
	if c.StartCuts == 0 {
		c.StartCuts = MinCuts
	}
	if c.StartCuts < 2 || c.StartCuts&(c.StartCuts-1) != 0 {
		return fmt.Errorf("core: StartCuts must be a power of two >= 2, got %d", c.StartCuts)
	}
	if c.CutCap == 0 {
		c.CutCap = MaxCuts
	}
	if c.CutCap > MaxCuts || c.CutCap < c.StartCuts || c.CutCap&(c.CutCap-1) != 0 {
		return fmt.Errorf("core: CutCap must be a power of two in [%d,%d], got %d", c.StartCuts, MaxCuts, c.CutCap)
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// DimCut describes the cut of one dimension at an internal node.
type DimCut struct {
	// Dim is the dimension index.
	Dim int
	// Bits is log2 of the cut count in this dimension.
	Bits int
	// Mask is the 8-bit mask the hardware ANDs with the top 8 bits of
	// the packet's field.
	Mask uint8
	// Shift aligns the masked bits at their weight in the child index;
	// positive values shift right, negative shift left (the hardware
	// uses a barrel shifter and a direction, stored here as a sign).
	Shift int8
}

// Node is one logical node of the modified decision tree.
type Node struct {
	// Leaf marks rule-carrying terminal nodes.
	Leaf bool
	// Rules lists the leaf's rule IDs in priority order.
	Rules []int32
	// Cuts describes the cut dimensions (internal nodes).
	Cuts []DimCut
	// Children has one entry per cut combination (length = product of
	// per-dimension cut counts); nil entries are empty regions.
	Children []*Node

	// Word and Pos locate the node in the laid-out memory image: an
	// internal node occupies all of word Word (Pos 0); a leaf's rules
	// start at rule slot Pos of word Word.
	Word, Pos int

	// prefixLen is the number of top-8 bits fixed per dimension on the
	// path from the root (the node's region), needed to compute masks.
	prefixLen [rule.NumDims]int
}

// BuildStats counts construction work; the SA-1100 model converts it to
// build energy (paper Table 3, "Hardware" columns — the modified structure
// is still built in software and then loaded into the accelerator).
type BuildStats struct {
	Nodes           int
	Internal        int
	Leaves          int // distinct leaves after merging
	MaxDepth        int
	CutEvaluations  int64
	RuleChildOps    int64
	RulePushes      int64
	ReplicatedRules int64 // rule slots stored in leaf memory
	OverflowLeaves  int   // leaves holding more than Binth rules (uncuttable)
}

// Tree is a built, laid-out hardware search structure.
type Tree struct {
	Root *Node

	cfg   Config
	rules rule.RuleSet
	stats BuildStats

	words     int     // memory words used (including word 0 = root)
	leafOrder []*Node // distinct leaves in layout order
	internals []*Node // internal nodes in layout order (root first)

	// Leaf identity bookkeeping for the incremental-update delta path:
	// leafIndex maps a leaf to its stable position in leafOrder (the
	// compiled image's leaf table); leafRefs counts the child slots
	// referencing each leaf, so copy-on-write unsharing knows when an
	// original becomes orphaned. Rebuilt by layout(), maintained by
	// InsertDelta/DeleteDelta.
	leafIndex map[*Node]int
	leafRefs  map[*Node]int
	orphans   int // leafOrder entries with zero references

	// occ is the rule→leaves occupancy index: for every live rule ID,
	// the set of live leaf-table indices whose rule lists contain it.
	// It lets DeleteDelta resolve the affected leaves by lookup instead
	// of scanning every live leaf (O(occupied leaves), not O(table)).
	// Rebuilt by layout(), maintained by InsertDelta/DeleteDelta;
	// orphaned leaves are removed the moment they lose their last
	// reference, so the index never lists dead storage.
	occ map[int32]map[int32]struct{}

	// leafParents maps each live leaf to the internal words referencing
	// it (word → referencing-slot count). An internal word's cut
	// entries embed the (Word, Pos) of leaf children, so when the
	// incremental repack moves a leaf, exactly these words become dirty
	// in the encoded image. Rebuilt by layout(), maintained by the
	// copy-on-write repointing in InsertDelta.
	leafParents map[*Node]map[int]int

	// buildNanos is the wall-clock duration of the whole Build (cutting
	// + layout), for the telemetry plane. Kept out of BuildStats, which
	// must stay identical between sequential and parallel builds.
	buildNanos int64
}

// BuildNanos reports the wall-clock duration of the Build call that
// produced this tree, in nanoseconds.
func (t *Tree) BuildNanos() int64 { return t.buildNanos }

// Stats returns build statistics.
func (t *Tree) Stats() BuildStats { return t.stats }

// Rules returns the ruleset the tree classifies.
func (t *Tree) Rules() rule.RuleSet { return t.rules }

// Words returns the number of 4800-bit memory words the structure uses.
func (t *Tree) Words() int { return t.words }

// MemoryBytes returns the search-structure size in bytes (paper Tables 2
// and 4 hardware columns): words used times 600 bytes.
func (t *Tree) MemoryBytes() int { return t.words * WordBytes }

// FitsDevice reports whether the structure fits the paper's 1024-word
// accelerator memory.
func (t *Tree) FitsDevice() bool { return t.words <= DeviceWords }

// Depth returns the maximum tree depth (root = 0).
func (t *Tree) Depth() int { return t.stats.MaxDepth }

// NumRules returns the ruleset size.
func (t *Tree) NumRules() int { return len(t.rules) }
