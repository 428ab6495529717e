// Package tcam models the Ternary CAM alternative the paper compares its
// accelerator against (§1 and §5.3): a Cypress Ayama 10000-series network
// search engine.
//
// Three aspects matter for the paper's claims and are modelled here:
//
//  1. Storage efficiency. TCAM entries hold ternary (value, care-mask)
//     pairs, so port *ranges* must be expanded into prefix blocks; real
//     rulesets therefore use 16-53% of the raw entry capacity (the paper
//     cites [14], average 34%). The expansion implemented here is the
//     standard maximal-aligned-block decomposition.
//  2. Lookup rate. A TCAM matches all entries in parallel in O(1) cycles
//     — the Ayama 10512 performs 133 million 144-bit searches per second
//     at 133 MHz.
//  3. Power. Datasheet figures: 2.9 W for the Ayama 10128 at 77 MHz with
//     576 KB, 19.14 W for the Ayama 10512 at 133 MHz with 2.304 MB, and
//     4.86-19.14 W across the family. A two-parameter linear model fits
//     these points and interpolates other sizes.
package tcam

import (
	"fmt"

	"repro/internal/rule"
)

// Entry is one ternary TCAM entry: per-dimension (value, mask) pairs.
// A packet matches when (field ^ Value) & CareMask == 0 for every field.
type Entry struct {
	RuleID int
	Value  [rule.NumDims]uint32
	Care   [rule.NumDims]uint32
}

// Matches implements the ternary compare of one entry.
func (e *Entry) Matches(p rule.Packet) bool {
	for d := 0; d < rule.NumDims; d++ {
		if (p.Field(d)^e.Value[d])&e.Care[d] != 0 {
			return false
		}
	}
	return true
}

// Model is a TCAM loaded with an expanded ruleset.
type Model struct {
	entries []Entry
}

// ExpansionStats describes the range-to-prefix blow-up of a ruleset.
type ExpansionStats struct {
	Rules   int
	Entries int
	// Efficiency is Rules/Entries: the fraction of TCAM capacity doing
	// useful work (paper cites 16-53% on real databases).
	Efficiency float64
	// WorstRuleEntries is the largest per-rule expansion.
	WorstRuleEntries int
	// Bytes is the TCAM storage consumed: entries x 144-bit slots.
	Bytes int
}

// EntryBits is the search-key width of the modelled device (the Ayama
// performs 144-bit searches; a 5-tuple needs 104 bits and pads to 144).
const EntryBits = 144

// Build expands rs into ternary entries, preserving priority order.
func Build(rs rule.RuleSet) (*Model, ExpansionStats, error) {
	if err := rs.Validate(); err != nil {
		return nil, ExpansionStats{}, fmt.Errorf("tcam: %w", err)
	}
	m := &Model{}
	st := ExpansionStats{Rules: len(rs)}
	for i := range rs {
		n, err := m.addRule(&rs[i])
		if err != nil {
			return nil, st, fmt.Errorf("tcam: rule %d: %w", rs[i].ID, err)
		}
		if n > st.WorstRuleEntries {
			st.WorstRuleEntries = n
		}
	}
	st.Entries = len(m.entries)
	if st.Entries > 0 {
		st.Efficiency = float64(st.Rules) / float64(st.Entries)
	}
	st.Bytes = st.Entries * EntryBits / 8
	return m, st, nil
}

// addRule expands one rule into the cross-product of its per-dimension
// prefix decompositions and appends the entries.
func (m *Model) addRule(r *rule.Rule) (int, error) {
	var perDim [rule.NumDims][]prefixBlock
	for d := 0; d < rule.NumDims; d++ {
		perDim[d] = RangeToPrefixes(r.F[d].Lo, r.F[d].Hi, rule.DimBits[d])
		if len(perDim[d]) == 0 {
			return 0, fmt.Errorf("empty expansion in %s", rule.DimNames[d])
		}
	}
	count := 0
	var rec func(d int, e Entry)
	rec = func(d int, e Entry) {
		if d == rule.NumDims {
			m.entries = append(m.entries, e)
			count++
			return
		}
		for _, b := range perDim[d] {
			e2 := e
			e2.Value[d] = b.value
			e2.Care[d] = b.care
			rec(d+1, e2)
		}
	}
	rec(0, Entry{RuleID: r.ID})
	return count, nil
}

// prefixBlock is one aligned power-of-two block of a range.
type prefixBlock struct {
	value uint32 // block start
	care  uint32 // mask of significant bits
}

// RangeToPrefixes decomposes [lo,hi] within a width-bit field into the
// minimal set of maximal aligned blocks (the classic range-to-prefix
// expansion; a worst-case 16-bit range needs 2*16-2 = 30 blocks).
func RangeToPrefixes(lo, hi uint32, width uint) []prefixBlock {
	var out []prefixBlock
	max := uint64(1)<<width - 1
	cur := uint64(lo)
	end := uint64(hi)
	fullCare := uint32(max)
	for cur <= end {
		// Largest aligned block starting at cur that fits in [cur,end].
		size := uint64(1)
		for {
			next := size << 1
			if cur&(next-1) != 0 { // alignment
				break
			}
			if cur+next-1 > end { // containment
				break
			}
			size = next
		}
		out = append(out, prefixBlock{
			value: uint32(cur),
			care:  fullCare &^ uint32(size-1),
		})
		cur += size
		if cur == 0 { // wrapped past the top of a 32-bit field
			break
		}
	}
	return out
}

// Classify performs one parallel search: the highest-priority (lowest
// rule ID) matching entry wins, as the TCAM's priority encoder would
// select the lowest-address entry of a priority-ordered table.
func (m *Model) Classify(p rule.Packet) int {
	for i := range m.entries {
		if m.entries[i].Matches(p) {
			return m.entries[i].RuleID
		}
	}
	return -1
}

// ---- Device power/throughput model ----

// Device is a TCAM search engine operating point.
type Device struct {
	Name   string
	FreqHz float64
	SizeMB float64
	// SearchesPerSecond is the lookup rate (one search per cycle).
	SearchesPerSecond float64
}

// Ayama devices from the paper's §5.3 comparison.
var (
	// Ayama10128at77 is the operating point the paper compares the FPGA
	// against: 576,000 bytes at 77 MHz consuming 2.9 W.
	Ayama10128at77 = Device{Name: "Ayama 10128 @77MHz", FreqHz: 77e6, SizeMB: 0.576, SearchesPerSecond: 77e6}
	// Ayama10512at133 is the top speed point: 2.304 MB at 133 MHz,
	// 19.14 W, 133 Mpps.
	Ayama10512at133 = Device{Name: "Ayama 10512 @133MHz", FreqHz: 133e6, SizeMB: 2.304, SearchesPerSecond: 133e6}
)

// Power-model coefficients fitted to the two datasheet points above:
// P = base + k * sizeMB * freqMHz.
const (
	powerBaseW     = 0.152
	powerPerMBMHzW = 0.06196
)

// PowerW estimates TCAM power at a given size and frequency.
func PowerW(sizeMB, freqHz float64) float64 {
	return powerBaseW + powerPerMBMHzW*sizeMB*freqHz/1e6
}

// PowerW returns the modelled power of the device.
func (d Device) PowerW() float64 { return PowerW(d.SizeMB, d.FreqHz) }

// EnergyPerSearchJ is the energy of one lookup.
func (d Device) EnergyPerSearchJ() float64 { return d.PowerW() / d.SearchesPerSecond }

// Companion SRAM chips needed by a TCAM-based search engine for the
// associated data (paper §5.3): the accelerator's on-chip memory makes
// these unnecessary, which is part of its power advantage.
const (
	// SRAMCY7C1381DPowerW is the CY7C1381D 2.304 MB SRAM at 133 MHz,
	// 3.3 V: 693 mW.
	SRAMCY7C1381DPowerW = 0.693
	// SRAMCY7C1370DV25PowerW is the CY7C1370DV25 2.304 MB SRAM at
	// 250 MHz, 2.5 V: 875 mW.
	SRAMCY7C1370DV25PowerW = 0.875
)
