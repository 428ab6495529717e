package hwsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rule"
)

// This file implements the accelerator as an explicit cycle-stepped
// finite-state machine with Start/Ready pins, following the flow chart of
// paper Figure 5 literally:
//
//	Reset -> load root word into register A (one cycle)
//	Ready high; when Start: latch packet into register B, compute the
//	root cut entry from registers A and B (no memory access), Ready low
//	Each further cycle reads one memory word:
//	  - internal node word: compute the next cut entry from the word's
//	    mask/shift header and register B
//	  - leaf word: on the first leaf cycle move the packet from B to C
//	    and raise Ready (the next packet may be latched while the
//	    comparators work); compare 30 rule slots; on match or end flag
//	    the classification completes and the next packet (if latched)
//	    proceeds with its already-computed root entry
//
// The functional model in Sim.Run computes identical totals arithmetically;
// tests assert cycle-for-cycle agreement between the two, which is the
// strongest internal-consistency evidence this reproduction has for the
// paper's pipelining claim (§4: worst case 2 cycles -> one packet per
// clock).

// fsmState enumerates the pipeline controller states.
type fsmState int

const (
	// stateReset is the initial state; the first cycle loads the root.
	stateReset fsmState = iota
	// stateAwait waits for Start with Ready high and no work in flight.
	stateAwait
	// stateMemory reads one memory word per cycle (internal traversal or
	// leaf compare, distinguished by the current cut entry).
	stateMemory
)

// FSM is the cycle-stepped accelerator.
type FSM struct {
	sim *Sim

	state fsmState

	// Pins.
	ready bool

	// Register B: the packet being traversed / awaiting traversal.
	regB      rule.Packet
	regBValid bool
	// entryB is the pending cut entry for the packet in register B
	// (computed combinationally at latch time from register A).
	entryB core.CutEntry

	// Register C: the packet under comparator scan.
	regC rule.Packet
	// leaf scan cursor.
	leafWord, leafPos int
	inLeaf            bool

	// Statistics.
	cycles   int64
	memReads int64

	// completed classifications in order.
	results []FSMResult
}

// FSMResult is one completed classification with its timing.
type FSMResult struct {
	Match       int
	AcceptCycle int64 // cycle at which the packet was latched
	FinishCycle int64 // cycle at which the match/no-match resolved
}

// Latency returns the packet's latency in cycles (inclusive of the
// accept cycle's root computation).
func (r FSMResult) Latency() int { return int(r.FinishCycle - r.AcceptCycle + 1) }

// NewFSM wraps a loaded simulator in the cycle-stepped controller.
func NewFSM(s *Sim) *FSM {
	return &FSM{sim: s, state: stateReset}
}

// Ready reports the Ready pin.
func (f *FSM) Ready() bool { return f.ready }

// Cycles returns the elapsed clock cycles.
func (f *FSM) Cycles() int64 { return f.cycles }

// MemReads returns total memory words read.
func (f *FSM) MemReads() int64 { return f.memReads }

// Results returns the completed classifications so far.
func (f *FSM) Results() []FSMResult { return f.results }

// Step advances one clock cycle. start/pkt model the Start pin and input
// bus: when the FSM samples Ready high and start is asserted, pkt is
// latched into register B. It returns whether the packet was consumed.
func (f *FSM) Step(start bool, pkt rule.Packet) (consumed bool) {
	f.cycles++
	switch f.state {
	case stateReset:
		// Root word -> register A (the Sim decoded it at load time).
		f.state = stateAwait
		f.ready = true
		return false

	case stateAwait:
		if !start {
			return false
		}
		f.latch(pkt)
		f.state = stateMemory
		return true

	case stateMemory:
		// One memory word this cycle.
		if !f.inLeaf {
			e := f.entryB
			if !e.IsLeaf {
				// Internal node word: compute the next entry.
				w := f.sim.img.Words[e.Word]
				f.memReads++
				node := core.LoadNode(w)
				f.entryB = core.LoadEntry(w, node.Index(f.regB))
				return false
			}
			// First leaf word: move B -> C and raise Ready. The paper's
			// flow chart samples Start during this same compare cycle,
			// so a waiting packet is latched before the comparators
			// finish.
			f.enterLeaf(e)
			if start {
				f.latch(pkt)
				consumed = true
			}
			f.compareWord()
			return consumed
		}
		// Continuing a multi-word leaf scan; Start is still sampled
		// while Ready is high (register B may already be occupied).
		if f.ready && start {
			f.latch(pkt)
			consumed = true
		}
		f.compareWord()
		return consumed
	}
	panic("hwsim: invalid FSM state")
}

// enterLeaf transfers the packet to register C and points the comparator
// scan at the leaf's first word.
func (f *FSM) enterLeaf(e core.CutEntry) {
	f.regC = f.regB
	f.regBValid = false
	f.inLeaf = true
	f.leafWord = e.Word
	f.leafPos = e.Pos
	f.ready = true
}

// latch stores a packet in register B and computes its root entry from
// register A (no memory access — the paper's key overlap).
func (f *FSM) latch(pkt rule.Packet) {
	f.regB = pkt
	f.regBValid = true
	f.entryB = core.LoadEntry(f.sim.img.Words[0], f.sim.regA.Index(pkt))
	f.ready = false
}

// compareWord scans one leaf word with the 30 parallel comparators.
func (f *FSM) compareWord() {
	w := f.sim.img.Words[f.leafWord]
	f.memReads++
	match := -1
	end := false
	for slot := f.leafPos; slot < core.RulesPerWord; slot++ {
		er := core.LoadRule(w, slot)
		if er.MatchesPacket(f.regC) {
			match = int(er.ID)
			break
		}
		if er.End {
			end = true
			break
		}
	}
	if match >= 0 || end {
		f.complete(match)
		return
	}
	f.leafWord++
	f.leafPos = 0
}

// complete finishes the current packet and redirects the datapath to the
// packet waiting in register B, if any.
func (f *FSM) complete(match int) {
	f.results = append(f.results, FSMResult{Match: match, FinishCycle: f.cycles})
	f.inLeaf = false
	if f.regBValid {
		// The next packet's root entry is already computed; its first
		// memory word is read next cycle. Ready stays low until that
		// packet reaches its leaf.
		f.ready = false
		return
	}
	f.state = stateAwait
	f.ready = true
}

// RunPipelined drives the FSM with a back-to-back packet stream (Start
// asserted whenever Ready is high) and returns matches plus statistics; it
// must agree exactly with Sim.Run.
func (s *Sim) RunPipelined(trace []rule.Packet) ([]int, Stats, error) {
	f := NewFSM(s)
	next := 0
	accepts := make([]int64, 0, len(trace))
	// Safety bound: no packet can take more than DeviceWords cycles.
	maxCycles := int64(len(trace)+2) * int64(core.DeviceWords)
	for len(f.results) < len(trace) {
		if f.cycles > maxCycles {
			return nil, Stats{}, fmt.Errorf("hwsim: pipeline made no progress after %d cycles", f.cycles)
		}
		start := next < len(trace)
		var pkt rule.Packet
		if start {
			pkt = trace[next]
		}
		if f.Step(start, pkt) {
			accepts = append(accepts, f.cycles)
			next++
		}
	}
	matches := make([]int, len(trace))
	var st Stats
	for i, r := range f.results {
		matches[i] = r.Match
		r.AcceptCycle = accepts[i]
		st.Add(Result{Match: r.Match, LatencyCycles: r.Latency()})
	}
	st.MemReads = f.memReads
	st.finish(s.dev, f.cycles) // the FSM clocked the fill cycles itself
	return matches, st, nil
}
