package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hwsim"
)

// device is the control processor's model of the accelerator's memory
// (paper §4): the loaded simulator, the update deltas not yet pushed
// through its write interface, and the cycles that interface has spent.
// Updates reach the device lazily — sync replays the queued deltas word
// by word (hwsim.Sim.ApplyDelta: only the words an update dirtied are
// rewritten) and falls back to loading the whole structure after a
// recompile, a failed word patch, or an earlier load error. It has no
// lock of its own; the Accelerator drives it under mu.
type device struct {
	hw      hwsim.Device
	sim     *hwsim.Sim    // loaded image; nil when the next sync must load the whole structure
	pending []*core.Delta // updates since sim was last written
	err     error         // why the last full load failed (sim is nil); cleared when the structure changes
	retired int64         // write cycles of images since replaced, so writeCycles stays cumulative
	// onWrite, when set, observes each use of the write interface: the
	// cycles spent, and 1 for a full load or 0 for a word-level patch.
	onWrite func(cycles, fullLoad int64)
}

// queue hands the device the deltas of an applied update. With no image
// loaded a full load is due anyway, and now that the structure changed
// an earlier load failure is worth retrying.
func (d *device) queue(ds []*core.Delta) {
	if d.sim == nil {
		d.err = nil
		return
	}
	d.pending = append(d.pending, ds...)
}

// invalidate retires the loaded image — its deltas do not survive a
// Relayout, and a failed word patch may have left it half-written — so
// the next sync loads the structure from scratch.
func (d *device) invalidate() {
	d.retired = d.writeCycles()
	d.sim, d.pending, d.err = nil, nil, nil
}

// writeCycles is the cumulative cycle count of the write interface over
// every image this device has held.
func (d *device) writeCycles() int64 {
	if d.sim == nil {
		return d.retired
	}
	return d.retired + d.sim.LoadCycles()
}

// sync brings the device memory up to date with t and returns the load
// error when the structure does not fit the device; d.sim is non-nil
// exactly when it returns nil.
func (d *device) sync(t *core.Tree) error {
	if d.err != nil || d.sim != nil && len(d.pending) == 0 {
		return d.err
	}
	if d.sim != nil {
		n, err := d.sim.ApplyDelta(t, d.pending...)
		if err == nil {
			d.pending = nil
			d.wrote(int64(n), 0)
			return nil
		}
		// Typically the structure outgrew the device mid-write; the full
		// load below reports that properly.
		d.invalidate()
	}
	img, err := t.Encode()
	if err != nil {
		d.err = fmt.Errorf("repro: updated structure not encodable: %w", err)
		return d.err
	}
	if d.sim, d.err = hwsim.New(img, d.hw); d.err == nil {
		d.wrote(d.sim.LoadCycles(), 1)
	}
	return d.err
}

func (d *device) wrote(cycles, fullLoad int64) {
	if d.onWrite != nil {
		d.onWrite(cycles, fullLoad)
	}
}

// classify is the one ladder every hardware-model answer comes down: the
// simulated datapath while the structure is loaded; the Eq. 5/7 walk of
// the logical tree — the quantities the simulator is tested against —
// once updates have outgrown the device; and, if a restore's tree rebuild
// failed (t is nil), the restored engine's match with no cycle model.
func (d *device) classify(t *core.Tree, e *engine.Engine, p Packet) hwsim.Result {
	switch {
	case d.sim != nil:
		return d.sim.ClassifyOne(p)
	case t != nil:
		pi := t.Walk(p)
		return hwsim.Result{Match: pi.Match, MemReads: pi.Cycles() - 1, LatencyCycles: pi.Cycles()}
	default:
		return hwsim.Result{Match: e.Classify(p)}
	}
}

// run classifies a trace down the same ladder, aggregating the lower
// rungs the way hwsim.Sim.Run aggregates the first.
func (d *device) run(t *core.Tree, e *engine.Engine, trace []Packet) ([]int, Stats) {
	if d.sim != nil {
		return d.sim.Run(trace)
	}
	matches := make([]int, len(trace))
	var st Stats
	for i, p := range trace {
		r := d.classify(t, e, p)
		matches[i] = r.Match
		st.Add(r)
	}
	if t != nil { // cycle and energy figures need the tree
		st.Finish(d.hw)
	}
	return matches, st
}
