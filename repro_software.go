// The software side of the facade: the flat host engine's public wrapper
// and the paper's software comparison points. repro.go is the accelerator.

package repro

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/hicuts"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/sa1100"
)

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

// Classify returns the highest-priority matching rule ID for p, or -1.
func (e *Engine) Classify(p Packet) int { return e.e.Classify(p) }

// ClassifyBatch classifies pkts[i] into out[i] with zero allocations; out
// must be at least as long as pkts.
func (e *Engine) ClassifyBatch(pkts []Packet, out []int32) { e.e.ClassifyBatch(pkts, out) }

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
