package main

import (
	"bytes"
	"fmt"

	"repro"
	"repro/internal/classbench"
	"repro/internal/rule"
	"repro/internal/stream"
	"repro/internal/wire"
)

// rulesSeed fixes every workload's ruleset. The run seed drives the traffic
// and the update pool only: tree shape varies far more between generated
// rulesets (FW1@2500 spans 270 to 556 memory words over five seeds) than any
// regression bound, so a seed-dependent ruleset would drown the signal.
const rulesSeed = 2008

const (
	tracePackets = 1 << 20 // packets in the ingest stream
	simPackets   = 1 << 16 // packets of it one Accelerator.Run pass simulates
	poolRules    = 1000    // rules the control phases insert and delete
	oracleStride = 64      // one packet in this many is checked against the linear oracle
	traceFlows   = 2500    // distinct 5-tuples of a flow-locality trace
	traceBurst   = 16      // mean packet-train length of a flow-locality trace
)

// workload is one set of inputs. Every workload runs every phase, so each
// end-to-end metric is reported on each of them; what a workload chooses is
// which layers those phases end up exercising.
type workload struct {
	name string
	// profile and rules name the ClassBench-style ruleset.
	profile string
	rules   int
	// cache is repro.Config.CacheSize (0 bypasses the flow cache).
	cache int
	// flows selects a flow-locality trace (GenerateFlowTrace); otherwise
	// nearly every packet is a distinct 5-tuple (GenerateTrace).
	flows bool
	// poolProfile is the family the inserted and deleted rules come from.
	poolProfile string
}

var workloads = []workload{
	// Flow locality with a working set that fits the cache (hit ratio near
	// 1): wire decode, flowcache probe and stream encode/write do nearly all
	// the work and the engine almost none. Updates are narrow ACL1 rules.
	{name: "acl10k-flows", profile: "acl1", rules: 10000, cache: 16384, flows: true, poolProfile: "acl1"},
	// The same layers used the other way: every probe misses, every packet
	// walks, scans and inserts/evicts. A cache change that helps
	// acl10k-flows and hurts here must show.
	{name: "acl10k-scatter", profile: "acl1", rules: 10000, cache: 16384, flows: false, poolProfile: "acl1"},
	// Bare forwarding with the cache bypassed, on a wildcard-heavy family
	// (a paper Table 4 size) that the ACL1-tuned scan constants never saw.
	// The prediction for any cache-only change is no movement.
	{name: "fw2k5-nocache", profile: "fw1", rules: 2500, cache: 0, flows: false, poolProfile: "fw1"},
	// Control path under wide updates: wildcard-heavy FW1 rules inserted
	// into the ACL1 tree land in many leaves, so deltas are large and
	// background recompiles run beside the reader about three times as often
	// as on acl10k-flows, whose traffic it shares.
	{name: "acl10k-control", profile: "acl1", rules: 10000, cache: 16384, flows: true, poolProfile: "fw1"},
	// The paper's largest Table 2-8 size on the ASIC: the simulated
	// statistics are the paper's own product, and the engine image is small
	// enough to stay in the CPU cache.
	{name: "acl2k-hwmodel", profile: "acl1", rules: 2191, cache: 0, flows: false, poolProfile: "acl1"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything generated from the seed before any clock starts. The
// program under test only ever receives these rules, packets and bytes.
type inputs struct {
	w     workload
	cfg   repro.Config
	rs    rule.RuleSet
	pool  rule.RuleSet
	trace []rule.Packet
	// wire and text are the whole trace in the two stream framings.
	wire, text []byte
	// batches[k] is packets [k*BatchSize, (k+1)*BatchSize) as a stand-alone
	// wire stream: one closed-loop request.
	batches [][]byte
	// oracle[i] is rs.Match(trace[i*oracleStride]).
	oracle []int32
	// simTrace is what the device model classifies, and simOracle its oracle
	// sample. The device has no flow cache, and which few flows are popular
	// moves its cycles per packet by 3% from seed to seed, so it is always fed
	// scattered traffic.
	simTrace  []rule.Packet
	simOracle []int32
	// poolBase[k] is rs.Match of a packet inside pool[k] (see corner): what
	// that packet is answered by whenever no inserted rule claims it.
	poolBase []int32
}

// corner is a packet inside r.
func corner(r *rule.Rule) rule.Packet {
	return rule.Packet{
		SrcIP: r.F[rule.DimSrcIP].Lo, DstIP: r.F[rule.DimDstIP].Lo,
		SrcPort: uint16(r.F[rule.DimSrcPort].Lo), DstPort: uint16(r.F[rule.DimDstPort].Lo),
		Proto: uint8(r.F[rule.DimProto].Lo),
	}
}

// updates drives the update schedule every control phase shares: pool rules
// go in under consecutive IDs from len(rs) on, and once lag of them are alive
// the oldest is deleted after every insert. It stops when more, told how many
// rules went in so far, says so, or when a call fails.
func (in *inputs) updates(lag int, more func(inserted int) bool, insert func(rule.Rule) error, del func(id int) error) error {
	base := len(in.rs)
	for first, next := base, base; more(next - base); {
		nr := in.pool[(next-base)%len(in.pool)]
		nr.ID = next
		if err := insert(nr); err != nil {
			return err
		}
		if next++; next-first <= lag {
			continue
		}
		if err := del(first); err != nil {
			return err
		}
		first++
	}
	return nil
}

// sampleOracle is rs.Match of every oracleStride-th packet of trace.
func sampleOracle(rs rule.RuleSet, trace []rule.Packet) []int32 {
	o := make([]int32, len(trace)/oracleStride)
	for i := range o {
		o[i] = int32(rs.Match(trace[i*oracleStride]))
	}
	return o
}

// generate builds the inputs of w: rules from rulesSeed, traffic from seed+1,
// update pool from seed+2. scale divides the trace length (1 for a real run).
func generate(w workload, seed int64, scale int) (*inputs, error) {
	prof, err := classbench.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	poolProf, err := classbench.ProfileByName(w.poolProfile)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		w: w,
		// The zero Algorithm is HiCuts, whose ACL1@10k tree does not fit the
		// device; always name the algorithm.
		cfg:  repro.Config{Algorithm: repro.HyperCuts, Target: repro.TargetASIC, CacheSize: w.cache},
		rs:   classbench.Generate(prof, w.rules, rulesSeed),
		pool: classbench.Generate(poolProf, poolRules, seed+2),
	}
	n := tracePackets / scale
	if w.flows {
		in.trace = classbench.GenerateFlowTrace(in.rs, n, traceFlows, traceBurst, seed+1)
	} else {
		in.trace = classbench.GenerateTrace(in.rs, n, seed+1)
	}
	if len(in.trace) != n || n%stream.BatchSize != 0 {
		return nil, fmt.Errorf("trace of %d packets, want %d in whole batches", len(in.trace), n)
	}

	var wb, tb bytes.Buffer
	if err := wire.WriteTrace(&wb, in.trace); err != nil {
		return nil, err
	}
	if err := rule.WriteTrace(&tb, in.trace); err != nil {
		return nil, err
	}
	in.wire, in.text = wb.Bytes(), tb.Bytes()
	for off := 0; off < n; off += stream.BatchSize {
		var b bytes.Buffer
		if err := wire.WriteTrace(&b, in.trace[off:off+stream.BatchSize]); err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b.Bytes())
	}
	in.oracle = sampleOracle(in.rs, in.trace)
	in.simTrace = in.trace[:simPackets/scale]
	if w.flows {
		in.simTrace = classbench.GenerateTrace(in.rs, simPackets/scale, seed+1)
	}
	in.simOracle = sampleOracle(in.rs, in.simTrace)
	in.poolBase = make([]int32, len(in.pool))
	for k := range in.pool {
		in.poolBase[k] = int32(in.rs.Match(corner(&in.pool[k])))
	}
	return in, nil
}
