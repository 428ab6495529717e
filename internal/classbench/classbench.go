// Package classbench generates synthetic 5-tuple rulesets and packet
// traces with the structural statistics of the ClassBench seed filter sets
// used by the paper (acl1, fw1, ipc1) plus matching header traces.
//
// The paper evaluates on rulesets and traces downloaded from the
// Washington University packet classification evaluation page; those
// artifacts are not redistributable, so this package is the substitution
// documented in DESIGN.md: a deterministic, seeded generator whose three
// profiles mimic the properties that drive every result in the paper:
//
//   - acl1: access-control lists — destination prefixes are long and drawn
//     from a modest number of subtrees, destination ports are mostly exact
//     well-known services, very few wildcards. Trees stay shallow and
//     memory scales roughly linearly (paper Table 4, acl1 block).
//   - fw1: firewall rules — a large fraction of source/destination fields
//     are wildcards or very short prefixes and port fields are often the
//     ephemeral range. Wildcard rules replicate into every child cut, so
//     memory blows up at large sizes (paper Table 4, fw1 block).
//   - ipc1: IP-chain style sets between the two extremes.
//
// Generation is fully deterministic given (profile, size, seed).
package classbench

import (
	"fmt"
	"math/rand"

	"repro/internal/rule"
)

// PortStyle enumerates the port-field shapes seen in ClassBench sets.
type PortStyle int

const (
	// PortWildcard is the full 0-65535 range.
	PortWildcard PortStyle = iota
	// PortExactWellKnown is an exact match on a well-known service port.
	PortExactWellKnown
	// PortExactEphemeral is an exact match on a random high port.
	PortExactEphemeral
	// PortHighRange is the ephemeral range 1024-65535.
	PortHighRange
	// PortLowRange is the privileged range 0-1023.
	PortLowRange
	// PortArbitraryRange is a random contiguous range.
	PortArbitraryRange
)

var wellKnownPorts = []uint16{20, 21, 22, 23, 25, 53, 80, 110, 119, 123, 135, 137, 139, 143, 161, 179, 389, 443, 445, 465, 514, 515, 587, 636, 993, 995, 1080, 1433, 1521, 3128, 3306, 3389, 5060, 8000, 8080}

// weighted is a (value, weight) pair for discrete sampling.
type weighted[T any] struct {
	v T
	w float64
}

func sample[T any](rng *rand.Rand, items []weighted[T]) T {
	total := 0.0
	for _, it := range items {
		total += it.w
	}
	x := rng.Float64() * total
	for _, it := range items {
		if x < it.w {
			return it.v
		}
		x -= it.w
	}
	return items[len(items)-1].v
}

// Profile holds the structural parameters of one synthetic seed set.
type Profile struct {
	// Name identifies the profile (acl1, fw1, ipc1).
	Name string
	// SrcLens / DstLens are prefix-length distributions. Length 0 is a
	// wildcard field.
	SrcLens, DstLens []weighted[int]
	// SrcPools / DstPools set how many distinct prefix subtrees the
	// addresses are drawn from; smaller pools mean more sharing and
	// overlap between rules.
	SrcPools, DstPools int
	// SrcPorts / DstPorts are port-style distributions.
	SrcPorts, DstPorts []weighted[PortStyle]
	// Protos is the protocol distribution; 256 encodes a wildcard.
	Protos []weighted[int]
}

// ACL1 mimics the acl1 ClassBench seed: long destination prefixes, exact
// destination service ports, almost no wildcards.
func ACL1() Profile {
	return Profile{
		Name: "acl1",
		SrcLens: []weighted[int]{
			{0, 2}, {8, 2}, {16, 8}, {21, 6}, {24, 32}, {27, 10}, {28, 10}, {30, 10}, {32, 20},
		},
		DstLens: []weighted[int]{
			{0, 1}, {16, 4}, {21, 6}, {24, 34}, {27, 10}, {28, 12}, {30, 8}, {32, 25},
		},
		SrcPools: 24,
		DstPools: 16,
		SrcPorts: []weighted[PortStyle]{
			{PortWildcard, 80}, {PortHighRange, 12}, {PortExactWellKnown, 8},
		},
		DstPorts: []weighted[PortStyle]{
			{PortExactWellKnown, 58}, {PortWildcard, 18}, {PortHighRange, 10},
			{PortArbitraryRange, 8}, {PortExactEphemeral, 6},
		},
		Protos: []weighted[int]{{6, 62}, {17, 22}, {1, 6}, {256, 10}},
	}
}

// FW1 mimics the fw1 ClassBench seed: many wildcard address fields and
// range-style ports. The wildcard density is what makes decision-tree
// memory explode at large sizes in paper Table 4.
func FW1() Profile {
	return Profile{
		Name: "fw1",
		SrcLens: []weighted[int]{
			{0, 12}, {8, 6}, {16, 14}, {21, 8}, {24, 22}, {28, 10}, {32, 28},
		},
		DstLens: []weighted[int]{
			{0, 10}, {8, 6}, {16, 14}, {21, 8}, {24, 24}, {28, 10}, {32, 28},
		},
		SrcPools: 12,
		DstPools: 12,
		SrcPorts: []weighted[PortStyle]{
			{PortWildcard, 62}, {PortHighRange, 22}, {PortExactWellKnown, 8}, {PortArbitraryRange, 8},
		},
		DstPorts: []weighted[PortStyle]{
			{PortWildcard, 34}, {PortExactWellKnown, 26}, {PortHighRange, 22},
			{PortLowRange, 8}, {PortArbitraryRange, 10},
		},
		Protos: []weighted[int]{{6, 46}, {17, 26}, {1, 6}, {47, 4}, {50, 4}, {256, 14}},
	}
}

// IPC1 mimics the ipc1 ClassBench seed: intermediate wildcard density.
func IPC1() Profile {
	return Profile{
		Name: "ipc1",
		SrcLens: []weighted[int]{
			{0, 5}, {8, 4}, {16, 14}, {21, 8}, {24, 30}, {27, 8}, {28, 8}, {30, 6}, {32, 17},
		},
		DstLens: []weighted[int]{
			{0, 4}, {8, 4}, {16, 14}, {21, 8}, {24, 32}, {27, 8}, {28, 8}, {30, 6}, {32, 16},
		},
		SrcPools: 16,
		DstPools: 14,
		SrcPorts: []weighted[PortStyle]{
			{PortWildcard, 66}, {PortHighRange, 14}, {PortExactWellKnown, 12}, {PortArbitraryRange, 8},
		},
		DstPorts: []weighted[PortStyle]{
			{PortExactWellKnown, 40}, {PortWildcard, 26}, {PortHighRange, 14},
			{PortArbitraryRange, 12}, {PortExactEphemeral, 8},
		},
		Protos: []weighted[int]{{6, 52}, {17, 26}, {1, 8}, {256, 14}},
	}
}

// ProfileByName resolves a profile name; it accepts acl1, fw1 and ipc1.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "acl1":
		return ACL1(), nil
	case "fw1":
		return FW1(), nil
	case "ipc1":
		return IPC1(), nil
	}
	return Profile{}, fmt.Errorf("classbench: unknown profile %q (want acl1, fw1 or ipc1)", name)
}

// Generate produces n unique rules for the given profile, deterministically
// derived from seed. Rule IDs run 0..n-1 in priority order.
func Generate(p Profile, n int, seed int64) rule.RuleSet {
	rng := rand.New(rand.NewSource(seed ^ int64(len(p.Name))<<32))
	// Real filter sets diversify as they grow: a 25k-rule set draws its
	// prefixes from far more subtrees than a 60-rule set. Scale the pool
	// count with n so top-bit diversity (what decision-tree cuts can
	// discriminate on) grows the way ClassBench seeds do.
	srcPool := makePools(rng, p.SrcPools+n/24)
	dstPool := makePools(rng, p.DstPools+n/28)

	seen := make(map[[rule.NumDims]rule.Range]bool, n)
	rs := make(rule.RuleSet, 0, n)
	attempts := 0
	for len(rs) < n && attempts < 200*n+10000 {
		attempts++
		r := genRule(rng, p, srcPool, dstPool, len(rs))
		if seen[r.F] {
			continue
		}
		seen[r.F] = true
		rs = append(rs, r)
	}
	// Near-exhaustion fallback: diversify by widening pools.
	for len(rs) < n {
		r := genRule(rng, p, makePools(rng, 4096), makePools(rng, 4096), len(rs))
		if seen[r.F] {
			continue
		}
		seen[r.F] = true
		rs = append(rs, r)
	}
	return rs
}

// makePools creates k random /8-/16 subtree anchors addresses are grown
// from, giving the prefix-sharing structure of real filter sets.
func makePools(rng *rand.Rand, k int) []uint32 {
	pools := make([]uint32, k)
	for i := range pools {
		pools[i] = rng.Uint32() &^ 0xFFFF // fixed /16 anchor
	}
	return pools
}

func genRule(rng *rand.Rand, p Profile, srcPool, dstPool []uint32, id int) rule.Rule {
	srcLen := sample(rng, p.SrcLens)
	dstLen := sample(rng, p.DstLens)
	src := growAddr(rng, srcPool, srcLen)
	dst := growAddr(rng, dstPool, dstLen)
	proto := sample(rng, p.Protos)
	return rule.New(id,
		src, srcLen, dst, dstLen,
		portRange(rng, sample(rng, p.SrcPorts)),
		portRange(rng, sample(rng, p.DstPorts)),
		uint8(proto), proto == 256)
}

// growAddr picks a pool anchor and randomizes the bits below /16 so that
// long prefixes cluster inside shared subtrees.
func growAddr(rng *rand.Rand, pool []uint32, length int) uint32 {
	if length == 0 {
		return 0
	}
	anchor := pool[rng.Intn(len(pool))]
	if length <= 16 {
		return anchor
	}
	return anchor | (rng.Uint32() & 0xFFFF)
}

func portRange(rng *rand.Rand, style PortStyle) rule.Range {
	switch style {
	case PortWildcard:
		return rule.Range{Lo: 0, Hi: 65535}
	case PortExactWellKnown:
		p := uint32(wellKnownPorts[rng.Intn(len(wellKnownPorts))])
		return rule.Range{Lo: p, Hi: p}
	case PortExactEphemeral:
		p := uint32(1024 + rng.Intn(65536-1024))
		return rule.Range{Lo: p, Hi: p}
	case PortHighRange:
		return rule.Range{Lo: 1024, Hi: 65535}
	case PortLowRange:
		return rule.Range{Lo: 0, Hi: 1023}
	case PortArbitraryRange:
		lo := uint32(rng.Intn(65000))
		hi := lo + uint32(rng.Intn(int(65535-lo))+1)
		return rule.Range{Lo: lo, Hi: hi}
	}
	panic("classbench: unknown port style")
}

// GenerateTrace builds an n-packet header trace for rs, ClassBench-style:
// most packets are sampled inside randomly chosen rules (with a Pareto-like
// skew so some rules are hot, as in real traffic), and a small fraction are
// uniform random headers that may miss every rule.
func GenerateTrace(rs rule.RuleSet, n int, seed int64) []rule.Packet {
	rng := rand.New(rand.NewSource(seed*2654435761 + 97))
	trace := make([]rule.Packet, 0, n)
	if len(rs) == 0 {
		for i := 0; i < n; i++ {
			trace = append(trace, randomPacket(rng))
		}
		return trace
	}
	// Zipf-ish rule popularity: rule weight ~ 1/(rank+1).
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(len(rs)-1))
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.05 {
			trace = append(trace, randomPacket(rng))
			continue
		}
		r := &rs[int(zipf.Uint64())]
		trace = append(trace, packetInRule(rng, r))
	}
	return trace
}

// GenerateFlowTrace builds an n-packet trace with flow-level temporal
// locality: the traffic is carried by a fixed population of `flows`
// distinct 5-tuple headers (each sampled the way GenerateTrace samples
// packets: mostly inside Zipf-popular rules, a few random misses), and
// packets arrive in trains — bursts of identical back-to-back headers
// with mean length `burst` — from Zipf-skewed flow popularity. This is
// the packet-train structure of real links (a handful of elephant flows
// plus a long tail of mice), the locality an exact-match flow cache
// exploits; GenerateTrace's per-packet sampling has none, so caches see
// near-zero reuse on it. flows <= 0 defaults to n/16 (min 16); burst <= 0
// defaults to 8. Generation is fully deterministic given the arguments.
func GenerateFlowTrace(rs rule.RuleSet, n, flows, burst int, seed int64) []rule.Packet {
	if flows <= 0 {
		flows = n / 16
		if flows < 16 {
			flows = 16
		}
	}
	if burst <= 0 {
		burst = 8
	}
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))

	// The flow population IS a GenerateTrace draw — one header per flow —
	// so the per-flow headers follow the same sampling policy (rule
	// popularity, miss fraction) and the two generators cannot drift
	// apart; only the arrival process differs.
	heads := GenerateTrace(rs, flows, seed)

	// Zipf-skewed flow popularity, emitted as trains: pick a flow, emit a
	// burst of identical headers (length uniform in [1, 2*burst-1], mean
	// `burst`), repeat. Trains of distinct flows interleave over time the
	// way packet trains on a shared link do.
	trace := make([]rule.Packet, 0, n)
	flowZipf := rand.NewZipf(rng, 1.2, 8, uint64(flows-1))
	for len(trace) < n {
		h := heads[int(flowZipf.Uint64())]
		train := 1 + rng.Intn(2*burst-1)
		if train > n-len(trace) {
			train = n - len(trace)
		}
		for i := 0; i < train; i++ {
			trace = append(trace, h)
		}
	}
	return trace
}

// packetInRule samples a header uniformly inside every field range of r.
func packetInRule(rng *rand.Rand, r *rule.Rule) rule.Packet {
	pick := func(d int) uint32 {
		f := r.F[d]
		span := f.Size()
		return f.Lo + uint32(rng.Int63n(int64(span)))
	}
	return rule.Packet{
		SrcIP:   pick(rule.DimSrcIP),
		DstIP:   pick(rule.DimDstIP),
		SrcPort: uint16(pick(rule.DimSrcPort)),
		DstPort: uint16(pick(rule.DimDstPort)),
		Proto:   uint8(pick(rule.DimProto)),
	}
}

func randomPacket(rng *rand.Rand) rule.Packet {
	return rule.Packet{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		Proto:   uint8(rng.Intn(256)),
	}
}

// Stats summarizes structural statistics of a ruleset; used by tests to
// verify the profiles have the shapes the paper's discussion relies on.
type Stats struct {
	N                 int
	WildcardSrcFrac   float64 // fraction of rules with wildcard source IP
	WildcardDstFrac   float64 // fraction of rules with wildcard destination IP
	ExactDstPortFrac  float64
	WildcardAnyIPFrac float64 // wildcard in src or dst
	DistinctDstPrefix int
	DistinctSrcPrefix int
	DistinctDstPorts  int
}

// Measure computes Stats for rs.
func Measure(rs rule.RuleSet) Stats {
	var s Stats
	s.N = len(rs)
	srcSet := map[rule.Range]bool{}
	dstSet := map[rule.Range]bool{}
	dpSet := map[rule.Range]bool{}
	for i := range rs {
		r := &rs[i]
		ws := r.IsWildcard(rule.DimSrcIP)
		wd := r.IsWildcard(rule.DimDstIP)
		if ws {
			s.WildcardSrcFrac++
		}
		if wd {
			s.WildcardDstFrac++
		}
		if ws || wd {
			s.WildcardAnyIPFrac++
		}
		if f := r.F[rule.DimDstPort]; f.Lo == f.Hi {
			s.ExactDstPortFrac++
		}
		srcSet[r.F[rule.DimSrcIP]] = true
		dstSet[r.F[rule.DimDstIP]] = true
		dpSet[r.F[rule.DimDstPort]] = true
	}
	if s.N > 0 {
		s.WildcardSrcFrac /= float64(s.N)
		s.WildcardDstFrac /= float64(s.N)
		s.WildcardAnyIPFrac /= float64(s.N)
		s.ExactDstPortFrac /= float64(s.N)
	}
	s.DistinctSrcPrefix = len(srcSet)
	s.DistinctDstPrefix = len(dstSet)
	s.DistinctDstPorts = len(dpSet)
	return s
}

// PaperSizes returns the ruleset sizes used by the paper's tables for a
// given profile: Tables 2/3/6/7/8 use acl1 at six small sizes; Table 4 uses
// all three profiles at eight sizes up to ~25k.
func PaperSizes(table int, profile string) []int {
	switch table {
	case 2, 3, 6, 7, 8:
		return []int{60, 150, 500, 1000, 1600, 2191}
	case 4:
		last := map[string]int{"acl1": 24920, "fw1": 23087, "ipc1": 24274}[profile]
		if last == 0 {
			last = 25000
		}
		return []int{300, 1200, 2500, 5000, 10000, 15000, 20000, last}
	}
	return nil
}

// Table1 returns the paper's didactic 10-rule, five-8-bit-field ruleset
// (paper Table 1), widened to real field widths via rule.FromBytes. The
// decision trees of paper Figures 1-3 are built from it with binth 3.
func Table1() rule.RuleSet {
	specs := [][2][rule.NumDims]uint8{
		{{128, 15, 40, 180, 120}, {240, 15, 40, 180, 140}},
		{{90, 0, 0, 190, 130}, {100, 80, 200, 200, 132}},
		{{130, 60, 0, 180, 133}, {255, 140, 60, 180, 135}},
		{{90, 200, 40, 180, 136}, {92, 200, 40, 180, 138}},
		{{130, 60, 40, 190, 60}, {255, 140, 40, 200, 63}},
		{{140, 60, 0, 0, 140}, {150, 140, 255, 255, 255}},
		{{160, 80, 0, 0, 0}, {165, 80, 255, 255, 80}},
		{{48, 0, 40, 0, 0}, {50, 80, 40, 255, 10}},
		{{26, 50, 40, 180, 30}, {36, 50, 40, 180, 40}},
		{{40, 40, 40, 0, 0}, {40, 70, 40, 255, 60}},
	}
	rs := make(rule.RuleSet, len(specs))
	for i, s := range specs {
		rs[i] = rule.FromBytes(i, s[0], s[1])
	}
	return rs
}
