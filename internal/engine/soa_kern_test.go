package engine

import (
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/classbench"
	"repro/internal/core"
	"repro/internal/rule"
)

// Tests of the kernel-dispatch layer (soa_dispatch.go) and the
// SIMD/portable differential contract. Everything here runs identically
// under -tags=purego: nativeKernelOK is then false, so the native legs
// degrade to portable-vs-portable instead of being skipped.

// kernels returns the scan kernels available on this CPU and build,
// portable first: the tests and micro-benchmarks iterate it to cover, or
// land one row per, kernel.
func kernels() []string {
	ks := []string{KernelPortable}
	if nativeKernelOK {
		ks = append(ks, nativeKernelName)
	}
	return ks
}

// TestKernelDispatch pins the selection surface: the portable kernel is
// always available, WithKernel round-trips, and unsatisfiable requests
// fail loudly (WithKernel) while the env fallback degrades.
func TestKernelDispatch(t *testing.T) {
	ks := kernels()
	t.Logf("kernels=%v default=%s", ks, DefaultKernel())

	rs := classbench.Generate(classbench.ACL1(), 300, 5)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	if e.Kernel() != DefaultKernel() {
		t.Fatalf("Compile stamped %q, default is %q", e.Kernel(), DefaultKernel())
	}
	pe, err := e.WithKernel(KernelPortable)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Kernel() != KernelPortable {
		t.Fatalf("WithKernel(portable).Kernel() = %q", pe.Kernel())
	}
	if _, err := e.WithKernel("no-such-kernel"); err == nil {
		t.Fatal("WithKernel accepted an unknown kernel name")
	}
	if nativeKernelOK {
		ne, err := e.WithKernel("native")
		if err != nil {
			t.Fatal(err)
		}
		if ne.Kernel() != nativeKernelName {
			t.Fatalf("WithKernel(native).Kernel() = %q, want %q", ne.Kernel(), nativeKernelName)
		}
	} else if _, err := e.WithKernel("native"); err == nil {
		t.Fatal("WithKernel(native) succeeded without a native kernel")
	}

	// The stamp survives patching: a snapshot chain never changes kernels.
	r := rs[0]
	r.ID = tree.NumRules()
	d, err := tree.InsertDelta(r)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := pe.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Kernel() != KernelPortable {
		t.Fatalf("patched snapshot kernel = %q, want the receiver's %q", pp.Kernel(), KernelPortable)
	}
}

// TestScanKernelsPatchedRace drives concurrent snapshot readers — on
// every available kernel — against a live patch churn. The readers load
// whole words: the AVX2 kernel's whole-line loads, and one reader that
// copies its snapshot's last bank word entire and checks that the lanes
// past the pool still hold blankWord's bounds. Under -race this pins the
// arena protocol — a patch never writes a word a published snapshot can
// load, not even a spare lane of its last one — and the answers stay
// packet-exact.
func TestScanKernelsPatchedRace(t *testing.T) {
	const seed = 31
	rs := classbench.Generate(classbench.ACL1(), 500, seed)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle(Compile(tree))
	trace := classbench.GenerateTrace(rs, 512, seed+1)
	pool := classbench.Generate(classbench.FW1(), 256, seed+2)

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	for _, k := range kernels() {
		wg.Add(1)
		go func(kernel string) {
			defer wg.Done()
			out := make([]int32, len(trace))
			want := make([]int32, len(trace))
			for !stopped() {
				e := h.Current().Engine()
				ke, err := e.WithKernel(kernel)
				if err != nil {
					t.Error(err)
					return
				}
				ke.ClassifyBatch(trace, out)
				e.ClassifyBatchAoS(trace, want)
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("kernel %s packet %d: got %d, AoS oracle %d", kernel, i, out[i], want[i])
						return
					}
				}
			}
		}(k)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			e := h.Current().Engine()
			last := e.soa.words[len(e.soa.words)-1]
			for l := len(e.ruleIDs) % wordSlots; l%wordSlots != 0; l++ {
				for d := range last {
					if last[d][l] != blankWord[d][l] || last[d][wordSlots+l] != blankWord[d][wordSlots+l] {
						t.Errorf("spare lane %d of the last bank word holds [%d,%d] in dimension %d, want blankWord's",
							l, last[d][l], last[d][wordSlots+l], d)
						return
					}
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed + 3))
	for step := 0; step < 150; step++ {
		var d *core.Delta
		if rng.Intn(3) == 0 && tree.NumRules() > 1 {
			d, err = tree.DeleteDelta(rng.Intn(tree.NumRules()))
			if err != nil {
				continue
			}
		} else {
			r := pool[rng.Intn(len(pool))]
			r.ID = tree.NumRules()
			d, err = tree.InsertDelta(r)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// selectiveRule builds a rule that is exact-match in dimension dim and
// wildcard everywhere else.
func selectiveRule(id int, dim int, v uint32) rule.Rule {
	var r rule.Rule
	r.ID = id
	for d := 0; d < rule.NumDims; d++ {
		r.F[d] = rule.Range{Lo: 0, Hi: uint32(1)<<rule.DimBits[d] - 1}
	}
	r.F[dim] = rule.Range{Lo: v, Hi: v}
	return r
}

// TestOrderRecomputedOnRecompile pins the order lifecycle documented on
// soaBank.order: patch churn appends windows under the stale
// compile-time sweep order (by design), and the next recompile
// re-measures selectivity over the then-current arena and restores the
// live ranking.
func TestOrderRecomputedOnRecompile(t *testing.T) {
	// Start with a ruleset selective only in dimension 0.
	var rs rule.RuleSet
	for i := 0; i < 60; i++ {
		rs = append(rs, selectiveRule(i, 0, uint32(i)<<24))
	}
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	if got := e.soa.order[0]; got != 0 {
		t.Fatalf("compile-time order ranks dim %d first, want 0 (order %v)", got, e.soa.order)
	}
	orig := e.soa.order

	// Churn: flood the table with rules selective only in dimension 4,
	// swamping dimension 0's selectivity count.
	for i := 0; i < 400; i++ {
		d, err := tree.InsertDelta(selectiveRule(tree.NumRules(), 4, uint32(i%200)))
		if err != nil {
			t.Fatal(err)
		}
		if e, err = e.Patch(d); err != nil {
			t.Fatal(err)
		}
	}
	if e.soa.order != orig {
		t.Fatalf("patch churn changed the sweep order %v -> %v; patches must keep the stale order", orig, e.soa.order)
	}
	// The stale order is now wrong for the live arena...
	live := e.soa
	live.computeOrder(len(e.ruleIDs))
	if live.order[0] != 4 {
		t.Fatalf("churned arena ranks dim %d first, want 4 (order %v) — test premise broken", live.order[0], live.order)
	}
	// ...and a recompile restores the live ranking.
	tree.Relayout()
	fresh := Compile(tree)
	if fresh.soa.order[0] != 4 {
		t.Fatalf("recompile ranks dim %d first, want 4 (order %v)", fresh.soa.order[0], fresh.soa.order)
	}
	trace := classbench.GenerateTrace(rs, 1000, 9)
	checkScanIdentity(t, fresh, trace)
}

// TestSoaPad pins what every publish point must leave past the pool's
// last slot: the arena is a whole number of words and no longer than the
// pool needs (the kernels' full-line loads stay inside it, and
// engine_mem_bytes pays at most one partial word), every published slot
// holds its rule's bounds, and on a fresh compile the unused lanes of
// the last word hold bounds nothing matches. A patch leaves those lanes
// as they are: it pads the pool to the next word and starts its window
// there.
func TestSoaPad(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 400, 3)
	tree, err := core.Build(rs, core.DefaultConfig(core.HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	checkBank(t, e)
	if len(e.ruleIDs)%wordSlots == 0 {
		t.Fatalf("pool of %d slots ends on a word boundary — test premise broken", len(e.ruleIDs))
	}
	last := &e.soa.words[len(e.soa.words)-1]
	for l := len(e.ruleIDs) % wordSlots; l < wordSlots; l++ {
		for d := 0; d < rule.NumDims; d++ {
			if last[d][l] <= last[d][wordSlots+l] {
				t.Fatalf("unused lane %d dim %d holds [%d,%d], want empty bounds", l, d, last[d][l], last[d][wordSlots+l])
			}
		}
	}
	pool := classbench.Generate(classbench.FW1(), 64, 4)
	for i := range pool {
		r := pool[i]
		r.ID = tree.NumRules()
		d, err := tree.InsertDelta(r)
		if err != nil {
			t.Fatal(err)
		}
		prev := len(e.ruleIDs)
		if e, err = e.Patch(d); err != nil {
			t.Fatal(err)
		}
		checkBank(t, e)
		for s := prev; s%wordSlots != 0; s++ {
			if e.ruleIDs[s] != noRule {
				t.Fatalf("insert %d: pool slot %d after the receiver's %d holds %d, want a pad", i, s, prev, e.ruleIDs[s])
			}
		}
	}
}

// edgeVal maps one fuzz byte to a value that exercises the comparator's
// interesting regions: small values, mid-bit and high-bit values, and
// the wraparound neighbourhood of ^0.
func edgeVal(a byte) uint32 {
	v := uint32(a & 0x3F)
	switch a >> 6 {
	case 0:
		return v
	case 1:
		return v << 13
	case 2:
		return v << 26
	default:
		return ^uint32(0) - v
	}
}

// fuzzWindow decodes fuzz bytes into an engine holding one rule per pool
// slot, a scan window [off, off+n) of the pool, and a packet field
// vector. The byte scheme (consumed in order, zero past the end):
//
//	[0]         total slots - 1 (mod 96)
//	[1]         window offset (mod total) — with total it sets the
//	            window's head lane and how many words it spans
//	then per slot, per dimension: one byte 0xFF = wildcard slot-dim,
//	otherwise that byte is the lo seed and one more byte the span seed
//	(saturating), both through edgeVal
//	then 5 bytes: packet fields through edgeVal
//	then 1 byte: slots trimmed off the window's end (mod its length; 0 =
//	            the window runs to the pool's end) — sets the tail lane
//	then 1 byte: how many of the pool's last slots a patch appended
//	            (mod total+1; 0 = one bulk build) — the rest of the bank
//	            is built first, so the appended lanes land in a word
//	            that already holds others, as a patch batch's later
//	            windows do
func fuzzWindow(data []byte) (e *Engine, l leafRef, f [rule.NumDims]uint32) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		v := data[pos]
		pos++
		return v
	}
	total := 1 + int(next())%96
	l.off = int32(int(next()) % total)
	e = &Engine{rules: make([]flatRule, total), ruleIDs: make([]int32, total)}
	for i := range e.rules {
		e.ruleIDs[i] = int32(i)
		for d := 0; d < rule.NumDims; d++ {
			a := next()
			if a == 0xFF {
				e.rules[i].hi[d] = ^uint32(0)
				continue
			}
			lo := edgeVal(a)
			hi := lo + edgeVal(next())
			if hi < lo {
				hi = ^uint32(0)
			}
			e.rules[i].lo[d], e.rules[i].hi[d] = lo, hi
		}
	}
	for d := 0; d < rule.NumDims; d++ {
		f[d] = edgeVal(next())
	}
	l.n = int32(total) - l.off
	l.n -= int32(int(next()) % int(l.n))
	built := total - int(next())%(total+1)
	e.soa.build(e.rules, e.ruleIDs[:built])
	e.soa.appendWindow(built, e.rules, e.ruleIDs[built:])
	e.soa.computeOrder(total)
	return
}

// fuzzSeed encodes a fuzzWindow input: a pool of total slots whose
// window [off, off+n) matches the packet in slot hit only (nowhere when
// hit < 0; slots outside the window all match, so a kernel that lets a
// masked lane through is caught), the last appended slots written by a
// patch.
func fuzzSeed(total, off, n, hit, appended int) []byte {
	data := []byte{byte(total - 1), byte(off)}
	for s := 0; s < total; s++ {
		lo := byte(1) // [1, 1]: the packet's fields are all 0
		if s == hit || s < off || s >= off+n {
			lo = 0
		}
		for d := 0; d < rule.NumDims; d++ {
			data = append(data, lo, 0)
		}
	}
	data = append(data, 0, 0, 0, 0, 0) // fields
	return append(data, byte(total-off-n), byte(appended))
}

// FuzzScanKernels is the kernel equivalence fuzz: on random windows and
// packets every scan kernel must find the slot a one-comparator-at-a-time
// model finds, and agree with the AoS scan. The generated seeds cover
// every (head lane, length) pair up to three words — head and tail mask
// on the same word, on adjacent words, with whole words between — each
// with a hit in its last slot and with none, on a bulk-built bank and on
// one whose last slots a patch appended. The committed corpus
// (testdata/fuzz/FuzzScanKernels) adds windows on and around one, two,
// three and eight whole words (8/9, 15-17, 24/25, 63-65 slots) and
// all-wildcard dimensions.
func FuzzScanKernels(f *testing.F) {
	for off := 0; off < wordSlots; off++ {
		for n := 1; n <= 2*wordSlots+1; n++ {
			total := off + n + 3
			f.Add(fuzzSeed(total, off, n, off+n-1, 0))
			f.Add(fuzzSeed(total, off, n, -1, total-off))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, l, fields := fuzzWindow(data)
		checkBank(t, e)

		// One comparator at a time: the reference for everything below.
		want := int32(-1)
		for s := l.off; s < l.off+l.n && want < 0; s++ {
			all := uint64(1)
			for d := 0; d < rule.NumDims; d++ {
				all &= rangeBit(fields[d], e.rules[s].lo[d], e.rules[s].hi[d])
			}
			if all == 1 {
				want = s // rule IDs are slot numbers
			}
		}
		if got := int32(e.aosScanLeaf(l, &fields)); got != want {
			t.Fatalf("aosScanLeaf(off=%d, n=%d) = %d, want %d", l.off, l.n, got, want)
		}
		for _, ke := range withKernels(t, e) {
			var got [1]int32
			ke.scanBlock([]leafRef{l}, [][rule.NumDims]uint32{fields}, got[:])
			if got[0] != want {
				t.Fatalf("kernel %s scan(off=%d, n=%d) = %d, want %d", ke.Kernel(), l.off, l.n, got[0], want)
			}
		}
	})
}

// handEngine builds an engine whose root has no cuts, so every packet
// walks to the one leaf window l over a pool with one rule per slot.
func handEngine(rules []flatRule, l leafRef) *Engine {
	e := &Engine{nodes: []node{{kidLen: 1}}, kids: []int32{^0}, rules: rules, kern: defaultKern}
	for i := range rules {
		e.ruleIDs = append(e.ruleIDs, int32(i))
	}
	e.setLeaves([]leafRef{l})
	e.soa.build(e.rules, e.ruleIDs)
	e.soa.computeOrder(len(e.ruleIDs))
	return e
}

// TestScanEdgeCases runs the shapes a ladder of special cases used to
// hide through both kernels: each row's packets must classify as
// ClassifyAoS says, one at a time and as a batch.
func TestScanEdgeCases(t *testing.T) {
	// Rule i matches exactly the packets whose source port is i.
	portRules := func(n int) []flatRule {
		rules := make([]flatRule, n)
		for i := range rules {
			for d := 0; d < rule.NumDims; d++ {
				rules[i].hi[d] = uint32(1)<<rule.DimBits[d] - 1
			}
			rules[i].lo[2], rules[i].hi[2] = uint32(i), uint32(i)
		}
		return rules
	}
	ports := func(n int) []rule.Packet {
		pkts := make([]rule.Packet, n)
		for i := range pkts {
			pkts[i].SrcPort = uint16(i % 24)
		}
		return pkts
	}
	rs := classbench.Generate(classbench.ACL1(), 300, 17)
	tree, err := core.Build(rs, core.DefaultConfig(core.HyperCuts))
	if err != nil {
		t.Fatal(err)
	}
	compiled := Compile(tree)
	trace := classbench.GenerateTrace(rs, 130, 18)

	rows := []struct {
		name string
		e    *Engine
		pkts []rule.Packet
	}{
		{"empty pool, nil bank", handEngine(nil, leafRef{}), ports(3)},
		{"zero-length leaf", handEngine(portRules(13), leafRef{off: 5, n: 0}), ports(24)},
		{"window inside one word", handEngine(portRules(13), leafRef{off: 2, n: 3}), ports(24)},
		{"window of one whole word", handEngine(portRules(24), leafRef{off: 8, n: 8}), ports(24)},
		{"window ending in the last partial word", handEngine(portRules(13), leafRef{off: 6, n: 7}), ports(24)},
		{"no packets", compiled, nil},
		{"one packet", compiled, trace[:1]},
		{"one short of a block", compiled, trace[:blockLen-1]},
		{"one block", compiled, trace[:blockLen]},
		{"one past a block", compiled, trace[:blockLen+1]},
		{"two blocks and two", compiled, trace[:2*blockLen+2]},
	}
	for _, row := range rows {
		for _, ke := range withKernels(t, row.e) {
			t.Run(row.name+"/"+ke.Kernel(), func(t *testing.T) {
				want := make([]int32, len(row.pkts))
				ke.ClassifyBatchAoS(row.pkts, want)
				// One extra slot: a batch must not write past its packets.
				got := make([]int32, len(row.pkts)+1)
				got[len(row.pkts)] = -7
				ke.ClassifyBatch(row.pkts, got[:len(row.pkts)])
				if got[len(row.pkts)] != -7 {
					t.Fatalf("ClassifyBatch wrote past its %d packets", len(row.pkts))
				}
				for i, p := range row.pkts {
					if got[i] != want[i] {
						t.Fatalf("packet %d: ClassifyBatch=%d ClassifyAoS=%d", i, got[i], want[i])
					}
					if one := ke.Classify(p); one != int(want[i]) {
						t.Fatalf("packet %d: Classify=%d ClassifyAoS=%d", i, one, want[i])
					}
				}
			})
		}
	}
}

// TestResolveKernFallback pins the env-override degrade contract: an
// unsatisfiable REPRO_SCAN_KERNEL keeps the silent-continue semantics
// (the probed default is used, resolution never fails) but the degrade
// is reported — resolveKern returns a non-empty reason, which init logs
// once and KernelFallback exposes for the facade's telemetry.
func TestResolveKernFallback(t *testing.T) {
	probed := kernPortable
	if nativeKernelOK {
		probed = kernNative
	}

	if k, msg := resolveKern(""); k != probed || msg != "" {
		t.Fatalf("resolveKern(\"\") = (%d, %q), want probed default %d with no fallback", k, msg, probed)
	}
	if k, msg := resolveKern(KernelPortable); k != kernPortable || msg != "" {
		t.Fatalf("resolveKern(portable) = (%d, %q), want honored", k, msg)
	}
	k, msg := resolveKern("no-such-kernel")
	if k != probed {
		t.Fatalf("unknown override resolved to kernel %d, want probed default %d", k, probed)
	}
	if msg == "" {
		t.Fatal("unknown override degraded silently: resolveKern returned no fallback reason")
	}
	for _, want := range []string{ScanKernelEnv, "no-such-kernel", kernName(probed)} {
		if !strings.Contains(msg, want) {
			t.Errorf("fallback reason %q does not mention %q", msg, want)
		}
	}
	if !nativeKernelOK {
		// On a CPU/build without the SIMD kernel, "native" is the
		// satisfiability (not spelling) flavor of the same degrade.
		if k, msg := resolveKern("native"); k != kernPortable || msg == "" {
			t.Fatalf("resolveKern(native) without SIMD = (%d, %q), want portable with a reason", k, msg)
		}
	}

	// The process-level state agrees with a fresh resolution of the
	// actual environment (both ran the same pure function).
	wantK, wantMsg := resolveKern(os.Getenv(ScanKernelEnv))
	if defaultKern != wantK || KernelFallback() != wantMsg {
		t.Fatalf("init resolved (%d, %q), want (%d, %q)", defaultKern, KernelFallback(), wantK, wantMsg)
	}
}
