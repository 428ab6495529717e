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
// every available kernel — against a live patch churn. Under -race this
// pins the SIMD over-read contract: the kernels read up to soaPadSlots
// past a snapshot's arena length, into pad slots the updater may
// concurrently be appending to, and that must stay invisible (masked
// lanes, uninstrumented reads) while the answers stay packet-exact.
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
	var wg sync.WaitGroup
	for _, k := range kernels() {
		wg.Add(1)
		go func(kernel string) {
			defer wg.Done()
			out := make([]int32, len(trace))
			want := make([]int32, len(trace))
			for {
				select {
				case <-stop:
					return
				default:
				}
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
// re-measures selectivity over the then-current arenas and restores the
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
	// The stale order is now wrong for the live arenas...
	live := e.soa
	live.computeOrder()
	if live.order[0] != 4 {
		t.Fatalf("churned arenas rank dim %d first, want 4 (order %v) — test premise broken", live.order[0], live.order)
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

// TestSoaPad pins the over-read contract every publish point must
// uphold: at least soaPadSlots of capacity slack past each arena's
// length, on fresh compiles and across patch batches.
func TestSoaPad(t *testing.T) {
	rs := classbench.Generate(classbench.ACL1(), 400, 3)
	tree, err := core.Build(rs, core.DefaultConfig(core.HiCuts))
	if err != nil {
		t.Fatal(err)
	}
	e := Compile(tree)
	checkPad := func(stage string, b *soaBank) {
		t.Helper()
		for d := 0; d < rule.NumDims; d++ {
			if cap(b.lo[d])-len(b.lo[d]) < soaPadSlots || cap(b.hi[d])-len(b.hi[d]) < soaPadSlots {
				t.Fatalf("%s: dim %d arena slack lo=%d hi=%d, want >= %d",
					stage, d, cap(b.lo[d])-len(b.lo[d]), cap(b.hi[d])-len(b.hi[d]), soaPadSlots)
			}
		}
	}
	checkPad("compile", &e.soa)
	pool := classbench.Generate(classbench.FW1(), 64, 4)
	for i := range pool {
		r := pool[i]
		r.ID = tree.NumRules()
		d, err := tree.InsertDelta(r)
		if err != nil {
			t.Fatal(err)
		}
		if e, err = e.Patch(d); err != nil {
			t.Fatal(err)
		}
		checkPad("patch", &e.soa)
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

// fuzzWindow decodes fuzz bytes into a comparator bank, a scan window
// [off, off+n) within it, and a packet field vector. The byte scheme
// (consumed in order, zero past the end):
//
//	[0]         total slots - 1 (mod 96)
//	[1]         window offset (mod total) — exercises non-zero bases,
//	            the shape the peel hands the kernels
//	then per slot, per dimension: one byte 0xFF = wildcard slot-dim,
//	otherwise that byte is the lo seed and one more byte the span seed
//	(saturating), both through edgeVal
//	then 5 bytes: packet fields through edgeVal
//
//repro:arena-writer test fixture: builds a private bank that is never published to a snapshot
func fuzzWindow(data []byte) (b *soaBank, off, n int32, f [rule.NumDims]uint32) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		v := data[pos]
		pos++
		return v
	}
	total := int32(1 + int(next())%96)
	off = int32(int(next()) % int(total))
	n = total - off
	b = &soaBank{}
	for i := int32(0); i < total; i++ {
		for d := 0; d < rule.NumDims; d++ {
			a := next()
			if a == 0xFF {
				b.lo[d] = append(b.lo[d], 0)
				b.hi[d] = append(b.hi[d], ^uint32(0))
				continue
			}
			lo := edgeVal(a)
			hi := lo + edgeVal(next())
			if hi < lo {
				hi = ^uint32(0)
			}
			b.lo[d] = append(b.lo[d], lo)
			b.hi[d] = append(b.hi[d], hi)
		}
	}
	for d := 0; d < rule.NumDims; d++ {
		f[d] = edgeVal(next())
	}
	b.computeOrder()
	b.pad()
	return
}

// FuzzScanKernels is the kernel equivalence fuzz: random windows and
// packets through the scalar sweep, the mask-form scan, and the active
// SIMD kernel must agree slot-for-slot with a one-comparator-at-a-time
// model. The committed corpus (testdata/fuzz/FuzzScanKernels) covers the
// peel boundaries (portable and native cutoffs), the block boundaries
// (15/16/17 and 63/64/65 slots), and all-wildcard dimensions.
func FuzzScanKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, off, n, fields := fuzzWindow(data)

		// One comparator at a time: the reference for everything below.
		want := int32(-1)
		for i := off; i < off+n; i++ {
			all := uint64(1)
			for d := 0; d < rule.NumDims; d++ {
				all &= rangeBit(fields[d], b.lo[d][i], b.hi[d][i])
			}
			if all == 1 && want < 0 {
				want = i - off
			}
		}

		// sweep: slot-for-slot per dimension, over mask-width chunks.
		for d := 0; d < rule.NumDims; d++ {
			for base := off; base < off+n; base += 64 {
				bl := off + n - base
				if bl > 64 {
					bl = 64
				}
				m := sweep(fields[d], b.lo[d][base:base+bl], b.hi[d][base:base+bl])
				for j := int32(0); j < bl; j++ {
					if (m>>uint(j))&1 != rangeBit(fields[d], b.lo[d][base+j], b.hi[d][base+j]) {
						t.Fatalf("sweep dim %d slot %d: mask bit %d, comparator %d",
							d, base+j, (m>>uint(j))&1, rangeBit(fields[d], b.lo[d][base+j], b.hi[d][base+j]))
					}
				}
			}
		}

		if got := b.scan(off, n, &fields); got != want {
			t.Fatalf("scan(off=%d, n=%d) = %d, want %d", off, n, got, want)
		}
		if nativeKernelOK {
			if got := b.scanSIMD(off, n, &fields); got != want {
				t.Fatalf("scanSIMD(off=%d, n=%d) = %d, want %d (kernel %s)", off, n, got, want, nativeKernelName)
			}
		}
	})
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
