package engine

import (
	"fmt"
	"log"
	"os"
	"unsafe"

	"repro/internal/rule"
)

// Kernel dispatch for the leaf-scan comparator bank (DESIGN.md §10).
//
// Three kernels implement the same window scan over the SoA arenas:
//
//   - portable: the pure-Go blocked sweep of soa.go (candidates prefilter
//     + verify on Engine; the 5-sweep mask kernel in soa_test.go is its
//     oracle) — always compiled, the only kernel under the purego build
//     tag, and the bit-for-bit differential reference for the others;
//   - avx2 (amd64): a hand-written fused kernel (soa_amd64.s) that fires
//     8 range comparators per VPCMPEQD round, keeps the block mask in a
//     register across the selectivity-ordered dimension sweeps, and
//     early-outs the moment it collapses to zero;
//   - neon (arm64): the 4-lane twin (soa_arm64.s), 8 slots per round on
//     two vectors.
//
// Selection is one-time: a CPU-feature probe (soa_*.go detectNative)
// picks the best kernel at init, overridable by the REPRO_SCAN_KERNEL
// environment variable ("portable", "native", or an arch name). Engines
// are stamped with the kernel at Compile and keep it through Patch, so
// a published snapshot never changes kernels mid-flight; WithKernel
// derives a re-stamped view sharing every arena, the A/B surface the
// benchmarks and differential tests use.

// ScanKernelEnv names the environment variable that overrides the
// default scan kernel at process start.
const ScanKernelEnv = "REPRO_SCAN_KERNEL"

// KernelPortable names the pure-Go scan kernel (always available).
const KernelPortable = "portable"

// kern values: the dispatch tag stamped into Engine.
const (
	kernPortable uint8 = iota
	kernNative
)

// nativeKernelOK records the one-time CPU-feature probe; defaultKern is
// the kernel Compile stamps into new engines. Both are set once at init
// and never written again.
// kernelFallback records why an env override was NOT honored ("" when it
// was, or no override was set): an unsatisfiable override (unknown name,
// or a native kernel this CPU lacks) falls back to the probed default —
// a trace replayed on a weaker machine should degrade, not crash — but
// the degrade must be observable, so it is logged once here and surfaced
// via KernelFallback for the facade to count and trace.
var (
	nativeKernelOK              = detectNative()
	defaultKern, kernelFallback = resolveKern(os.Getenv(ScanKernelEnv))
	_                           = func() struct{} {
		if kernelFallback != "" {
			log.Printf("engine: %s", kernelFallback)
		}
		return struct{}{}
	}()
)

// resolveKern picks the process-default scan kernel: the probed best,
// unless the env override names a satisfiable kernel. When the override
// cannot be honored the second return value describes the degrade.
func resolveKern(env string) (uint8, string) {
	k := kernPortable
	if nativeKernelOK {
		k = kernNative
	}
	if env == "" {
		return k, ""
	}
	ek, err := kernFromName(env)
	if err != nil {
		return k, fmt.Sprintf("%s=%q not satisfiable (%v); falling back to %q", ScanKernelEnv, env, err, kernName(k))
	}
	return ek, ""
}

// KernelFallback reports why the REPRO_SCAN_KERNEL override was ignored
// at process start, or "" when it was honored (or unset). The facade
// turns a non-empty value into a telemetry counter and flight-recorder
// event so the silent-continue semantics stay observable.
func KernelFallback() string { return kernelFallback }

// kernFromName resolves a kernel name to a dispatch tag. "native"
// selects the architecture's SIMD kernel when the CPU supports it.
func kernFromName(name string) (uint8, error) {
	switch name {
	case KernelPortable, "purego":
		return kernPortable, nil
	case "native", nativeKernelName:
		if name == "native" && nativeKernelName == "" {
			return 0, fmt.Errorf("engine: no native scan kernel on this architecture/build")
		}
		if !nativeKernelOK {
			return 0, fmt.Errorf("engine: scan kernel %q not supported by this CPU", nativeKernelName)
		}
		return kernNative, nil
	}
	return 0, fmt.Errorf("engine: unknown scan kernel %q (want %q or %q)", name, KernelPortable, "native")
}

func kernName(k uint8) string {
	if k == kernNative {
		return nativeKernelName
	}
	return KernelPortable
}

// DefaultKernel returns the kernel Compile stamps into new engines.
func DefaultKernel() string { return kernName(defaultKern) }

// Kernel reports the scan kernel this engine snapshot is stamped with.
func (e *Engine) Kernel() string { return kernName(e.kern) }

// WithKernel returns a view of e re-stamped to scan with the named
// kernel. The view shares every arena with e (engines are immutable), so
// it is an O(1) A/B switch: the differential tests and per-kernel
// benchmark rows run the same image through both kernels.
func (e *Engine) WithKernel(name string) (*Engine, error) {
	k, err := kernFromName(name)
	if err != nil {
		return nil, err
	}
	ne := *e
	ne.kern = k
	return &ne, nil
}

// scanArgs is the argument block of the fused SIMD window kernels
// (scanWindowASM). The Go wrapper resolves the sweep order once per
// window: lo[i]/hi[i] point at the window's first slot in the i-th most
// selective dimension's arena, f[i] is the packet field of that
// dimension, n is the window length in slots (>= 1).
//
// The assembly hard-codes the field offsets; the constants below pin
// the layout at compile time. rule.NumDims changing would move them —
// the asserts fail the build rather than silently corrupting the scan.
type scanArgs struct {
	lo [rule.NumDims]*uint32
	hi [rule.NumDims]*uint32
	f  [rule.NumDims]uint32
	n  int32
}

// Compile-time layout asserts (both directions, so any drift from the
// offsets the .s files use breaks the build).
const (
	_ = unsafe.Offsetof(scanArgs{}.hi) - 40
	_ = 40 - unsafe.Offsetof(scanArgs{}.hi)
	_ = unsafe.Offsetof(scanArgs{}.f) - 80
	_ = 80 - unsafe.Offsetof(scanArgs{}.f)
	_ = unsafe.Offsetof(scanArgs{}.n) - 100
	_ = 100 - unsafe.Offsetof(scanArgs{}.n)
)

// scanSIMD returns the offset within the window [off, off+n) of the
// first slot whose bounds contain the packet fields, or -1, via the
// native fused kernel. n must be >= 1; callers guarantee the arenas
// carry soaPadSlots of over-read slack past their length (pad()), which
// is what lets the kernels round block sweeps up to full vector lanes
// instead of peeling tails.
//
//repro:unsafe-shape packs the kernel argument block from pre-resolved arena base pointers
//repro:hotpath
func (b *soaBank) scanSIMD(off, n int32, f *[rule.NumDims]uint32) int32 {
	var a scanArgs
	o := uintptr(off) * 4
	for i := 0; i < rule.NumDims; i++ {
		// pLo/pHi are the order-permuted arena base pointers, resolved
		// once per publish by pad(): a window scan is five pointer adds,
		// not ten bounds-checked slice indexings. off < len ≤ cap keeps
		// the arithmetic inside the backing arrays.
		//repro:allow unsafealias -- alignment inherited from the arena base; the offset is slot*4, a multiple of the element size
		a.lo[i] = (*uint32)(unsafe.Add(unsafe.Pointer(b.pLo[i]), o))
		//repro:allow unsafealias -- alignment inherited from the arena base; the offset is slot*4, a multiple of the element size
		a.hi[i] = (*uint32)(unsafe.Add(unsafe.Pointer(b.pHi[i]), o))
		a.f[i] = f[b.order[i]]
	}
	a.n = n
	return scanWindowASM(&a)
}
