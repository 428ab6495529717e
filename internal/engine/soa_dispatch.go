package engine

import (
	"fmt"
	"log"
	"os"

	"repro/internal/rule"
)

// Kernel dispatch for the leaf-scan comparator bank (DESIGN.md §10).
//
// Two kernels implement the same walk over the same bank words:
//
//   - portable: soaBank.scanWindow (soa.go), pure Go — always compiled,
//     the only kernel under the purego build tag and on every
//     architecture but amd64, and the differential reference for the
//     other;
//   - avx2 (amd64): scanBlockASM (soa_amd64.s), which fires the eight
//     comparators of a word's line per VPCMPEQD round, ANDs the five
//     rounds in registers and takes one branch per word, for a whole
//     block of staged packets per call.
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

// scanBlock resolves one block of staged packets: out[i] is the ID of
// the highest-priority rule of window refs[i] whose bounds contain the
// fields f[i], or -1, for every i < len(out). On the native kernel that
// is one assembly call for the whole block.
//
//repro:hotpath
func (e *Engine) scanBlock(refs []leafRef, f [][rule.NumDims]uint32, out []int32) {
	refs, f = refs[:len(out)], f[:len(out)] // the kernels trust len(out)
	if e.kern == kernNative {
		scanBlockASM(e.soa.words, e.ruleIDs, refs, f, out)
		return
	}
	for i := range out {
		out[i] = -1
		if s := e.soa.scanWindow(refs[i], &f[i]); s >= 0 {
			out[i] = e.ruleIDs[s]
		}
	}
}
