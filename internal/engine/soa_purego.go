//go:build purego || !amd64

package engine

import "repro/internal/rule"

// nativeKernelName is empty: this build carries only the portable
// kernel (either the purego tag forced it, or the architecture has no
// hand-written backend). kernFromName refuses "native" when this is
// empty, so kernNative is unreachable here.
const nativeKernelName = ""

// detectNative reports no native kernel for this build.
func detectNative() bool { return false }

// scanBlockASM is unreachable in portable-only builds; the stub keeps
// the dispatch layer architecture-independent.
func scanBlockASM(words []bankWord, ids []int32, refs []leafRef, f [][rule.NumDims]uint32, out []int32) {
	//repro:allow hotpath -- unreachable guard: kernFromName refuses "native" when nativeKernelName is empty
	panic("engine: native scan kernel not available in this build")
}
