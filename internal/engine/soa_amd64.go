//go:build amd64 && !purego

package engine

import "repro/internal/rule"

// nativeKernelName names this architecture's SIMD scan kernel.
const nativeKernelName = "avx2"

// detectNative probes CPUID for the avx2 kernel's requirements: AVX2
// itself, plus OSXSAVE and XMM/YMM state enabled in XCR0 (the OS must
// save the wide registers across context switches, or executing VEX
// code faults).
func detectNative() bool {
	maxLeaf, _, _, _ := cpuidASM(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidASM(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 { // XMM and YMM state
		return false
	}
	_, b7, _, _ := cpuidASM(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// scanBlockASM is the AVX2 scan kernel (soa_amd64.s): for each i <
// len(out) it scans window refs[i] of the bank for the fields f[i] and
// stores ids[slot] of the first matching slot, or -1, in out[i]. refs
// and f must hold at least len(out) entries and every window must lie
// inside ids (Compile, Patch and restore's validation guarantee it).
//
//go:noescape
func scanBlockASM(words []bankWord, ids []int32, refs []leafRef, f [][rule.NumDims]uint32, out []int32)

// cpuidASM executes CPUID with the given leaf/subleaf.
func cpuidASM(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)
