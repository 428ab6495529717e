//go:build !purego

#include "textflag.h"

// AVX2 scan kernel over the word-packed comparator bank (soa.go): the
// software rendering of the paper's leaf read, one memory word per eight
// rules with all eight comparators of a dimension fired by one
// instruction round. scanBlockASM's Go declaration (soa_amd64.go) states
// the contract; a block is up to 64 staged packets, so the Go->asm
// transition, the base-pointer loads and VZEROUPPER are paid once per
// block, not once per packet.
//
// Per packet: broadcast the five fields, then for each word of the
// window
//
//   m = AND over the five lines of (v - lo <=u hi - lo)   // VPSUBD x2, VPMINUD, VPCMPEQD
//   m = movmsk(m) & head mask & tail mask
//   if m != 0: out = ids[word's first slot + tzcnt(m)]; next packet
//
// v - lo <=u hi - lo is the unsigned-wraparound range check rangeBit
// makes. Windows are not word-aligned: the head mask drops the lanes of
// the first word below the window's first slot, the tail mask the lanes
// of the last word at and past its end, and every load stays inside the
// arena because the arena is whole words.
//
// Register plan:
//   R8 words   R9 ids   R10 &refs[i]   R11 &f[i]   R12 &out[i]
//   R13 packets left    R14 &tail      R15 answer
//   DI word pointer     SI slot of the word's lane 0
//   BX slots from SI to the window's end            DX head mask
//   AX, CX scratch      Y8-Y12 broadcast fields     Y0-Y5 rounds

// tail<>[t] = 1<<t - 1: the lanes of a word that lie before a window end
// t lanes in (t = 8: the window covers the rest of the word).
DATA tail<>+0(SB)/8, $0x7f3f1f0f07030100
DATA tail<>+8(SB)/8, $0x00000000000000ff
GLOBL tail<>(SB), RODATA|NOPTR, $16

// ROUND(line, v, m): m = all-ones in the lanes of the word at DI whose
// bounds in the dimension stored at byte offset line contain that lane
// of v. Clobbers Y0-Y3.
#define ROUND(line, v, m)         \
	VMOVDQU  line(DI), Y0     \ // lo
	VMOVDQU  line+32(DI), Y1  \ // hi
	VPSUBD   Y0, v, Y2        \ // v - lo
	VPSUBD   Y0, Y1, Y3       \ // hi - lo
	VPMINUD  Y2, Y3, Y3       \
	VPCMPEQD Y3, Y2, m        // v - lo <= hi - lo

// func scanBlockASM(words []bankWord, ids []int32, refs []leafRef, f [][5]uint32, out []int32)
TEXT ·scanBlockASM(SB), NOSPLIT, $0-120
	MOVQ  words_base+0(FP), R8
	MOVQ  ids_base+24(FP), R9
	MOVQ  refs_base+48(FP), R10
	MOVQ  f_base+72(FP), R11
	MOVQ  out_base+96(FP), R12
	MOVQ  out_len+104(FP), R13
	LEAQ  tail<>(SB), R14
	TESTQ R13, R13
	JLE   done

packet:
	MOVL  $-1, R15
	MOVL  (R10), SI              // off
	MOVL  4(R10), BX             // n
	TESTL BX, BX
	JLE   store
	VPBROADCASTD (R11), Y8
	VPBROADCASTD 4(R11), Y9
	VPBROADCASTD 8(R11), Y10
	VPBROADCASTD 12(R11), Y11
	VPBROADCASTD 16(R11), Y12
	MOVL SI, CX
	ANDL $7, CX                  // the window's first lane
	MOVL $0xFF, DX
	SHLL CX, DX                  // head mask
	SUBL CX, SI
	ADDL CX, BX
	MOVL SI, DI
	SHRL $3, DI
	LEAQ (DI)(DI*4), DI
	SHLQ $6, DI
	ADDQ R8, DI

	PCALIGN $32
word:
	ROUND(0, Y8, Y4)
	ROUND(64, Y9, Y5)
	VPAND Y5, Y4, Y4
	ROUND(128, Y10, Y5)
	VPAND Y5, Y4, Y4
	ROUND(192, Y11, Y5)
	VPAND Y5, Y4, Y4
	ROUND(256, Y12, Y5)
	VPAND Y5, Y4, Y4
	VMOVMSKPS Y4, CX
	MOVL    $8, AX
	CMPL    BX, AX
	CMOVLLT BX, AX               // lanes of this word before the window's end
	MOVBLZX (R14)(AX*1), AX      // tail mask
	ANDL    DX, AX
	MOVL    $0xFF, DX            // only the first word has a head
	ANDL    AX, CX
	JNZ     hit
	ADDQ    $320, DI
	ADDL    $8, SI
	SUBL    $8, BX
	JG      word
	JMP     store

hit:
	BSFL CX, CX                  // first lane = highest priority
	ADDL SI, CX
	MOVL (R9)(CX*4), R15

store:
	MOVL R15, (R12)
	ADDQ $8, R10                 // sizeof(leafRef)
	ADDQ $20, R11                // one field vector
	ADDQ $4, R12
	DECQ R13
	JNZ  packet

done:
	VZEROUPPER
	RET

// func cpuidASM(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidASM(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
