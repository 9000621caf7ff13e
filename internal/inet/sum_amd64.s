#include "textflag.h"

// func sumAVX2(b []byte) uint64
//
// Each 64-byte block is two 32-byte loads. Every 32-bit lane of a load is
// split into its low and high 16-bit halves (VPAND, VPSRLD), and the four
// half-vectors go to four accumulators (VPADDD). A lane gains at most
// 0xffff per block, so 65 536 blocks cannot wrap it. At the end each
// accumulator's even and odd lanes are widened to 64 bits and everything
// is added into one uint64.
TEXT ·sumAVX2(SB), NOSPLIT, $0-32
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	SHRQ $6, CX
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $16, Y15, Y14 // 0x0000ffff in every 32-bit lane
	VPSRLQ $32, Y15, Y15 // 0x00000000ffffffff in every 64-bit lane
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	TESTQ CX, CX
	JZ    reduce

loop:
	VMOVDQU 0(SI), Y4
	VMOVDQU 32(SI), Y5
	VPAND   Y14, Y4, Y6
	VPSRLD  $16, Y4, Y4
	VPAND   Y14, Y5, Y7
	VPSRLD  $16, Y5, Y5
	VPADDD  Y6, Y0, Y0
	VPADDD  Y4, Y1, Y1
	VPADDD  Y7, Y2, Y2
	VPADDD  Y5, Y3, Y3
	ADDQ    $64, SI
	DECQ    CX
	JNZ     loop

reduce:
	VPSRLQ $32, Y0, Y4
	VPAND  Y15, Y0, Y0
	VPADDQ Y4, Y0, Y0
	VPSRLQ $32, Y1, Y4
	VPAND  Y15, Y1, Y1
	VPADDQ Y4, Y1, Y1
	VPSRLQ $32, Y2, Y4
	VPAND  Y15, Y2, Y2
	VPADDQ Y4, Y2, Y2
	VPSRLQ $32, Y3, Y4
	VPAND  Y15, Y3, Y3
	VPADDQ Y4, Y3, Y3
	VPADDQ Y1, Y0, Y0
	VPADDQ Y3, Y2, Y2
	VPADDQ Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
