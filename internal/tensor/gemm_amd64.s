#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when CPUID leaf 1 reports OSXSAVE and AVX, XCR0 says the OS
// saves XMM and YMM state, and CPUID leaf 7 reports AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (27) | AVX (28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // XMM (1) | YMM (2)
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func tile4x16AVX2(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride int)
//
// d_l[0:16] = Σ_kk x_l[kk] · w[kk*stride : kk*stride+16] for four lanes l.
// Y0..Y7 hold the 4×16 accumulators; the SIMD lanes run across outputs, so
// each output is one chain of k multiply-then-add steps from +0 in ascending
// kk — the scalar loop's arithmetic exactly. VMULPS then VADDPS, never FMA:
// a fused step rounds once where the scalar reference rounds twice.
TEXT ·tile4x16AVX2(SB), NOSPLIT, $0-88
	MOVQ x0+32(FP), R8
	MOVQ x1+40(FP), R9
	MOVQ x2+48(FP), R10
	MOVQ x3+56(FP), R11
	MOVQ w+64(FP), SI
	MOVQ k+72(FP), CX
	MOVQ stride+80(FP), DX
	SHLQ $2, DX
	XORQ AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ CX, CX
	JLE  store

loop:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VBROADCASTSS (R8)(AX*4), Y10
	VBROADCASTSS (R9)(AX*4), Y11
	VMULPS Y8, Y10, Y12
	VMULPS Y9, Y10, Y13
	VADDPS Y12, Y0, Y0
	VADDPS Y13, Y1, Y1
	VMULPS Y8, Y11, Y14
	VMULPS Y9, Y11, Y15
	VADDPS Y14, Y2, Y2
	VADDPS Y15, Y3, Y3
	VBROADCASTSS (R10)(AX*4), Y10
	VBROADCASTSS (R11)(AX*4), Y11
	VMULPS Y8, Y10, Y12
	VMULPS Y9, Y10, Y13
	VADDPS Y12, Y4, Y4
	VADDPS Y13, Y5, Y5
	VMULPS Y8, Y11, Y14
	VMULPS Y9, Y11, Y15
	VADDPS Y14, Y6, Y6
	VADDPS Y15, Y7, Y7
	ADDQ DX, SI
	INCQ AX
	CMPQ AX, CX
	JLT  loop

store:
	MOVQ d0+0(FP), R8
	MOVQ d1+8(FP), R9
	MOVQ d2+16(FP), R10
	MOVQ d3+24(FP), R11
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	VZEROUPPER
	RET
