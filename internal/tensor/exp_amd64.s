#include "textflag.h"

// EXP8 replaces the eight floats in Y0 with Exp32 of each: the operation
// sequence exp.go specifies, one instruction per operation, every constant
// broadcast from expTable (BX) where it is used. Clobbers Y1–Y3. VMULPS then
// VADDPS / VSUBPS, never FMA: the specification rounds every product.
// VMAXPS returns its second source (Go's first operand) when either is NaN,
// which is the NaN → low-clamp rule.
#define EXP8 \
	VBROADCASTSS 0(BX), Y3 \
	VMAXPS Y3, Y0, Y0 \
	VBROADCASTSS 4(BX), Y3 \
	VMINPS Y3, Y0, Y0 \
	VBROADCASTSS 8(BX), Y3 \
	VMULPS Y3, Y0, Y1 \
	VBROADCASTSS 12(BX), Y3 \
	VADDPS Y3, Y1, Y1 \
	VSUBPS Y3, Y1, Y1 \
	VBROADCASTSS 16(BX), Y3 \
	VMULPS Y3, Y1, Y2 \
	VSUBPS Y2, Y0, Y0 \
	VBROADCASTSS 20(BX), Y3 \
	VMULPS Y3, Y1, Y2 \
	VSUBPS Y2, Y0, Y0 \
	VBROADCASTSS 24(BX), Y2 \
	VMULPS Y0, Y2, Y2 \
	VBROADCASTSS 28(BX), Y3 \
	VADDPS Y3, Y2, Y2 \
	VMULPS Y0, Y2, Y2 \
	VBROADCASTSS 32(BX), Y3 \
	VADDPS Y3, Y2, Y2 \
	VMULPS Y0, Y2, Y2 \
	VBROADCASTSS 36(BX), Y3 \
	VADDPS Y3, Y2, Y2 \
	VMULPS Y0, Y2, Y2 \
	VBROADCASTSS 40(BX), Y3 \
	VADDPS Y3, Y2, Y2 \
	VMULPS Y0, Y2, Y2 \
	VBROADCASTSS 44(BX), Y3 \
	VADDPS Y3, Y2, Y2 \
	VMULPS Y0, Y0, Y3 \
	VMULPS Y3, Y2, Y2 \
	VADDPS Y0, Y2, Y2 \
	VBROADCASTSS 48(BX), Y3 \
	VADDPS Y3, Y2, Y2 \
	VCVTTPS2DQ Y1, Y1 \
	VPSLLD $23, Y1, Y1 \
	VPADDD Y3, Y1, Y1 \
	VMULPS Y1, Y2, Y0

// func expSubAVX2(xs *float32, n8 int, sub float32)
//
// xs[i] = Exp32(xs[i] − sub) for the first 8·n8 elements.
TEXT ·expSubAVX2(SB), NOSPLIT, $0-20
	MOVQ xs+0(FP), DI
	MOVQ n8+8(FP), CX
	VBROADCASTSS sub+16(FP), Y4
	LEAQ ·expTable(SB), BX
	TESTQ CX, CX
	JLE  expdone

exploop:
	VMOVUPS (DI), Y0
	VSUBPS Y4, Y0, Y0
	EXP8
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  exploop

expdone:
	VZEROUPPER
	RET

// func scaleAVX2(xs *float32, n8 int, alpha float32)
//
// xs[i] *= alpha for the first 8·n8 elements.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ xs+0(FP), DI
	MOVQ n8+8(FP), CX
	VBROADCASTSS alpha+16(FP), Y1
	TESTQ CX, CX
	JLE  scaledone

scaleloop:
	VMULPS (DI), Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  scaleloop

scaledone:
	VZEROUPPER
	RET

// func siluMulAVX2(gate, up *float32, n8 int)
//
// gate[i] = gate[i] / (1 + Exp32(−gate[i])), then · up[i], for the first
// 8·n8 elements. Y5 is the sign mask: −v flips the sign bit,
// as the Go expression does.
TEXT ·siluMulAVX2(SB), NOSPLIT, $0-24
	MOVQ gate+0(FP), DI
	MOVQ up+8(FP), SI
	MOVQ n8+16(FP), CX
	LEAQ ·expTable(SB), BX
	VPCMPEQD Y5, Y5, Y5
	VPSLLD $31, Y5, Y5
	TESTQ CX, CX
	JLE  siludone

siluloop:
	VMOVUPS (DI), Y4
	VXORPS Y5, Y4, Y0
	EXP8
	VBROADCASTSS 48(BX), Y3
	VADDPS Y3, Y0, Y0
	VDIVPS Y0, Y4, Y0
	VMULPS (SI), Y0, Y0
	ADDQ $32, SI
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  siluloop

siludone:
	VZEROUPPER
	RET
