#include "textflag.h"
#include "zmm_amd64.h"

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

// TAILMASK sets K1 to the low CX bits (0 < CX < 16): the lanes of a ragged
// last group of sixteen.
#define TAILMASK \
	MOVL $1, AX \
	SHLL CX, AX \
	DECL AX \
	KMOVW AX, K1

// func expSubAVX512(xs *float32, n int, sub float32)
//
// xs[i] = Exp32(xs[i] − sub) for the n elements, sixteen at a time (EXP16);
// a ragged last group is loaded, computed and stored under a lane mask.
TEXT ·expSubAVX512(SB), NOSPLIT, $0-20
	MOVQ xs+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS sub+16(FP), Z4
	LEAQ ·expTable(SB), BX

exp16loop:
	CMPQ CX, $16
	JLT  exp16tail
	VMOVUPS (DI), Z0
	VSUBPS Z4, Z0, Z0
	EXP16(Z0, Z1, Z2, Z3)
	VMOVUPS Z0, (DI)
	ADDQ $64, DI
	SUBQ $16, CX
	JMP  exp16loop

exp16tail:
	TESTQ CX, CX
	JLE  exp16done
	TAILMASK
	VMOVUPS.Z (DI), K1, Z0
	VSUBPS Z4, Z0, Z0
	EXP16(Z0, Z1, Z2, Z3)
	VMOVUPS Z0, K1, (DI)

exp16done:
	VZEROUPPER
	RET

// SILU16 is gate = v / (1 + Exp32(−v)) · up for the sixteen lanes of v in
// Z4 and up in Z6, into Z0. Z5 is the sign mask: −v flips the sign bit, as
// the Go expression does.
#define SILU16 \
	VPXORD Z5, Z4, Z0 \
	EXP16(Z0, Z1, Z2, Z3) \
	VADDPS.BCST 48(BX), Z0, Z0 \
	VDIVPS Z0, Z4, Z0 \
	VMULPS Z6, Z0, Z0

// func siluMulAVX512(gate, up *float32, n int)
//
// gate[i] = gate[i] / (1 + Exp32(−gate[i])) · up[i] for the n elements,
// sixteen at a time; a ragged last group under a lane mask.
TEXT ·siluMulAVX512(SB), NOSPLIT, $0-24
	MOVQ gate+0(FP), DI
	MOVQ up+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·expTable(SB), BX
	VPTERNLOGD $0xFF, Z5, Z5, Z5
	VPSLLD $31, Z5, Z5

silu16loop:
	CMPQ CX, $16
	JLT  silu16tail
	VMOVUPS (DI), Z4
	VMOVUPS (SI), Z6
	SILU16
	VMOVUPS Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $16, CX
	JMP  silu16loop

silu16tail:
	TESTQ CX, CX
	JLE  silu16done
	TAILMASK
	VMOVUPS.Z (DI), K1, Z4
	VMOVUPS.Z (SI), K1, Z6
	SILU16
	VMOVUPS Z0, K1, (DI)

silu16done:
	VZEROUPPER
	RET
