#include "textflag.h"

// The arms of RMSNormInto and ApplyRoPECached (tensor.go). Every product is
// rounded before the add that follows it — VMULPS then VADDPS, never FMA —
// as the pure-Go loops round it.

// func sumSquaresAVX2(a *[16]float32, x *float32, n16 int)
//
// a[j] = the chain of float32(x[i]·x[i]) over i ≡ j (mod 16), i < 16·n16,
// from +0 in ascending i: sumSquares' sixteen chains, Y0 holding chains 0–7
// and Y1 chains 8–15.
TEXT ·sumSquaresAVX2(SB), NOSPLIT, $0-24
	MOVQ a+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n16+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TESTQ CX, CX
	JLE  sq2done

sq2loop:
	VMOVUPS (SI), Y2
	VMOVUPS 32(SI), Y3
	VMULPS Y2, Y2, Y2
	VMULPS Y3, Y3, Y3
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	ADDQ $64, SI
	DECQ CX
	JNZ  sq2loop

sq2done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func scaleGainAVX2(dst, x, gain *float32, n8 int, inv float32)
//
// dst[i] = (x[i]·inv)·gain[i] for the first 8·n8 elements. dst may be x.
TEXT ·scaleGainAVX2(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ gain+16(FP), DX
	MOVQ n8+24(FP), CX
	VBROADCASTSS inv+32(FP), Y1
	TESTQ CX, CX
	JLE  sg2done

sg2loop:
	VMOVUPS (SI), Y0
	VMULPS Y1, Y0, Y0
	VMULPS (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  sg2loop

sg2done:
	VZEROUPPER
	RET

// func rmsNormAVX512(dst, x, gain *float32, n int, eps float32)
//
// The whole of RMSNormInto over n ≥ 1 floats on the AVX-512 arm, in one
// call: sumSquares' sixteen chains in Z0 (one per lane), the ragged tail
// under the lane mask K1 — a masked-off lane loads +0, and a chain, never
// −0, is unchanged by adding +0 — then the tree in registers (chains j and
// j+8, then j+4, j+2, j+1, each sum's first operand the lower chain), then
// inv = 1/√(ss/n + eps) in scalar SSE — VSQRTSS is the Go arm's
// float32(math.Sqrt(float64(v))): a float64 square root rounded to float32 is
// the correctly rounded float32 one (53 ≥ 2·24 + 2 bits) — and the scale
// pass (x·inv)·gain, its tail under K1. dst may be x: every x is read before
// the first dst is written.
TEXT ·rmsNormAVX512(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ gain+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ R8, CX
	ANDQ $15, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VPXORD Z0, Z0, Z0
	MOVQ SI, R9
	MOVQ R8, CX
	SHRQ $4, CX
	JZ   nsqtail

nsqloop:
	VMOVUPS (R9), Z1
	VMULPS Z1, Z1, Z1
	VADDPS Z1, Z0, Z0
	ADDQ $64, R9
	DECQ CX
	JNZ  nsqloop

nsqtail:
	VMOVUPS.Z (R9), K1, Z1
	VMULPS Z1, Z1, Z1
	VADDPS Z1, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VMOVHLPS X0, X0, X1
	VADDPS X1, X0, X0
	VMOVSHDUP X0, X1
	VADDSS X1, X0, X0
	VCVTSI2SSQ R8, X1, X1
	VDIVSS X1, X0, X0
	VADDSS eps+32(FP), X0, X0
	VSQRTSS X0, X0, X0
	MOVL $0x3f800000, AX
	VMOVD AX, X1
	VDIVSS X0, X1, X0
	VBROADCASTSS X0, Z2
	MOVQ R8, CX
	SHRQ $4, CX
	JZ   nsctail

nscloop:
	VMOVUPS (SI), Z1
	VMULPS Z2, Z1, Z1
	VMULPS (DX), Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ CX
	JNZ  nscloop

nsctail:
	VMOVUPS.Z (SI), K1, Z1
	VMULPS Z2, Z1, Z1
	VMULPS.Z (DX), Z1, K1, Z1
	VMOVUPS Z1, K1, (DI)
	VZEROUPPER
	RET

// func ropeAVX2(x, sin, cos *float32, n8 int)
//
// The rotation of ApplyRoPECached over the first 8·n8 floats of x (4·n8
// pairs). Each group of four pairs reads four sin and four cos, spread to
// (c0, c0, c1, c1, …) by VPERMPS over ropeDup; with X = (a0, b0, …) and its
// lane swap (b0, a0, …), X·C = (a·c, b·c) and swap·S = (b·s, a·s), and
// VADDSUBPS subtracts on the even lanes and adds on the odd: a·c − b·s and
// b·c + a·s, the loop's two rounded products and its one sub or add.
TEXT ·ropeAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ sin+8(FP), SI
	MOVQ cos+16(FP), DX
	MOVQ n8+24(FP), CX
	LEAQ ·ropeDup(SB), BX
	VMOVUPS (BX), Y4
	TESTQ CX, CX
	JLE  rope2done

rope2loop:
	VMOVUPS (DX), X1
	VPERMPS Y1, Y4, Y1
	VMOVUPS (SI), X2
	VPERMPS Y2, Y4, Y2
	VMOVUPS (DI), Y0
	VPERMILPS $0xB1, Y0, Y3
	VMULPS Y1, Y0, Y0
	VMULPS Y2, Y3, Y3
	VADDSUBPS Y3, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $16, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  rope2loop

rope2done:
	VZEROUPPER
	RET

// func ropeAVX512(x, sin, cos *float32, n16 int)
//
// ropeAVX2 over the first 16·n16 floats of x, eight pairs at a time. AVX-512
// has no VADDSUBPS: the even lanes of swap·S take a sign flip (Z5 holds the
// sign bit on the even lanes), then one VADDPS — a·c + (−(b·s)) is a·c − b·s
// exactly.
TEXT ·ropeAVX512(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ sin+8(FP), SI
	MOVQ cos+16(FP), DX
	MOVQ n16+24(FP), CX
	LEAQ ·ropeDup(SB), BX
	VMOVUPS (BX), Z4
	VPTERNLOGD $0xFF, Z5, Z5, Z5
	VPSRLQ $32, Z5, Z5
	VPSLLD $31, Z5, Z5
	TESTQ CX, CX
	JLE  rope16done

rope16loop:
	VMOVUPS (DX), Y1
	VPERMPS Z1, Z4, Z1
	VMOVUPS (SI), Y2
	VPERMPS Z2, Z4, Z2
	VMOVUPS (DI), Z0
	VPERMILPS $0xB1, Z0, Z3
	VMULPS Z1, Z0, Z0
	VMULPS Z2, Z3, Z3
	VPXORD Z5, Z3, Z3
	VADDPS Z3, Z0, Z0
	VMOVUPS Z0, (DI)
	ADDQ $64, DI
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  rope16loop

rope16done:
	VZEROUPPER
	RET
