#include "textflag.h"

// The int8 page codec on the AVX-512 arm: the fp16 parameter decoder, the
// key pass's dequantize-into-panel, the value pass's dequantizing tile and
// the encoder. Every dequantized element is float32(code)·Δ + lo with two
// roundings — VCVTDQ2PS (exact), then VMULPS, then VADDPS, never an FMA —
// DequantSliceInto's arithmetic.

// lanes<> is the dword vector 0, 1, …, 15.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
DATA lanes<>+32(SB)/4, $8
DATA lanes<>+36(SB)/4, $9
DATA lanes<>+40(SB)/4, $10
DATA lanes<>+44(SB)/4, $11
DATA lanes<>+48(SB)/4, $12
DATA lanes<>+52(SB)/4, $13
DATA lanes<>+56(SB)/4, $14
DATA lanes<>+60(SB)/4, $15
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func paramsQ8AVX512(lod *float32, params *uint16, step, n int)
//
// lod[2t], lod[2t+1] = DecodeFloat16 of the (lo, Δ) pair at params + t·step
// bytes for tokens t < n ≤ 16, and +0 for the tokens past n: one masked
// VPGATHERDD of the pairs as dwords (nothing past n is read), then
// VCVTPH2PS over each half of the 32 halves.
TEXT ·paramsQ8AVX512(SB), NOSPLIT, $0-32
	MOVQ lod+0(FP), DI
	MOVQ params+8(FP), SI
	MOVQ step+16(FP), AX
	MOVQ n+24(FP), CX
	VPBROADCASTD AX, Z1
	VPMULLD lanes<>(SB), Z1, Z1
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VPXORD Z0, Z0, Z0
	VPGATHERDD (SI)(Z1*1), K1, Z0
	VCVTPH2PS Y0, Z2
	VEXTRACTI32X8 $1, Z0, Y3
	VCVTPH2PS Y3, Z3
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, 64(DI)
	VZEROUPPER
	RET

// DQ8ROW dequantizes token row t of the sub-tile — the 16 codes at R8 — into
// Z with the token's (lo, Δ) at lod + 8t (R9), and steps R8 to the next row.
#define DQ8ROW(t, Z) \
	VPMOVZXBD (R8), Z \
	VCVTDQ2PS Z, Z \
	VMULPS.BCST (t*8+4)(R9), Z, Z \
	VADDPS.BCST (t*8)(R9), Z, Z \
	ADDQ BX, R8

// func panelQ8AVX512(panel *float32, codes *uint8, codeStride int, lod *float32, d16 int)
//
// panel[j*16+t] = float32(codes[t*codeStride+j])·Δ_t + lo_t for 16 tokens t
// and 16·d16 dims j, (lo_t, Δ_t) = lod[2t], lod[2t+1]: the key pass's
// dim-major panel, straight from the codes. Per 16 dims the 16 token rows are
// dequantized into Z0–Z15 and transposed in registers (Z16–Z31 are the
// temporaries), so no fp32 row is stored.
TEXT ·panelQ8AVX512(SB), NOSPLIT, $0-40
	MOVQ panel+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ codeStride+16(FP), BX
	MOVQ lod+24(FP), R9
	MOVQ d16+32(FP), CX
	TESTQ CX, CX
	JLE  paneldone

panelloop:
	MOVQ SI, R8
	DQ8ROW(0, Z0)
	DQ8ROW(1, Z1)
	DQ8ROW(2, Z2)
	DQ8ROW(3, Z3)
	DQ8ROW(4, Z4)
	DQ8ROW(5, Z5)
	DQ8ROW(6, Z6)
	DQ8ROW(7, Z7)
	DQ8ROW(8, Z8)
	DQ8ROW(9, Z9)
	DQ8ROW(10, Z10)
	DQ8ROW(11, Z11)
	DQ8ROW(12, Z12)
	DQ8ROW(13, Z13)
	DQ8ROW(14, Z14)
	DQ8ROW(15, Z15)

	// Interleave row pairs within each 128-bit lane.
	VUNPCKLPS Z1, Z0, Z16
	VUNPCKHPS Z1, Z0, Z17
	VUNPCKLPS Z3, Z2, Z18
	VUNPCKHPS Z3, Z2, Z19
	VUNPCKLPS Z5, Z4, Z20
	VUNPCKHPS Z5, Z4, Z21
	VUNPCKLPS Z7, Z6, Z22
	VUNPCKHPS Z7, Z6, Z23
	VUNPCKLPS Z9, Z8, Z24
	VUNPCKHPS Z9, Z8, Z25
	VUNPCKLPS Z11, Z10, Z26
	VUNPCKHPS Z11, Z10, Z27
	VUNPCKLPS Z13, Z12, Z28
	VUNPCKHPS Z13, Z12, Z29
	VUNPCKLPS Z15, Z14, Z30
	VUNPCKHPS Z15, Z14, Z31

	// 4×4 transposes within each 128-bit lane.
	VSHUFPS $0x44, Z18, Z16, Z0
	VSHUFPS $0xEE, Z18, Z16, Z1
	VSHUFPS $0x44, Z19, Z17, Z2
	VSHUFPS $0xEE, Z19, Z17, Z3
	VSHUFPS $0x44, Z22, Z20, Z4
	VSHUFPS $0xEE, Z22, Z20, Z5
	VSHUFPS $0x44, Z23, Z21, Z6
	VSHUFPS $0xEE, Z23, Z21, Z7
	VSHUFPS $0x44, Z26, Z24, Z8
	VSHUFPS $0xEE, Z26, Z24, Z9
	VSHUFPS $0x44, Z27, Z25, Z10
	VSHUFPS $0xEE, Z27, Z25, Z11
	VSHUFPS $0x44, Z30, Z28, Z12
	VSHUFPS $0xEE, Z30, Z28, Z13
	VSHUFPS $0x44, Z31, Z29, Z14
	VSHUFPS $0xEE, Z31, Z29, Z15

	// Then the 4×4 transpose of 128-bit lanes, in two steps.
	VSHUFF32X4 $0x88, Z4, Z0, Z16
	VSHUFF32X4 $0x88, Z5, Z1, Z17
	VSHUFF32X4 $0x88, Z6, Z2, Z18
	VSHUFF32X4 $0x88, Z7, Z3, Z19
	VSHUFF32X4 $0xDD, Z4, Z0, Z20
	VSHUFF32X4 $0xDD, Z5, Z1, Z21
	VSHUFF32X4 $0xDD, Z6, Z2, Z22
	VSHUFF32X4 $0xDD, Z7, Z3, Z23
	VSHUFF32X4 $0x88, Z12, Z8, Z24
	VSHUFF32X4 $0x88, Z13, Z9, Z25
	VSHUFF32X4 $0x88, Z14, Z10, Z26
	VSHUFF32X4 $0x88, Z15, Z11, Z27
	VSHUFF32X4 $0xDD, Z12, Z8, Z28
	VSHUFF32X4 $0xDD, Z13, Z9, Z29
	VSHUFF32X4 $0xDD, Z14, Z10, Z30
	VSHUFF32X4 $0xDD, Z15, Z11, Z31

	VSHUFF32X4 $0x88, Z24, Z16, Z0
	VSHUFF32X4 $0x88, Z25, Z17, Z1
	VSHUFF32X4 $0x88, Z26, Z18, Z2
	VSHUFF32X4 $0x88, Z27, Z19, Z3
	VSHUFF32X4 $0x88, Z28, Z20, Z4
	VSHUFF32X4 $0x88, Z29, Z21, Z5
	VSHUFF32X4 $0x88, Z30, Z22, Z6
	VSHUFF32X4 $0x88, Z31, Z23, Z7
	VSHUFF32X4 $0xDD, Z24, Z16, Z8
	VSHUFF32X4 $0xDD, Z25, Z17, Z9
	VSHUFF32X4 $0xDD, Z26, Z18, Z10
	VSHUFF32X4 $0xDD, Z27, Z19, Z11
	VSHUFF32X4 $0xDD, Z28, Z20, Z12
	VSHUFF32X4 $0xDD, Z29, Z21, Z13
	VSHUFF32X4 $0xDD, Z30, Z22, Z14
	VSHUFF32X4 $0xDD, Z31, Z23, Z15

	VMOVUPS Z0, 0(DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	VMOVUPS Z8, 512(DI)
	VMOVUPS Z9, 576(DI)
	VMOVUPS Z10, 640(DI)
	VMOVUPS Z11, 704(DI)
	VMOVUPS Z12, 768(DI)
	VMOVUPS Z13, 832(DI)
	VMOVUPS Z14, 896(DI)
	VMOVUPS Z15, 960(DI)
	ADDQ $16, SI
	ADDQ $1024, DI
	DECQ CX
	JNZ  panelloop

paneldone:
	VZEROUPPER
	RET

// DQ8 dequantizes the 16 codes at off(SI) into Z with the current token's
// (lo, Δ) at R12.
#define DQ8(off, Z) \
	VPMOVZXBD off(SI), Z \
	VCVTDQ2PS Z, Z \
	VMULPS.BCST 4(R12), Z, Z \
	VADDPS.BCST (R12), Z, Z

// func tileQ8AVX512(d0, d1, d2, d3, x0, x1, x2, x3 *float32, codes *uint8, lod *float32, k, codeStride int, pair bool)
//
// The value pass's seeded tile over 8-bit codes: d_l[j] += Σ_kk x_l[kk] ·
// (float32(codes[kk*codeStride+j])·Δ_kk + lo_kk) for four lanes l and the 16
// columns j (32 when pair), (lo_kk, Δ_kk) = lod[2kk], lod[2kk+1]. Each token's
// row is dequantized in registers once for all four lanes, then every output
// continues its chain with one VFMADD231PS per token, as tile4x16AVX2 /
// tile4x32AVX512 do over fp32 rows.
TEXT ·tileQ8AVX512(SB), NOSPLIT, $0-97
	MOVQ x0+32(FP), R8
	MOVQ x1+40(FP), R9
	MOVQ x2+48(FP), R10
	MOVQ x3+56(FP), R11
	MOVQ codes+64(FP), SI
	MOVQ lod+72(FP), R12
	MOVQ k+80(FP), CX
	MOVQ codeStride+88(FP), BX
	MOVBLZX pair+96(FP), DX
	XORQ AX, AX
	MOVQ d0+0(FP), DI
	VMOVUPS (DI), Z0
	MOVQ d1+8(FP), DI
	VMOVUPS (DI), Z2
	MOVQ d2+16(FP), DI
	VMOVUPS (DI), Z4
	MOVQ d3+24(FP), DI
	VMOVUPS (DI), Z6
	TESTQ CX, CX
	JLE  q8store
	TESTL DX, DX
	JNZ  q8pair

q8one:
	DQ8(0, Z8)
	VBROADCASTSS (R8)(AX*4), Z10
	VBROADCASTSS (R9)(AX*4), Z11
	VBROADCASTSS (R10)(AX*4), Z12
	VBROADCASTSS (R11)(AX*4), Z13
	VFMADD231PS Z8, Z10, Z0
	VFMADD231PS Z8, Z11, Z2
	VFMADD231PS Z8, Z12, Z4
	VFMADD231PS Z8, Z13, Z6
	ADDQ BX, SI
	ADDQ $8, R12
	INCQ AX
	CMPQ AX, CX
	JLT  q8one
	JMP  q8store

q8pair:
	MOVQ d0+0(FP), DI
	VMOVUPS 64(DI), Z1
	MOVQ d1+8(FP), DI
	VMOVUPS 64(DI), Z3
	MOVQ d2+16(FP), DI
	VMOVUPS 64(DI), Z5
	MOVQ d3+24(FP), DI
	VMOVUPS 64(DI), Z7

q8pairloop:
	DQ8(0, Z8)
	DQ8(16, Z9)
	VBROADCASTSS (R8)(AX*4), Z10
	VBROADCASTSS (R9)(AX*4), Z11
	VBROADCASTSS (R10)(AX*4), Z12
	VBROADCASTSS (R11)(AX*4), Z13
	VFMADD231PS Z8, Z10, Z0
	VFMADD231PS Z9, Z10, Z1
	VFMADD231PS Z8, Z11, Z2
	VFMADD231PS Z9, Z11, Z3
	VFMADD231PS Z8, Z12, Z4
	VFMADD231PS Z9, Z12, Z5
	VFMADD231PS Z8, Z13, Z6
	VFMADD231PS Z9, Z13, Z7
	ADDQ BX, SI
	ADDQ $8, R12
	INCQ AX
	CMPQ AX, CX
	JLT  q8pairloop
	MOVQ d0+0(FP), DI
	VMOVUPS Z1, 64(DI)
	MOVQ d1+8(FP), DI
	VMOVUPS Z3, 64(DI)
	MOVQ d2+16(FP), DI
	VMOVUPS Z5, 64(DI)
	MOVQ d3+24(FP), DI
	VMOVUPS Z7, 64(DI)

q8store:
	MOVQ d0+0(FP), DI
	VMOVUPS Z0, (DI)
	MOVQ d1+8(FP), DI
	VMOVUPS Z2, (DI)
	MOVQ d2+16(FP), DI
	VMOVUPS Z4, (DI)
	MOVQ d3+24(FP), DI
	VMOVUPS Z6, (DI)
	VZEROUPPER
	RET

// func encodeQ8AVX512(codes *uint8, params *uint16, x *float32, n16 int) bool
//
// quantEncodeGo at 8 bits over 16·n16 floats, or false — nothing written —
// when an element is non-finite or of magnitude 2^15 or more: those slices
// take the specification. Inside that range no step can overflow, so every
// step below is the specification's own rounding:
//   - lo and hi are the slice's min and max (VMINPS / VMAXPS; equal values
//     are equal bits except ±0, and a zero minimum takes the sign of the
//     slice's first zero — the element the specification keeps);
//   - VCVTPS2PH (imm 0: round to nearest even) and VCVTPH2PS are
//     EncodeFloat16 and DecodeFloat16 on finite values;
//   - Δ = (hi − loD)/255 and 1/ΔD are one VSUBSS, VDIVSS each; ΔD > 0 is the
//     encoded Δ's sign bit clear and the encoding non-zero;
//   - a code is round((v − loD)·inv) half away from zero, clamped to
//     [0, 255]: the clamp first (rounding commutes with it), then floor and
//     +1 where the fraction — exact, v ≥ 0 — is at least ½.
TEXT ·encodeQ8AVX512(SB), NOSPLIT, $0-33
	MOVQ codes+0(FP), DI
	MOVQ params+8(FP), R9
	MOVQ x+16(FP), SI
	MOVQ n16+24(FP), CX
	MOVB $0, ret+32(FP)
	VMOVUPS (SI), Z0
	VMOVUPS Z0, Z1
	MOVL $0x7FFFFFFF, AX
	VPBROADCASTD AX, Z2
	MOVL $0x47000000, AX // 2^15
	VPBROADCASTD AX, Z3
	KXORW K1, K1, K1
	MOVQ SI, R8
	MOVQ CX, DX

encrange:
	VMOVUPS (R8), Z4
	VMINPS Z4, Z0, Z0
	VMAXPS Z4, Z1, Z1
	VPANDD Z2, Z4, Z5
	VPCMPUD $5, Z3, Z5, K2 // |v| ≥ 2^15, Inf and NaN included
	KORW K2, K1, K1
	ADDQ $64, R8
	DECQ DX
	JNZ  encrange
	KORTESTW K1, K1
	JNZ  encdone

	VEXTRACTF32X8 $1, Z0, Y4
	VMINPS Y4, Y0, Y0
	VEXTRACTF128 $1, Y0, X4
	VMINPS X4, X0, X0
	VPERMILPS $0x4E, X0, X4
	VMINPS X4, X0, X0
	VPERMILPS $0xB1, X0, X4
	VMINPS X4, X0, X0
	VEXTRACTF32X8 $1, Z1, Y4
	VMAXPS Y4, Y1, Y1
	VEXTRACTF128 $1, Y1, X4
	VMAXPS X4, X1, X1
	VPERMILPS $0x4E, X1, X4
	VMAXPS X4, X1, X1
	VPERMILPS $0xB1, X1, X4
	VMAXPS X4, X1, X1

	// A zero minimum: lo is the first element that compares equal to 0.
	VMOVD X0, AX
	TESTL $0x7FFFFFFF, AX
	JNZ  enclo
	VPXORD Z4, Z4, Z4
	MOVQ SI, R8

encfirstzero:
	VCMPPS $0, (R8), Z4, K2
	KMOVW K2, AX
	TESTL AX, AX
	JNZ  encfoundzero
	ADDQ $64, R8
	JMP  encfirstzero

encfoundzero:
	BSFL AX, AX
	VMOVSS (R8)(AX*4), X0

enclo:
	VCVTPS2PH $0, X0, X5 // loBits
	VCVTPH2PS X5, X6     // loD
	VSUBSS X6, X1, X7    // hi − loD
	MOVL $0x437F0000, AX // 255
	VMOVD AX, X8
	VDIVSS X8, X7, X7
	VCVTPS2PH $0, X7, X9 // ΔBits
	VCVTPH2PS X9, X10    // ΔD
	VMOVD X5, AX
	MOVW AX, (R9)
	VMOVD X9, AX
	MOVWLSX AX, AX
	TESTL AX, AX
	JLE  enczero
	MOVW AX, 2(R9)

	MOVL $0x3F800000, AX // 1
	VMOVD AX, X11
	VDIVSS X10, X11, X11 // inv = 1/ΔD
	VBROADCASTSS X11, Z11
	VBROADCASTSS X6, Z6
	VBROADCASTSS X8, Z8
	MOVL $0x3F000000, AX // ½
	VPBROADCASTD AX, Z13
	MOVL $0x3F800000, AX
	VPBROADCASTD AX, Z12
	VPXORD Z14, Z14, Z14

encloop:
	VMOVUPS (SI), Z4
	VSUBPS Z6, Z4, Z4
	VMULPS Z11, Z4, Z4
	VMAXPS Z14, Z4, Z4
	VMINPS Z8, Z4, Z4
	VRNDSCALEPS $1, Z4, Z5 // floor
	VSUBPS Z5, Z4, Z4
	VCMPPS $0x1D, Z13, Z4, K2 // fraction ≥ ½
	VADDPS Z12, Z5, K2, Z5
	VCVTTPS2DQ Z5, Z5
	VPMOVDB Z5, (DI)
	ADDQ $64, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  encloop
	MOVB $1, ret+32(FP)
	JMP  encdone

enczero:
	MOVW $0, 2(R9)
	VPXOR X4, X4, X4

enczeroloop:
	VMOVDQU X4, (DI)
	ADDQ $16, DI
	DECQ CX
	JNZ  enczeroloop
	MOVB $1, ret+32(FP)

encdone:
	VZEROUPPER
	RET
