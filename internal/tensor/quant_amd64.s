#include "textflag.h"
#include "zmm_amd64.h"

// The int8 page codec on the AVX-512 arm: the fp16 parameter decoder, the
// key pass's dequantize-into-panel and the encoder (the value pass's
// dequantizing tile, valueQ8AVX512, is in attend_amd64.s). Every dequantized element is float32(code)·Δ + lo with two
// roundings — VCVTDQ2PS (exact), then VMULPS, then VADDPS, never an FMA —
// Rows.TokenInto's arithmetic.

// func paramsQ8AVX512(lod *float32, params *uint16, n int)
//
// lod[2t], lod[2t+1] = DecodeFloat16 of the (lo, Δ) pair params[2t],
// params[2t+1] for tokens t < n ≤ 16, and +0 for the tokens past n: one
// masked load of the n pairs as dwords (nothing past n is read), then
// VCVTPH2PS over each half of the 32 halves.
TEXT ·paramsQ8AVX512(SB), NOSPLIT, $0-24
	MOVQ lod+0(FP), DI
	MOVQ params+8(FP), SI
	MOVQ n+16(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VMOVDQU32.Z (SI), K1, Z0
	VCVTPH2PS Y0, Z2
	VEXTRACTI32X8 $1, Z0, Y3
	VCVTPH2PS Y3, Z3
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, 64(DI)
	VZEROUPPER
	RET

// DQ8DIM dequantizes the 16 codes of one dimension of a sealed sub-tile at
// off(SI) into panel row off·4(DI): float32(code)·Δ_t + lo_t with token t's
// Δ in Z2's lane t and lo in Z1's.
#define DQ8DIM(off, Z) \
	VPMOVZXBD off(SI), Z \
	VCVTDQ2PS Z, Z \
	VMULPS Z2, Z, Z \
	VADDPS Z1, Z, Z \
	VMOVUPS Z, (off*4)(DI)

// func panelQ8SealedAVX512(panel *float32, codes *uint8, params *uint16, d int)
//
// panel[j*16+t] = float32(codes[j*16+t])·Δ_t + lo_t for 16 tokens t and d
// dims j (d a multiple of 16): a sealed page's 8-bit sub-tile is already
// dim-major, so each dimension is one 16-code load, dequantized into its
// panel row, and nothing is transposed. The 16 (lo_t, Δ_t) pairs are one
// load: params[2t], params[2t+1] as dwords, split by VPMOVDW into the lo and
// the Δ halves, each widened by VCVTPH2PS.
TEXT ·panelQ8SealedAVX512(SB), NOSPLIT, $0-32
	MOVQ panel+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ params+16(FP), AX
	MOVQ d+24(FP), CX
	VMOVDQU32 (AX), Z0
	VPMOVDW Z0, Y1
	VPSRLD $16, Z0, Z0
	VPMOVDW Z0, Y2
	VCVTPH2PS Y1, Z1
	VCVTPH2PS Y2, Z2
	SHRQ $2, CX
	TESTQ CX, CX
	JLE  sealdone

sealloop:
	DQ8DIM(0, Z3)
	DQ8DIM(16, Z4)
	DQ8DIM(32, Z5)
	DQ8DIM(48, Z6)
	ADDQ $64, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  sealloop

sealdone:
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
// dequantized into Z0–Z15 and transposed in registers (TRANSPOSE16), so no
// fp32 row is stored.
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

	TRANSPOSE16

	PANEL16
	ADDQ $16, SI
	ADDQ $1024, DI
	DECQ CX
	JNZ  panelloop

paneldone:
	VZEROUPPER
	RET

// LDQ8ROW widens the 16 codes at R8 into Z's dwords and steps R8 one row.
#define LDQ8ROW(Z) \
	VPMOVZXBD (R8), Z \
	ADDQ BX, R8

// func sealQ8AVX512(dst, src *uint8, d16 int)
//
// dst[j*16+t] = src[t*d+j] for 16 rows t of d = 16·d16 codes and every
// dimension j: one 16-token sub-tile of 8-bit code rows re-laid dim-major, a
// sealed panel. Per 16 dims the rows are widened to dwords, transposed in
// registers (TRANSPOSE16) and narrowed back (VPMOVDB). Data movement only.
TEXT ·sealQ8AVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ d16+16(FP), CX
	MOVQ CX, BX
	SHLQ $4, BX
	TESTQ CX, CX
	JLE  sealq8done

sealq8loop:
	MOVQ SI, R8
	LDQ8ROW(Z0)
	LDQ8ROW(Z1)
	LDQ8ROW(Z2)
	LDQ8ROW(Z3)
	LDQ8ROW(Z4)
	LDQ8ROW(Z5)
	LDQ8ROW(Z6)
	LDQ8ROW(Z7)
	LDQ8ROW(Z8)
	LDQ8ROW(Z9)
	LDQ8ROW(Z10)
	LDQ8ROW(Z11)
	LDQ8ROW(Z12)
	LDQ8ROW(Z13)
	LDQ8ROW(Z14)
	LDQ8ROW(Z15)

	TRANSPOSE16

	VPMOVDB Z0, 0(DI)
	VPMOVDB Z1, 16(DI)
	VPMOVDB Z2, 32(DI)
	VPMOVDB Z3, 48(DI)
	VPMOVDB Z4, 64(DI)
	VPMOVDB Z5, 80(DI)
	VPMOVDB Z6, 96(DI)
	VPMOVDB Z7, 112(DI)
	VPMOVDB Z8, 128(DI)
	VPMOVDB Z9, 144(DI)
	VPMOVDB Z10, 160(DI)
	VPMOVDB Z11, 176(DI)
	VPMOVDB Z12, 192(DI)
	VPMOVDB Z13, 208(DI)
	VPMOVDB Z14, 224(DI)
	VPMOVDB Z15, 240(DI)
	ADDQ $16, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  sealq8loop

sealq8done:
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
