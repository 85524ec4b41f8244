#include "textflag.h"

// func cpuLevel() int
//
// armAVX2 (1) when CPUID leaf 1 reports FMA, OSXSAVE and AVX, XCR0 says the
// OS saves XMM and YMM state, and CPUID leaf 7 reports AVX2; armAVX512 (2)
// when leaf 7 also reports AVX-512F and XCR0 also covers the opmask and both
// parts of the ZMM state; armGo (0) otherwise.
TEXT ·cpuLevel(SB), NOSPLIT, $0-8
	MOVQ $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  leveldone
	MOVL $1, AX
	CPUID
	ANDL $0x18001000, CX // FMA (12) | OSXSAVE (27) | AVX (28)
	CMPL CX, $0x18001000
	JNE  leveldone
	MOVL $0, CX
	XGETBV
	MOVL AX, R8
	ANDL $6, AX // XMM (1) | YMM (2)
	CMPL AX, $6
	JNE  leveldone
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  leveldone
	MOVQ $1, ret+0(FP)
	BTL  $16, BX // AVX-512F
	JCC  leveldone
	ANDL $0xE0, R8 // opmask (5) | ZMM_Hi256 (6) | Hi16_ZMM (7)
	CMPL R8, $0xE0
	JNE  leveldone
	MOVQ $2, ret+0(FP)

leveldone:
	RET

// func tile4x16AVX2(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride int, seeded bool)
//
// d_l[0:16] = Σ_kk x_l[kk] · w[kk*stride : kk*stride+16] for four lanes l,
// added to d_l's current contents when seeded.
// Y0..Y7 hold the 4×16 accumulators; the SIMD lanes run across outputs, so
// each output is one chain of k VFMADD231PS steps — from +0, or from the
// value already in d — in ascending kk: FMA32 per step, the scalar loop's
// arithmetic exactly.
TEXT ·tile4x16AVX2(SB), NOSPLIT, $0-89
	MOVQ x0+32(FP), R8
	MOVQ x1+40(FP), R9
	MOVQ x2+48(FP), R10
	MOVQ x3+56(FP), R11
	MOVQ w+64(FP), SI
	MOVQ k+72(FP), CX
	MOVQ stride+80(FP), DX
	SHLQ $2, DX
	XORQ AX, AX
	MOVBLZX seeded+88(FP), BX
	TESTL BX, BX
	JNZ  seed
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP  start

seed:
	MOVQ d0+0(FP), BX
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	MOVQ d1+8(FP), BX
	VMOVUPS (BX), Y2
	VMOVUPS 32(BX), Y3
	MOVQ d2+16(FP), BX
	VMOVUPS (BX), Y4
	VMOVUPS 32(BX), Y5
	MOVQ d3+24(FP), BX
	VMOVUPS (BX), Y6
	VMOVUPS 32(BX), Y7

start:
	TESTQ CX, CX
	JLE  store

loop:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VBROADCASTSS (R8)(AX*4), Y10
	VBROADCASTSS (R9)(AX*4), Y11
	VBROADCASTSS (R10)(AX*4), Y12
	VBROADCASTSS (R11)(AX*4), Y13
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
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

// func tile4x32AVX512(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride, panelStep int, seeded bool)
//
// tile4x16AVX2 over two panels at once: d_l[0:16] from the panel at w,
// d_l[16:32] from the one panelStep floats after it. Z0..Z7 hold the 4×32
// accumulators, one 16-float register per lane and panel; each output is one
// chain of k VFMADD231PS steps in ascending kk, as on the YMM tile.
TEXT ·tile4x32AVX512(SB), NOSPLIT, $0-97
	MOVQ x0+32(FP), R8
	MOVQ x1+40(FP), R9
	MOVQ x2+48(FP), R10
	MOVQ x3+56(FP), R11
	MOVQ w+64(FP), SI
	MOVQ k+72(FP), CX
	MOVQ stride+80(FP), DX
	MOVQ panelStep+88(FP), DI
	SHLQ $2, DX
	SHLQ $2, DI
	XORQ AX, AX
	MOVBLZX seeded+96(FP), BX
	TESTL BX, BX
	JNZ  seed512
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	JMP  start512

seed512:
	MOVQ d0+0(FP), BX
	VMOVUPS (BX), Z0
	VMOVUPS 64(BX), Z1
	MOVQ d1+8(FP), BX
	VMOVUPS (BX), Z2
	VMOVUPS 64(BX), Z3
	MOVQ d2+16(FP), BX
	VMOVUPS (BX), Z4
	VMOVUPS 64(BX), Z5
	MOVQ d3+24(FP), BX
	VMOVUPS (BX), Z6
	VMOVUPS 64(BX), Z7

start512:
	TESTQ CX, CX
	JLE  store512

loop512:
	VMOVUPS (SI), Z8
	VMOVUPS (SI)(DI*1), Z9
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
	ADDQ DX, SI
	INCQ AX
	CMPQ AX, CX
	JLT  loop512

store512:
	MOVQ d0+0(FP), R8
	MOVQ d1+8(FP), R9
	MOVQ d2+16(FP), R10
	MOVQ d3+24(FP), R11
	VMOVUPS Z0, (R8)
	VMOVUPS Z1, 64(R8)
	VMOVUPS Z2, (R9)
	VMOVUPS Z3, 64(R9)
	VMOVUPS Z4, (R10)
	VMOVUPS Z5, 64(R10)
	VMOVUPS Z6, (R11)
	VMOVUPS Z7, 64(R11)
	VZEROUPPER
	RET

// func dotsFMA(dst, a *float32, stride, rows int, b *float32, n int)
//
// dst[r] = Σ_i a[r*stride+i] · b[i] for rows r and n ≥ 1 terms: one
// VFMADD231SS chain per row, from +0, in ascending i — FMA32 per step. Eight
// rows run at once (eight independent chains cover the FMA latency), the
// remainder one at a time. In the eight-row loop R9 and R13 walk rows 0 and
// 4, and DX / R12 (one and three strides) reach the rows between.
TEXT ·dotsFMA(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ rows+24(FP), BX
	MOVQ b+32(FP), R8
	MOVQ n+40(FP), CX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R12

dotrows8:
	CMPQ BX, $8
	JLT  dotrows1
	MOVQ SI, R9
	LEAQ (SI)(DX*4), R13
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	XORQ AX, AX

dot8:
	VMOVSS (R8)(AX*4), X8
	VFMADD231SS (R9), X8, X0
	VFMADD231SS (R9)(DX*1), X8, X1
	VFMADD231SS (R9)(DX*2), X8, X2
	VFMADD231SS (R9)(R12*1), X8, X3
	VFMADD231SS (R13), X8, X4
	VFMADD231SS (R13)(DX*1), X8, X5
	VFMADD231SS (R13)(DX*2), X8, X6
	VFMADD231SS (R13)(R12*1), X8, X7
	ADDQ $4, R9
	ADDQ $4, R13
	INCQ AX
	CMPQ AX, CX
	JLT  dot8
	VMOVSS X0, (DI)
	VMOVSS X1, 4(DI)
	VMOVSS X2, 8(DI)
	VMOVSS X3, 12(DI)
	VMOVSS X4, 16(DI)
	VMOVSS X5, 20(DI)
	VMOVSS X6, 24(DI)
	VMOVSS X7, 28(DI)
	ADDQ $32, DI
	LEAQ (SI)(DX*8), SI
	SUBQ $8, BX
	JMP  dotrows8

dotrows1:
	TESTQ BX, BX
	JLE  dotdone
	VXORPS X0, X0, X0
	XORQ AX, AX

dot1:
	VMOVSS (R8)(AX*4), X4
	VFMADD231SS (SI)(AX*4), X4, X0
	INCQ AX
	CMPQ AX, CX
	JLT  dot1
	VMOVSS X0, (DI)
	ADDQ $4, DI
	ADDQ DX, SI
	DECQ BX
	JMP  dotrows1

dotdone:
	RET

// func axpyFMA(dst *float32, alpha float32, x *float32, n8 int)
//
// dst[i] = alpha · x[i] + dst[i], rounded once (VFMADD231PS), for the first
// 8·n8 elements.
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	VBROADCASTSS alpha+8(FP), Y1
	MOVQ x+16(FP), SI
	MOVQ n8+24(FP), CX
	TESTQ CX, CX
	JLE  axpydone

axpyloop:
	VMOVUPS (DI), Y0
	VFMADD231PS (SI), Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  axpyloop

axpydone:
	VZEROUPPER
	RET

// TRANSPOSE8 transposes the 8×8 float block whose rows start at base, DX
// bytes apart (R8 = 3·DX), and stores column i at DI + off + 64·i: the 8-float
// half of panel row i these eight tokens own.
#define TRANSPOSE8(base, off) \
	LEAQ (base)(DX*4), R10 \
	VMOVUPS (base), Y0 \
	VMOVUPS (base)(DX*1), Y1 \
	VMOVUPS (base)(DX*2), Y2 \
	VMOVUPS (base)(R8*1), Y3 \
	VMOVUPS (R10), Y4 \
	VMOVUPS (R10)(DX*1), Y5 \
	VMOVUPS (R10)(DX*2), Y6 \
	VMOVUPS (R10)(R8*1), Y7 \
	VUNPCKLPS Y1, Y0, Y8 \
	VUNPCKHPS Y1, Y0, Y9 \
	VUNPCKLPS Y3, Y2, Y10 \
	VUNPCKHPS Y3, Y2, Y11 \
	VUNPCKLPS Y5, Y4, Y12 \
	VUNPCKHPS Y5, Y4, Y13 \
	VUNPCKLPS Y7, Y6, Y14 \
	VUNPCKHPS Y7, Y6, Y15 \
	VSHUFPS $0x44, Y10, Y8, Y0 \
	VSHUFPS $0xEE, Y10, Y8, Y1 \
	VSHUFPS $0x44, Y11, Y9, Y2 \
	VSHUFPS $0xEE, Y11, Y9, Y3 \
	VSHUFPS $0x44, Y14, Y12, Y4 \
	VSHUFPS $0xEE, Y14, Y12, Y5 \
	VSHUFPS $0x44, Y15, Y13, Y6 \
	VSHUFPS $0xEE, Y15, Y13, Y7 \
	VPERM2F128 $0x20, Y4, Y0, Y8 \
	VPERM2F128 $0x20, Y5, Y1, Y9 \
	VPERM2F128 $0x20, Y6, Y2, Y10 \
	VPERM2F128 $0x20, Y7, Y3, Y11 \
	VPERM2F128 $0x31, Y4, Y0, Y12 \
	VPERM2F128 $0x31, Y5, Y1, Y13 \
	VPERM2F128 $0x31, Y6, Y2, Y14 \
	VPERM2F128 $0x31, Y7, Y3, Y15 \
	VMOVUPS Y8, off+0(DI) \
	VMOVUPS Y9, off+64(DI) \
	VMOVUPS Y10, off+128(DI) \
	VMOVUPS Y11, off+192(DI) \
	VMOVUPS Y12, off+256(DI) \
	VMOVUPS Y13, off+320(DI) \
	VMOVUPS Y14, off+384(DI) \
	VMOVUPS Y15, off+448(DI)

// func relay16AVX2(panel, rows *float32, stride, d8 int)
//
// panel[j*16+r] = rows[r*stride+j] for 16 rows r and 8·d8 columns j: the
// dim-major re-lay of one sub-tile's key rows, eight dims per iteration as
// two in-register 8×8 transposes (rows 0–7, rows 8–15). Data movement only.
TEXT ·relay16AVX2(SB), NOSPLIT, $0-32
	MOVQ panel+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ d8+24(FP), CX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R8
	LEAQ (SI)(DX*8), R9
	TESTQ CX, CX
	JLE  relaydone

relayloop:
	TRANSPOSE8(SI, 0)
	TRANSPOSE8(R9, 32)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $512, DI
	DECQ CX
	JNZ  relayloop

relaydone:
	VZEROUPPER
	RET

// func dequantRows8AVX2(dst *float32, dstStride int, codes *uint8, codeStride int, lod *float32, n, d8 int)
//
// dst[i*dstStride+j] = float32(codes[i*codeStride+j])·Δ_i + lo_i for n rows
// i and 8·d8 columns j, (lo_i, Δ_i) = lod[2i], lod[2i+1]: 8-bit codes to
// fp32 with DequantSliceInto's two roundings (convert is exact, then
// VMULPS, then VADDPS — not an FMA step).
TEXT ·dequantRows8AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), DX
	MOVQ codes+16(FP), SI
	MOVQ codeStride+24(FP), BX
	MOVQ lod+32(FP), R8
	MOVQ n+40(FP), CX
	MOVQ d8+48(FP), R9
	SHLQ $2, DX
	TESTQ CX, CX
	JLE  dequantdone
	TESTQ R9, R9
	JLE  dequantdone

dequantrow:
	VBROADCASTSS (R8), Y1
	VBROADCASTSS 4(R8), Y2
	XORQ AX, AX

dequantcol:
	VPMOVZXBD (SI)(AX*8), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS Y2, Y0, Y0
	VADDPS Y1, Y0, Y0
	MOVQ AX, R10
	SHLQ $5, R10
	VMOVUPS Y0, (DI)(R10*1)
	INCQ AX
	CMPQ AX, R9
	JLT  dequantcol
	ADDQ DX, DI
	ADDQ BX, SI
	ADDQ $8, R8
	DECQ CX
	JNZ  dequantrow

dequantdone:
	VZEROUPPER
	RET
