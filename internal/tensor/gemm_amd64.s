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

// PAIR_PREFETCH_ROWS is how many k-rows ahead of the one it multiplies the
// pair tile prefetches each panel's weights: PAIR_PREFETCH_ROWS · stride
// bytes, so the row-major MatTMatTransInto stream is fetched row for row as
// the packed one is (eight 64-byte panel rows: 512 bytes ahead).
#define PAIR_PREFETCH_ROWS 8

// PAIR_ROW loads weight row kk of both panels into Z16 (at SI) and Z17 (DI
// bytes on) and prefetches row kk + PAIR_PREFETCH_ROWS of each (at BX).
#define PAIR_ROW \
	VMOVUPS (SI), Z16 \
	VMOVUPS (SI)(DI*1), Z17 \
	PREFETCHT0 (BX) \
	PREFETCHT0 (BX)(DI*1)

// PAIR_LANE is one lane's step at kk (AX): x[kk] broadcast into b, then one
// VFMADD231PS into each of the lane's two accumulators.
#define PAIR_LANE(x, b, lo, hi) \
	VBROADCASTSS (x)(AX*4), b \
	VFMADD231PS Z16, b, lo \
	VFMADD231PS Z17, b, hi

// PAIR_NEXT advances to weight row kk+1 and loops to label while kk < k.
#define PAIR_NEXT(label) \
	ADDQ DX, SI \
	ADDQ DX, BX \
	INCQ AX \
	CMPQ AX, CX \
	JLT  label \
	JMP  pairstore

// PAIR_STORE writes the lane whose output pointer is at off(BX) from its two
// accumulators.
#define PAIR_STORE(off, lo, hi) \
	MOVQ off(BX), AX \
	VMOVUPS lo, (AX) \
	VMOVUPS hi, 64(AX)

// func tilePairAVX512(d, x *[8]*float32, w *float32, lanes, k, stride, panelStep int)
//
// The AVX-512 GEMM tile at its group's true height: d[l][0:32] = Σ_kk
// x[l][kk] · (w[kk*stride:][0:16] ‖ w[panelStep+kk*stride:][0:16]) for the
// first lanes (1–8) lanes l; d[l] and x[l] past them are never read. Z0..Z15
// hold the accumulators, two registers per lane (Z(2l), Z(2l+1)), from +0;
// both weight rows are loaded once per kk for every lane, and each output is
// one chain of k VFMADD231PS steps in ascending kk — FMA32 per step, the
// scalar loop's arithmetic exactly. The k-loop is one of eight, one per
// height, so a lane is never computed twice. R8..R15 walk the lanes'
// activations, SI the weight row, BX the row PAIR_PREFETCH_ROWS ahead.
TEXT ·tilePairAVX512(SB), NOSPLIT, $0-56
	MOVQ x+8(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), R12
	MOVQ 40(AX), R13
	MOVQ 48(AX), R14
	MOVQ 56(AX), R15
	MOVQ w+16(FP), SI
	MOVQ k+32(FP), CX
	MOVQ stride+40(FP), DX
	MOVQ panelStep+48(FP), DI
	SHLQ $2, DX
	SHLQ $2, DI
	MOVQ DX, BX
	IMULQ $PAIR_PREFETCH_ROWS, BX
	ADDQ SI, BX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	XORQ AX, AX
	TESTQ CX, CX
	JLE  pairstore
	CMPQ lanes+24(FP), $8
	JEQ  pair8
	CMPQ lanes+24(FP), $7
	JEQ  pair7
	CMPQ lanes+24(FP), $6
	JEQ  pair6
	CMPQ lanes+24(FP), $5
	JEQ  pair5
	CMPQ lanes+24(FP), $4
	JEQ  pair4
	CMPQ lanes+24(FP), $3
	JEQ  pair3
	CMPQ lanes+24(FP), $2
	JEQ  pair2

pair1:
	PAIR_ROW
	PAIR_LANE(R8, Z18, Z0, Z1)
	PAIR_NEXT(pair1)

pair2:
	PAIR_ROW
	PAIR_LANE(R8, Z18, Z0, Z1)
	PAIR_LANE(R9, Z19, Z2, Z3)
	PAIR_NEXT(pair2)

pair3:
	PAIR_ROW
	PAIR_LANE(R8, Z18, Z0, Z1)
	PAIR_LANE(R9, Z19, Z2, Z3)
	PAIR_LANE(R10, Z20, Z4, Z5)
	PAIR_NEXT(pair3)

pair4:
	PAIR_ROW
	PAIR_LANE(R8, Z18, Z0, Z1)
	PAIR_LANE(R9, Z19, Z2, Z3)
	PAIR_LANE(R10, Z20, Z4, Z5)
	PAIR_LANE(R11, Z21, Z6, Z7)
	PAIR_NEXT(pair4)

pair5:
	PAIR_ROW
	PAIR_LANE(R8, Z18, Z0, Z1)
	PAIR_LANE(R9, Z19, Z2, Z3)
	PAIR_LANE(R10, Z20, Z4, Z5)
	PAIR_LANE(R11, Z21, Z6, Z7)
	PAIR_LANE(R12, Z22, Z8, Z9)
	PAIR_NEXT(pair5)

pair6:
	PAIR_ROW
	PAIR_LANE(R8, Z18, Z0, Z1)
	PAIR_LANE(R9, Z19, Z2, Z3)
	PAIR_LANE(R10, Z20, Z4, Z5)
	PAIR_LANE(R11, Z21, Z6, Z7)
	PAIR_LANE(R12, Z22, Z8, Z9)
	PAIR_LANE(R13, Z23, Z10, Z11)
	PAIR_NEXT(pair6)

pair7:
	PAIR_ROW
	PAIR_LANE(R8, Z18, Z0, Z1)
	PAIR_LANE(R9, Z19, Z2, Z3)
	PAIR_LANE(R10, Z20, Z4, Z5)
	PAIR_LANE(R11, Z21, Z6, Z7)
	PAIR_LANE(R12, Z22, Z8, Z9)
	PAIR_LANE(R13, Z23, Z10, Z11)
	PAIR_LANE(R14, Z24, Z12, Z13)
	PAIR_NEXT(pair7)

pair8:
	PAIR_ROW
	PAIR_LANE(R8, Z18, Z0, Z1)
	PAIR_LANE(R9, Z19, Z2, Z3)
	PAIR_LANE(R10, Z20, Z4, Z5)
	PAIR_LANE(R11, Z21, Z6, Z7)
	PAIR_LANE(R12, Z22, Z8, Z9)
	PAIR_LANE(R13, Z23, Z10, Z11)
	PAIR_LANE(R14, Z24, Z12, Z13)
	PAIR_LANE(R15, Z25, Z14, Z15)
	PAIR_NEXT(pair8)

pairstore:
	MOVQ d+0(FP), BX
	MOVQ lanes+24(FP), CX
	PAIR_STORE(0, Z0, Z1)
	CMPQ CX, $1
	JEQ  pairdone
	PAIR_STORE(8, Z2, Z3)
	CMPQ CX, $2
	JEQ  pairdone
	PAIR_STORE(16, Z4, Z5)
	CMPQ CX, $3
	JEQ  pairdone
	PAIR_STORE(24, Z6, Z7)
	CMPQ CX, $4
	JEQ  pairdone
	PAIR_STORE(32, Z8, Z9)
	CMPQ CX, $5
	JEQ  pairdone
	PAIR_STORE(40, Z10, Z11)
	CMPQ CX, $6
	JEQ  pairdone
	PAIR_STORE(48, Z12, Z13)
	CMPQ CX, $7
	JEQ  pairdone
	PAIR_STORE(56, Z14, Z15)

pairdone:
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
