#include "textflag.h"
#include "zmm_amd64.h"

// The attention page walk's kernels on the AVX-512 arm (attend.go): the
// dim-major panel of 16 fp32 rows, the score tile over a whole query block,
// the value tiles over fp32 rows and over 8-bit codes, and the softmax across
// a block's score rows. Every score and every output is one FMA chain in
// ascending order, every softmax row one ascending max scan and one ascending
// sum: the arithmetic of Dot, AXPY and Softmax, with up to sixteen chains per
// instruction.

// cols<> is the dword vector 0, 1, …, 15: column j of a 16-column block is
// live in the rows whose remaining bound is above cols<>[j].
DATA cols<>+0(SB)/4, $0
DATA cols<>+4(SB)/4, $1
DATA cols<>+8(SB)/4, $2
DATA cols<>+12(SB)/4, $3
DATA cols<>+16(SB)/4, $4
DATA cols<>+20(SB)/4, $5
DATA cols<>+24(SB)/4, $6
DATA cols<>+28(SB)/4, $7
DATA cols<>+32(SB)/4, $8
DATA cols<>+36(SB)/4, $9
DATA cols<>+40(SB)/4, $10
DATA cols<>+44(SB)/4, $11
DATA cols<>+48(SB)/4, $12
DATA cols<>+52(SB)/4, $13
DATA cols<>+56(SB)/4, $14
DATA cols<>+60(SB)/4, $15
GLOBL cols<>(SB), RODATA|NOPTR, $64

// ROWS16 sets R8–R11 to rows 0, 4, 8 and 12 of the 16 rows at SI, DX bytes
// apart (R12 = 3·DX): row r is then (R8 + r/4·4·DX) + r%4·DX.
#define ROWS16 \
	MOVQ SI, R8 \
	LEAQ (R8)(DX*4), R9 \
	LEAQ (R9)(DX*4), R10 \
	LEAQ (R10)(DX*4), R11

// LOAD16 loads 16 floats of each of the 16 rows ROWS16 addresses into Z0–Z15.
#define LOAD16 \
	VMOVUPS (R8), Z0 \
	VMOVUPS (R8)(DX*1), Z1 \
	VMOVUPS (R8)(DX*2), Z2 \
	VMOVUPS (R8)(R12*1), Z3 \
	VMOVUPS (R9), Z4 \
	VMOVUPS (R9)(DX*1), Z5 \
	VMOVUPS (R9)(DX*2), Z6 \
	VMOVUPS (R9)(R12*1), Z7 \
	VMOVUPS (R10), Z8 \
	VMOVUPS (R10)(DX*1), Z9 \
	VMOVUPS (R10)(DX*2), Z10 \
	VMOVUPS (R10)(R12*1), Z11 \
	VMOVUPS (R11), Z12 \
	VMOVUPS (R11)(DX*1), Z13 \
	VMOVUPS (R11)(DX*2), Z14 \
	VMOVUPS (R11)(R12*1), Z15

// STORE16 is LOAD16's store.
#define STORE16 \
	VMOVUPS Z0, (R8) \
	VMOVUPS Z1, (R8)(DX*1) \
	VMOVUPS Z2, (R8)(DX*2) \
	VMOVUPS Z3, (R8)(R12*1) \
	VMOVUPS Z4, (R9) \
	VMOVUPS Z5, (R9)(DX*1) \
	VMOVUPS Z6, (R9)(DX*2) \
	VMOVUPS Z7, (R9)(R12*1) \
	VMOVUPS Z8, (R10) \
	VMOVUPS Z9, (R10)(DX*1) \
	VMOVUPS Z10, (R10)(DX*2) \
	VMOVUPS Z11, (R10)(R12*1) \
	VMOVUPS Z12, (R11) \
	VMOVUPS Z13, (R11)(DX*1) \
	VMOVUPS Z14, (R11)(DX*2) \
	VMOVUPS Z15, (R11)(R12*1)

// STORE8 is STORE16 for Z0–Z7 (R8, R9).
#define STORE8 \
	VMOVUPS Z0, (R8) \
	VMOVUPS Z1, (R8)(DX*1) \
	VMOVUPS Z2, (R8)(DX*2) \
	VMOVUPS Z3, (R8)(R12*1) \
	VMOVUPS Z4, (R9) \
	VMOVUPS Z5, (R9)(DX*1) \
	VMOVUPS Z6, (R9)(DX*2) \
	VMOVUPS Z7, (R9)(R12*1)

// The value tiles below address the weights of lane l at SI + l·DX (lanes
// 0–3) and R13 + (l−4)·DX (lanes 4–7), R12 = 3·DX, both stepping one token
// (4 bytes) per step.
#define WEIGHTS8 \
	MOVQ w+8(FP), SI \
	MOVQ ws+16(FP), DX \
	SHLQ $2, DX \
	LEAQ (DX)(DX*2), R12 \
	LEAQ (SI)(DX*4), R13

// LODS4 loads the four lane pairs' lod pointers into AX, DI, R14 and R15, and
// the code stride into BX.
#define LODS4 \
	MOVQ lod+32(FP), BX \
	MOVQ 0(BX), AX \
	MOVQ 8(BX), DI \
	MOVQ 16(BX), R14 \
	MOVQ 24(BX), R15 \
	MOVQ codeStride+48(FP), BX

// func panelF32AVX512(panel, rows *float32, stride, d16 int)
//
// panel[j*16+t] = rows[t*stride+j] for 16 rows t and 16·d16 dims j: 16 fp32
// key rows laid dim-major, 16 dims at a time as one in-register 16×16
// transpose. Data movement only.
TEXT ·panelF32AVX512(SB), NOSPLIT, $0-32
	MOVQ panel+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ d16+24(FP), CX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R12
	TESTQ CX, CX
	JLE  pf32done

pf32loop:
	ROWS16
	LOAD16
	TRANSPOSE16
	PANEL16
	ADDQ $64, SI
	ADDQ $1024, DI
	DECQ CX
	JNZ  pf32loop

pf32done:
	VZEROUPPER
	RET

// SCORE2 continues the chains of two query slots — their dim-j query values
// off0 and off1 bytes into the dim-major query row at SI + AX — with the
// panel row in zp.
#define SCORE2(off0, off1, zp, za, zb) \
	VFMADD231PS.BCST off0(SI)(AX*1), zp, za \
	VFMADD231PS.BCST off1(SI)(AX*1), zp, zb

// func scoreAVX512(s *float32, ss int, qT *float32, d int, panels *[8]*float32, slots int, one bool)
//
// s[i*ss+t] = Σ_j qT[j*16+i] · panels[i/2][j*16+t] for the 16 tokens t and
// query slots i < slots (8 or 16): the score tile of a whole query block. A
// slot's lanes run across tokens, so every score is one chain of d
// VFMADD231PS steps from +0 in ascending j — Dot's arithmetic. Slots pair up
// on a panel (a KV head's keys, dim-major): pair p reads panels[p]. With one,
// every pair reads panels[0] and the row is loaded once per j.
TEXT ·scoreAVX512(SB), NOSPLIT, $0-49
	MOVQ qT+16(FP), SI
	MOVQ d+24(FP), CX
	MOVQ panels+32(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), R12
	MOVQ 40(AX), R13
	MOVQ 48(AX), R14
	MOVQ 56(AX), R15
	MOVQ slots+40(FP), DX
	MOVBLZX one+48(FP), BX
	XORQ AX, AX
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
	TESTQ CX, CX
	JLE  sstore
	CMPQ DX, $8
	JEQ  s8
	TESTL BX, BX
	JNZ  s16one

s16pairs:
	VMOVUPS (R8)(AX*1), Z16
	VMOVUPS (R9)(AX*1), Z17
	VMOVUPS (R10)(AX*1), Z18
	VMOVUPS (R11)(AX*1), Z19
	VMOVUPS (R12)(AX*1), Z20
	VMOVUPS (R13)(AX*1), Z21
	VMOVUPS (R14)(AX*1), Z22
	VMOVUPS (R15)(AX*1), Z23
	SCORE2(0, 4, Z16, Z0, Z1)
	SCORE2(8, 12, Z17, Z2, Z3)
	SCORE2(16, 20, Z18, Z4, Z5)
	SCORE2(24, 28, Z19, Z6, Z7)
	SCORE2(32, 36, Z20, Z8, Z9)
	SCORE2(40, 44, Z21, Z10, Z11)
	SCORE2(48, 52, Z22, Z12, Z13)
	SCORE2(56, 60, Z23, Z14, Z15)
	ADDQ $64, AX
	DECQ CX
	JNZ  s16pairs
	JMP  sstore

s16one:
	VMOVUPS (R8)(AX*1), Z16
	SCORE2(0, 4, Z16, Z0, Z1)
	SCORE2(8, 12, Z16, Z2, Z3)
	SCORE2(16, 20, Z16, Z4, Z5)
	SCORE2(24, 28, Z16, Z6, Z7)
	SCORE2(32, 36, Z16, Z8, Z9)
	SCORE2(40, 44, Z16, Z10, Z11)
	SCORE2(48, 52, Z16, Z12, Z13)
	SCORE2(56, 60, Z16, Z14, Z15)
	ADDQ $64, AX
	DECQ CX
	JNZ  s16one
	JMP  sstore

s8:
	TESTL BX, BX
	JNZ  s8one

s8pairs:
	VMOVUPS (R8)(AX*1), Z16
	VMOVUPS (R9)(AX*1), Z17
	VMOVUPS (R10)(AX*1), Z18
	VMOVUPS (R11)(AX*1), Z19
	SCORE2(0, 4, Z16, Z0, Z1)
	SCORE2(8, 12, Z17, Z2, Z3)
	SCORE2(16, 20, Z18, Z4, Z5)
	SCORE2(24, 28, Z19, Z6, Z7)
	ADDQ $64, AX
	DECQ CX
	JNZ  s8pairs
	JMP  sstore

s8one:
	VMOVUPS (R8)(AX*1), Z16
	SCORE2(0, 4, Z16, Z0, Z1)
	SCORE2(8, 12, Z16, Z2, Z3)
	SCORE2(16, 20, Z16, Z4, Z5)
	SCORE2(24, 28, Z16, Z6, Z7)
	ADDQ $64, AX
	DECQ CX
	JNZ  s8one

sstore:
	MOVQ s+0(FP), SI
	MOVQ ss+8(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R12
	ROWS16
	MOVQ slots+40(FP), AX
	CMPQ AX, $8
	JEQ  sstore8
	STORE16
	VZEROUPPER
	RET

sstore8:
	STORE8
	VZEROUPPER
	RET

// SEED8 loads the eight lanes' outputs from the pointers at BX into Z0, Z2,
// …, Z14, and when pair (AX ≠ 0) their second halves into Z1, Z3, …, Z15.
#define SEED8 \
	MOVQ 0(BX), DI \
	VMOVUPS (DI), Z0 \
	MOVQ 8(BX), DI \
	VMOVUPS (DI), Z2 \
	MOVQ 16(BX), DI \
	VMOVUPS (DI), Z4 \
	MOVQ 24(BX), DI \
	VMOVUPS (DI), Z6 \
	MOVQ 32(BX), DI \
	VMOVUPS (DI), Z8 \
	MOVQ 40(BX), DI \
	VMOVUPS (DI), Z10 \
	MOVQ 48(BX), DI \
	VMOVUPS (DI), Z12 \
	MOVQ 56(BX), DI \
	VMOVUPS (DI), Z14 \
	TESTL AX, AX \
	JZ   seeded \
	MOVQ 0(BX), DI \
	VMOVUPS 64(DI), Z1 \
	MOVQ 8(BX), DI \
	VMOVUPS 64(DI), Z3 \
	MOVQ 16(BX), DI \
	VMOVUPS 64(DI), Z5 \
	MOVQ 24(BX), DI \
	VMOVUPS 64(DI), Z7 \
	MOVQ 32(BX), DI \
	VMOVUPS 64(DI), Z9 \
	MOVQ 40(BX), DI \
	VMOVUPS 64(DI), Z11 \
	MOVQ 48(BX), DI \
	VMOVUPS 64(DI), Z13 \
	MOVQ 56(BX), DI \
	VMOVUPS 64(DI), Z15 \
seeded:

// OUT8 is SEED8's store.
#define OUT8 \
	MOVQ 0(BX), DI \
	VMOVUPS Z0, (DI) \
	MOVQ 8(BX), DI \
	VMOVUPS Z2, (DI) \
	MOVQ 16(BX), DI \
	VMOVUPS Z4, (DI) \
	MOVQ 24(BX), DI \
	VMOVUPS Z6, (DI) \
	MOVQ 32(BX), DI \
	VMOVUPS Z8, (DI) \
	MOVQ 40(BX), DI \
	VMOVUPS Z10, (DI) \
	MOVQ 48(BX), DI \
	VMOVUPS Z12, (DI) \
	MOVQ 56(BX), DI \
	VMOVUPS Z14, (DI) \
	TESTL AX, AX \
	JZ   outdone \
	MOVQ 0(BX), DI \
	VMOVUPS Z1, 64(DI) \
	MOVQ 8(BX), DI \
	VMOVUPS Z3, 64(DI) \
	MOVQ 16(BX), DI \
	VMOVUPS Z5, 64(DI) \
	MOVQ 24(BX), DI \
	VMOVUPS Z7, 64(DI) \
	MOVQ 32(BX), DI \
	VMOVUPS Z9, 64(DI) \
	MOVQ 40(BX), DI \
	VMOVUPS Z11, 64(DI) \
	MOVQ 48(BX), DI \
	VMOVUPS Z13, 64(DI) \
	MOVQ 56(BX), DI \
	VMOVUPS Z15, 64(DI) \
outdone:

// ONE8 continues the eight lanes' 16-column chains by one token whose value
// rows, one per lane pair, are in Z16–Z19.
#define ONE8 \
	VFMADD231PS.BCST (SI), Z16, Z0 \
	VFMADD231PS.BCST (SI)(DX*1), Z16, Z2 \
	VFMADD231PS.BCST (SI)(DX*2), Z17, Z4 \
	VFMADD231PS.BCST (SI)(R12*1), Z17, Z6 \
	VFMADD231PS.BCST (R13), Z18, Z8 \
	VFMADD231PS.BCST (R13)(DX*1), Z18, Z10 \
	VFMADD231PS.BCST (R13)(DX*2), Z19, Z12 \
	VFMADD231PS.BCST (R13)(R12*1), Z19, Z14

// PAIR8 continues the eight lanes' 32-column chains by one token whose value
// rows, two registers per lane pair, are in Z16–Z23.
#define PAIR8 \
	VBROADCASTSS (SI), Z24 \
	VBROADCASTSS (SI)(DX*1), Z25 \
	VBROADCASTSS (SI)(DX*2), Z26 \
	VBROADCASTSS (SI)(R12*1), Z27 \
	VBROADCASTSS (R13), Z28 \
	VBROADCASTSS (R13)(DX*1), Z29 \
	VBROADCASTSS (R13)(DX*2), Z30 \
	VBROADCASTSS (R13)(R12*1), Z31 \
	VFMADD231PS Z16, Z24, Z0 \
	VFMADD231PS Z17, Z24, Z1 \
	VFMADD231PS Z16, Z25, Z2 \
	VFMADD231PS Z17, Z25, Z3 \
	VFMADD231PS Z18, Z26, Z4 \
	VFMADD231PS Z19, Z26, Z5 \
	VFMADD231PS Z18, Z27, Z6 \
	VFMADD231PS Z19, Z27, Z7 \
	VFMADD231PS Z20, Z28, Z8 \
	VFMADD231PS Z21, Z28, Z9 \
	VFMADD231PS Z20, Z29, Z10 \
	VFMADD231PS Z21, Z29, Z11 \
	VFMADD231PS Z22, Z30, Z12 \
	VFMADD231PS Z23, Z30, Z13 \
	VFMADD231PS Z22, Z31, Z14 \
	VFMADD231PS Z23, Z31, Z15

// STEPF32 steps the fp32 value tile's pointers to the next token.
#define STEPF32 \
	ADDQ $4, SI \
	ADDQ $4, R13 \
	ADDQ BX, R8 \
	ADDQ BX, R9 \
	ADDQ BX, R10 \
	ADDQ BX, R11

// func valueAVX512(d *[8]*float32, w *float32, ws int, v *[4]*float32, k, stride int, pair, one bool)
//
// The value pass's seeded tile over fp32 rows: d[l][c] += Σ_kk w[l*ws+kk] ·
// v[l/2][kk*stride+c] for eight lanes l and the 16 columns c (32 when pair),
// one VFMADD231PS per token in ascending kk, continuing each output's chain
// from its current value — the per-token AXPY loop's arithmetic. Lanes pair
// up on a value source (a KV head's rows): pair p reads v[p]. With one, every
// pair reads v[0] and each row is loaded once.
TEXT ·valueAVX512(SB), NOSPLIT, $0-50
	MOVQ d+0(FP), BX
	MOVBLZX pair+48(FP), AX
	SEED8
	WEIGHTS8
	MOVQ v+24(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ k+32(FP), CX
	MOVQ stride+40(FP), BX
	SHLQ $2, BX
	MOVBLZX pair+48(FP), AX
	MOVBLZX one+49(FP), DI
	TESTQ CX, CX
	JLE  vdone
	TESTL AX, AX
	JNZ  vpairs
	TESTL DI, DI
	JNZ  voneone

vone:
	VMOVUPS (R8), Z16
	VMOVUPS (R9), Z17
	VMOVUPS (R10), Z18
	VMOVUPS (R11), Z19
	ONE8
	STEPF32
	DECQ CX
	JNZ  vone
	JMP  vdone

voneone:
	VMOVUPS (R8), Z16
	VMOVAPS Z16, Z17
	VMOVAPS Z16, Z18
	VMOVAPS Z16, Z19
	ONE8
	STEPF32
	DECQ CX
	JNZ  voneone
	JMP  vdone

vpairs:
	TESTL DI, DI
	JNZ  vpairone

vpair:
	VMOVUPS (R8), Z16
	VMOVUPS 64(R8), Z17
	VMOVUPS (R9), Z18
	VMOVUPS 64(R9), Z19
	VMOVUPS (R10), Z20
	VMOVUPS 64(R10), Z21
	VMOVUPS (R11), Z22
	VMOVUPS 64(R11), Z23
	PAIR8
	STEPF32
	DECQ CX
	JNZ  vpair
	JMP  vdone

vpairone:
	VMOVUPS (R8), Z16
	VMOVUPS 64(R8), Z17
	VMOVAPS Z16, Z18
	VMOVAPS Z17, Z19
	VMOVAPS Z16, Z20
	VMOVAPS Z17, Z21
	VMOVAPS Z16, Z22
	VMOVAPS Z17, Z23
	PAIR8
	STEPF32
	DECQ CX
	JNZ  vpairone

vdone:
	MOVQ d+0(FP), BX
	OUT8
	VZEROUPPER
	RET

// DQ16 dequantizes the 16 codes at off(codes) into Z with the token's
// (lo, Δ) at lod: float32(code)·Δ + lo, two roundings, never an FMA —
// Rows.TokenInto's arithmetic.
#define DQ16(codes, lod, off, Z) \
	VPMOVZXBD off(codes), Z \
	VCVTDQ2PS Z, Z \
	VMULPS.BCST 4(lod), Z, Z \
	VADDPS.BCST (lod), Z, Z

// STEPQ8 steps the int8 value tile's pointers to the next token.
#define STEPQ8 \
	ADDQ $4, SI \
	ADDQ $4, R13 \
	ADDQ BX, R8 \
	ADDQ BX, R9 \
	ADDQ BX, R10 \
	ADDQ BX, R11 \
	ADDQ $8, AX \
	ADDQ $8, DI \
	ADDQ $8, R14 \
	ADDQ $8, R15

// func valueQ8AVX512(d *[8]*float32, w *float32, ws int, codes *[4]*uint8, lod *[4]*float32, k, codeStride int, pair, one bool)
//
// valueAVX512 over 8-bit codes: lane pair p's value rows are the codes at
// codes[p], codeStride bytes apart, each row dequantized in registers with
// its token's (lo, Δ) pair from lod[p] (two floats per token) before the
// lanes' FMA steps. With one, every pair reads codes[0] and lod[0], and each
// row is dequantized once.
TEXT ·valueQ8AVX512(SB), NOSPLIT, $0-58
	MOVQ d+0(FP), BX
	MOVBLZX pair+56(FP), AX
	SEED8
	WEIGHTS8
	MOVQ codes+24(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ k+40(FP), CX
	TESTQ CX, CX
	JLE  q8done
	MOVBLZX pair+56(FP), AX
	MOVBLZX one+57(FP), BX
	LEAL (BX)(AX*2), AX
	CMPL AX, $1
	JEQ  q8lodsoneone
	JGT  q8lodspair
	LODS4
	JMP  q8one

q8lodsoneone:
	LODS4
	JMP  q8oneone

q8lodspair:
	CMPL AX, $3
	JEQ  q8lodspairone
	LODS4
	JMP  q8pair

q8lodspairone:
	LODS4
	JMP  q8pairone

q8one:
	DQ16(R8, AX, 0, Z16)
	DQ16(R9, DI, 0, Z17)
	DQ16(R10, R14, 0, Z18)
	DQ16(R11, R15, 0, Z19)
	ONE8
	STEPQ8
	DECQ CX
	JNZ  q8one
	JMP  q8done

q8oneone:
	DQ16(R8, AX, 0, Z16)
	VMOVAPS Z16, Z17
	VMOVAPS Z16, Z18
	VMOVAPS Z16, Z19
	ONE8
	STEPQ8
	DECQ CX
	JNZ  q8oneone
	JMP  q8done

q8pair:
	DQ16(R8, AX, 0, Z16)
	DQ16(R8, AX, 16, Z17)
	DQ16(R9, DI, 0, Z18)
	DQ16(R9, DI, 16, Z19)
	DQ16(R10, R14, 0, Z20)
	DQ16(R10, R14, 16, Z21)
	DQ16(R11, R15, 0, Z22)
	DQ16(R11, R15, 16, Z23)
	PAIR8
	STEPQ8
	DECQ CX
	JNZ  q8pair
	JMP  q8done

q8pairone:
	DQ16(R8, AX, 0, Z16)
	DQ16(R8, AX, 16, Z17)
	VMOVAPS Z16, Z18
	VMOVAPS Z17, Z19
	VMOVAPS Z16, Z20
	VMOVAPS Z17, Z21
	VMOVAPS Z16, Z22
	VMOVAPS Z17, Z23
	PAIR8
	STEPQ8
	DECQ CX
	JNZ  q8pairone

q8done:
	MOVQ d+0(FP), BX
	MOVBLZX pair+56(FP), AX
	OUT8
	VZEROUPPER
	RET

// SCALE16 multiplies Z0–Z15 by Z16.
#define SCALE16 \
	VMULPS Z16, Z0, Z0 \
	VMULPS Z16, Z1, Z1 \
	VMULPS Z16, Z2, Z2 \
	VMULPS Z16, Z3, Z3 \
	VMULPS Z16, Z4, Z4 \
	VMULPS Z16, Z5, Z5 \
	VMULPS Z16, Z6, Z6 \
	VMULPS Z16, Z7, Z7 \
	VMULPS Z16, Z8, Z8 \
	VMULPS Z16, Z9, Z9 \
	VMULPS Z16, Z10, Z10 \
	VMULPS Z16, Z11, Z11 \
	VMULPS Z16, Z12, Z12 \
	VMULPS Z16, Z13, Z13 \
	VMULPS Z16, Z14, Z14 \
	VMULPS Z16, Z15, Z15

// REMAIN sets Z17 to each row's bound minus the block's first column (R13):
// how many of the block's columns the row still has.
#define REMAIN \
	VMOVDQU32 (R14), Z17 \
	VPBROADCASTD R13, Z18 \
	VPSUBD Z18, Z17, Z17

// MAXCOL is one step of every row's max scan, column j in Z: where the row
// has the column and Z > max (ordered: never for a NaN on either side), max
// takes Z — Softmax's v > max, keep-first.
#define MAXCOL(j, Z) \
	VPCMPD.BCST $6, (j*4)(R15), Z17, K1 \
	VCMPPS $0x1E, Z28, Z, K1, K2 \
	VMOVAPS Z, K2, Z28

// EXPCOL replaces column j in Z with Exp32(Z − max) and adds it to the sum of
// every row that has the column.
#define EXPCOL(j, Z) \
	VSUBPS Z28, Z, Z \
	EXP16(Z, Z18, Z19, Z20) \
	VPCMPD.BCST $6, (j*4)(R15), Z17, K1 \
	VADDPS Z, Z29, K1, Z29

// func softmaxRowsAVX512(rows *float32, stride int, bounds *[16]int32, n16 int, scale float32)
//
// Softmax of each of 16 rows, stride floats apart, scaled first: row r's
// first bounds[r] floats v become v·scale, then Softmax of those — the max
// scan keeping the first of equals, Exp32(v − max), the sum from +0, and
// e·(1/sum) — each row one ascending chain as Softmax runs it, one row per
// ZMM lane. Rows are read and written 16 columns at a time (n16 blocks),
// transposed in registers so a register holds one column of all 16 rows;
// past a row's bound the columns are masked out of its max and sum and
// written back with unspecified values. The row maxima and sums wait in the
// frame while a transpose needs every register.
TEXT ·softmaxRowsAVX512(SB), NOSPLIT, $128-36
	MOVQ rows+0(FP), SI
	MOVQ stride+8(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R12
	MOVQ bounds+16(FP), R14
	MOVQ n16+24(FP), CX
	LEAQ ·expTable(SB), BX
	LEAQ cols<>(SB), R15
	TESTQ CX, CX
	JLE  smdone

	// Pass 1: every row's max of its scaled values.
	ROWS16
	XORQ R13, R13
	MOVQ CX, DI

smmax:
	LOAD16
	TRANSPOSE16
	VBROADCASTSS scale+32(FP), Z16
	SCALE16
	REMAIN
	VMOVUPS m-128(SP), Z28
	TESTQ R13, R13
	JNZ  smmaxcols
	VMOVAPS Z0, Z28

smmaxcols:
	MAXCOL(0, Z0)
	MAXCOL(1, Z1)
	MAXCOL(2, Z2)
	MAXCOL(3, Z3)
	MAXCOL(4, Z4)
	MAXCOL(5, Z5)
	MAXCOL(6, Z6)
	MAXCOL(7, Z7)
	MAXCOL(8, Z8)
	MAXCOL(9, Z9)
	MAXCOL(10, Z10)
	MAXCOL(11, Z11)
	MAXCOL(12, Z12)
	MAXCOL(13, Z13)
	MAXCOL(14, Z14)
	MAXCOL(15, Z15)
	VMOVUPS Z28, m-128(SP)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $16, R13
	DECQ DI
	JNZ  smmax

	// Pass 2: e = Exp32(v·scale − max) in place, and every row's sum of e.
	ROWS16
	XORQ R13, R13
	MOVQ CX, DI
	VPXORD Z29, Z29, Z29
	VMOVUPS Z29, s-64(SP)

smexp:
	LOAD16
	TRANSPOSE16
	VBROADCASTSS scale+32(FP), Z16
	SCALE16
	REMAIN
	VMOVUPS m-128(SP), Z28
	VMOVUPS s-64(SP), Z29
	EXPCOL(0, Z0)
	EXPCOL(1, Z1)
	EXPCOL(2, Z2)
	EXPCOL(3, Z3)
	EXPCOL(4, Z4)
	EXPCOL(5, Z5)
	EXPCOL(6, Z6)
	EXPCOL(7, Z7)
	EXPCOL(8, Z8)
	EXPCOL(9, Z9)
	EXPCOL(10, Z10)
	EXPCOL(11, Z11)
	EXPCOL(12, Z12)
	EXPCOL(13, Z13)
	EXPCOL(14, Z14)
	EXPCOL(15, Z15)
	VMOVUPS Z29, s-64(SP)
	TRANSPOSE16
	STORE16
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $16, R13
	DECQ DI
	JNZ  smexp

	// Pass 3: row r's first ⌈bounds[r]/16⌉ blocks times 1/sum_r.
	VMOVUPS s-64(SP), Z29
	VBROADCASTSS 48(BX), Z30
	VDIVPS Z29, Z30, Z29
	VMOVUPS Z29, s-64(SP)
	LEAQ s-64(SP), R9
	XORQ R13, R13
	MOVQ SI, R8

smrow:
	MOVL (R14)(R13*4), AX
	ADDL $15, AX
	SARL $4, AX
	TESTL AX, AX
	JLE  smnext
	VBROADCASTSS (R9)(R13*4), Z16
	MOVQ R8, R10

smblock:
	VMULPS (R10), Z16, Z0
	VMOVUPS Z0, (R10)
	ADDQ $64, R10
	DECL AX
	JNZ  smblock

smnext:
	ADDQ DX, R8
	INCQ R13
	CMPQ R13, $16
	JLT  smrow

smdone:
	VZEROUPPER
	RET

// PREFETCHROWS issues PREFETCHT0 for every cache line that holds one of the
// BX bytes from each of CX rows, the first row at SI, DX bytes apart.
#define PREFETCHROWS \
	TESTQ CX, CX \
	JLE  pfdone \
pfrow: \
	MOVQ SI, DI \
	ANDQ $-64, DI \
	LEAQ -1(SI)(BX*1), AX \
	ANDQ $-64, AX \
pfline: \
	PREFETCHT0 (DI) \
	ADDQ $64, DI \
	CMPQ DI, AX \
	JLE  pfline \
	ADDQ DX, SI \
	DECQ CX \
	JNZ  pfrow \
pfdone: \
	RET

// func prefetchF32(p *float32, rows, strideBytes, widthBytes int)
//
// A hint, nothing read: the cache lines of the first widthBytes of each of
// rows rows, the first at p, strideBytes apart, towards L1.
TEXT ·prefetchF32(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ rows+8(FP), CX
	MOVQ strideBytes+16(FP), DX
	MOVQ widthBytes+24(FP), BX
	PREFETCHROWS

// func prefetchU8(p *uint8, rows, strideBytes, widthBytes int)
//
// prefetchF32 over rows of 8-bit codes.
TEXT ·prefetchU8(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ rows+8(FP), CX
	MOVQ strideBytes+16(FP), DX
	MOVQ widthBytes+24(FP), BX
	PREFETCHROWS
