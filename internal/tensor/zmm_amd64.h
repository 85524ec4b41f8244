// Macros the AVX-512 kernels share (attend_amd64.s, exp_amd64.s,
// quant_amd64.s).

// TRANSPOSE16 transposes the 16×16 floats in Z0–Z15 in registers: on entry
// Zr holds row r, on exit Zj holds column j (element r of Zj is row r's
// element j). Z16–Z31 are the temporaries. Data movement only.
#define TRANSPOSE16 \
	VUNPCKLPS Z1, Z0, Z16 \
	VUNPCKHPS Z1, Z0, Z17 \
	VUNPCKLPS Z3, Z2, Z18 \
	VUNPCKHPS Z3, Z2, Z19 \
	VUNPCKLPS Z5, Z4, Z20 \
	VUNPCKHPS Z5, Z4, Z21 \
	VUNPCKLPS Z7, Z6, Z22 \
	VUNPCKHPS Z7, Z6, Z23 \
	VUNPCKLPS Z9, Z8, Z24 \
	VUNPCKHPS Z9, Z8, Z25 \
	VUNPCKLPS Z11, Z10, Z26 \
	VUNPCKHPS Z11, Z10, Z27 \
	VUNPCKLPS Z13, Z12, Z28 \
	VUNPCKHPS Z13, Z12, Z29 \
	VUNPCKLPS Z15, Z14, Z30 \
	VUNPCKHPS Z15, Z14, Z31 \
	VSHUFPS $0x44, Z18, Z16, Z0 \
	VSHUFPS $0xEE, Z18, Z16, Z1 \
	VSHUFPS $0x44, Z19, Z17, Z2 \
	VSHUFPS $0xEE, Z19, Z17, Z3 \
	VSHUFPS $0x44, Z22, Z20, Z4 \
	VSHUFPS $0xEE, Z22, Z20, Z5 \
	VSHUFPS $0x44, Z23, Z21, Z6 \
	VSHUFPS $0xEE, Z23, Z21, Z7 \
	VSHUFPS $0x44, Z26, Z24, Z8 \
	VSHUFPS $0xEE, Z26, Z24, Z9 \
	VSHUFPS $0x44, Z27, Z25, Z10 \
	VSHUFPS $0xEE, Z27, Z25, Z11 \
	VSHUFPS $0x44, Z30, Z28, Z12 \
	VSHUFPS $0xEE, Z30, Z28, Z13 \
	VSHUFPS $0x44, Z31, Z29, Z14 \
	VSHUFPS $0xEE, Z31, Z29, Z15 \
	VSHUFF32X4 $0x88, Z4, Z0, Z16 \
	VSHUFF32X4 $0x88, Z5, Z1, Z17 \
	VSHUFF32X4 $0x88, Z6, Z2, Z18 \
	VSHUFF32X4 $0x88, Z7, Z3, Z19 \
	VSHUFF32X4 $0xDD, Z4, Z0, Z20 \
	VSHUFF32X4 $0xDD, Z5, Z1, Z21 \
	VSHUFF32X4 $0xDD, Z6, Z2, Z22 \
	VSHUFF32X4 $0xDD, Z7, Z3, Z23 \
	VSHUFF32X4 $0x88, Z12, Z8, Z24 \
	VSHUFF32X4 $0x88, Z13, Z9, Z25 \
	VSHUFF32X4 $0x88, Z14, Z10, Z26 \
	VSHUFF32X4 $0x88, Z15, Z11, Z27 \
	VSHUFF32X4 $0xDD, Z12, Z8, Z28 \
	VSHUFF32X4 $0xDD, Z13, Z9, Z29 \
	VSHUFF32X4 $0xDD, Z14, Z10, Z30 \
	VSHUFF32X4 $0xDD, Z15, Z11, Z31 \
	VSHUFF32X4 $0x88, Z24, Z16, Z0 \
	VSHUFF32X4 $0x88, Z25, Z17, Z1 \
	VSHUFF32X4 $0x88, Z26, Z18, Z2 \
	VSHUFF32X4 $0x88, Z27, Z19, Z3 \
	VSHUFF32X4 $0x88, Z28, Z20, Z4 \
	VSHUFF32X4 $0x88, Z29, Z21, Z5 \
	VSHUFF32X4 $0x88, Z30, Z22, Z6 \
	VSHUFF32X4 $0x88, Z31, Z23, Z7 \
	VSHUFF32X4 $0xDD, Z24, Z16, Z8 \
	VSHUFF32X4 $0xDD, Z25, Z17, Z9 \
	VSHUFF32X4 $0xDD, Z26, Z18, Z10 \
	VSHUFF32X4 $0xDD, Z27, Z19, Z11 \
	VSHUFF32X4 $0xDD, Z28, Z20, Z12 \
	VSHUFF32X4 $0xDD, Z29, Z21, Z13 \
	VSHUFF32X4 $0xDD, Z30, Z22, Z14 \
	VSHUFF32X4 $0xDD, Z31, Z23, Z15

// EXP16 replaces the sixteen floats in x with Exp32 of each: the operation
// sequence exp.go specifies, one instruction per operation, as EXP8 runs it
// on eight lanes, every constant broadcast from expTable (BX) by the
// instruction that uses it. n, t and u are clobbered. VMULPS then VADDPS /
// VSUBPS, never FMA: the specification rounds every product. VMAXPS returns
// its second source (the broadcast constant) when x is NaN: the NaN →
// low-clamp rule.
#define EXP16(x, n, t, u) \
	VMAXPS.BCST 0(BX), x, x \
	VMINPS.BCST 4(BX), x, x \
	VMULPS.BCST 8(BX), x, n \
	VADDPS.BCST 12(BX), n, n \
	VSUBPS.BCST 12(BX), n, n \
	VMULPS.BCST 16(BX), n, t \
	VSUBPS t, x, x \
	VMULPS.BCST 20(BX), n, t \
	VSUBPS t, x, x \
	VMULPS.BCST 24(BX), x, t \
	VADDPS.BCST 28(BX), t, t \
	VMULPS x, t, t \
	VADDPS.BCST 32(BX), t, t \
	VMULPS x, t, t \
	VADDPS.BCST 36(BX), t, t \
	VMULPS x, t, t \
	VADDPS.BCST 40(BX), t, t \
	VMULPS x, t, t \
	VADDPS.BCST 44(BX), t, t \
	VMULPS x, x, u \
	VMULPS u, t, t \
	VADDPS x, t, t \
	VADDPS.BCST 48(BX), t, t \
	VCVTTPS2DQ n, n \
	VPSLLD $23, n, n \
	VPADDD.BCST 48(BX), n, n \
	VMULPS n, t, x

// PANEL16 stores Z0–Z15 as 16 consecutive 16-float rows at DI: after
// TRANSPOSE16, the 16 panel rows of 16 dims.
#define PANEL16 \
	VMOVUPS Z0, 0(DI) \
	VMOVUPS Z1, 64(DI) \
	VMOVUPS Z2, 128(DI) \
	VMOVUPS Z3, 192(DI) \
	VMOVUPS Z4, 256(DI) \
	VMOVUPS Z5, 320(DI) \
	VMOVUPS Z6, 384(DI) \
	VMOVUPS Z7, 448(DI) \
	VMOVUPS Z8, 512(DI) \
	VMOVUPS Z9, 576(DI) \
	VMOVUPS Z10, 640(DI) \
	VMOVUPS Z11, 704(DI) \
	VMOVUPS Z12, 768(DI) \
	VMOVUPS Z13, 832(DI) \
	VMOVUPS Z14, 896(DI) \
	VMOVUPS Z15, 960(DI)
