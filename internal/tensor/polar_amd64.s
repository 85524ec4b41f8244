#include "textflag.h"

// func normalsAVX512(dst *float32, u, s *float64, n8 int, scale float32)
//
// dst[i] = normal32(u[i], s[i], scale) for the first 8·n8 elements: the
// operation sequence polar.go specifies on eight doubles per ZMM register,
// one instruction per operation — VMULPD then VADDPD / VSUBPD, never FMA.
// Z16 is the mantissa mask and Z17–Z31 hold polarTable; archLog's
// not-less-than adjustment is one compare into K1 and two merge-masked
// operations (k − 1, f1 + f1 = 2·f1), which are exact, as archLog's k − 0
// and f1·1 are on the lanes it does not adjust.
TEXT ·normalsAVX512(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ s+16(FP), DX
	MOVQ n8+24(FP), CX
	VBROADCASTSS scale+32(FP), Y14
	LEAQ ·polarTable(SB), BX
	VPTERNLOGQ $0xFF, Z16, Z16, Z16
	VPSRLQ $12, Z16, Z16
	VBROADCASTSD 0(BX), Z17
	VBROADCASTSD 8(BX), Z18
	VBROADCASTSD 16(BX), Z19
	VBROADCASTSD 24(BX), Z20
	VBROADCASTSD 32(BX), Z21
	VBROADCASTSD 40(BX), Z22
	VBROADCASTSD 48(BX), Z23
	VBROADCASTSD 56(BX), Z24
	VBROADCASTSD 64(BX), Z25
	VBROADCASTSD 72(BX), Z26
	VBROADCASTSD 80(BX), Z27
	VBROADCASTSD 88(BX), Z28
	VBROADCASTSD 96(BX), Z29
	VBROADCASTSD 104(BX), Z30
	VBROADCASTSD 112(BX), Z31
	TESTQ CX, CX
	JLE  normalsdone

normalsloop:
	VMOVUPD (DX), Z0
	VPANDQ Z16, Z0, Z1
	VPORQ Z17, Z1, Z1          // f1
	VPSRLQ $52, Z0, Z2
	VPMOVQD Z2, Y2
	VCVTDQ2PD Y2, Z2
	VSUBPD Z18, Z2, Z2         // k
	VCMPPD $5, Z1, Z19, K1     // !(√2/2 < f1)
	VSUBPD Z20, Z2, K1, Z2
	VADDPD Z1, Z1, K1, Z1
	VSUBPD Z20, Z1, Z3         // f
	VADDPD Z21, Z3, Z4
	VDIVPD Z4, Z3, Z4          // r = f / (2 + f)
	VMULPD Z4, Z4, Z5          // r²
	VMULPD Z5, Z5, Z6          // r⁴
	VMULPD Z22, Z6, Z7
	VADDPD Z23, Z7, Z7
	VMULPD Z6, Z7, Z7
	VADDPD Z24, Z7, Z7
	VMULPD Z6, Z7, Z7
	VADDPD Z25, Z7, Z7
	VMULPD Z7, Z5, Z7          // t1
	VMULPD Z26, Z6, Z8
	VADDPD Z27, Z8, Z8
	VMULPD Z6, Z8, Z8
	VADDPD Z28, Z8, Z8
	VMULPD Z8, Z6, Z8          // t2
	VADDPD Z8, Z7, Z7          // t1 + t2
	VMULPD Z17, Z3, Z9
	VMULPD Z3, Z9, Z9          // hf = (0.5·f)·f
	VADDPD Z7, Z9, Z7
	VMULPD Z7, Z4, Z7
	VMULPD Z29, Z2, Z8
	VADDPD Z8, Z7, Z7          // lo
	VSUBPD Z7, Z9, Z9
	VSUBPD Z3, Z9, Z9
	VMULPD Z30, Z2, Z2
	VSUBPD Z9, Z2, Z2          // ln s
	VMULPD Z31, Z2, Z2
	VDIVPD Z0, Z2, Z2
	VSQRTPD Z2, Z2
	VMULPD (SI), Z2, Z2
	VCVTPD2PS Z2, Y2
	VMULPS Y14, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $64, DX
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  normalsloop

normalsdone:
	VZEROUPPER
	RET
