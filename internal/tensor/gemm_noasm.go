//go:build !amd64

package tensor

func cpuLevel() int { return int(armGo) }

func tile4x16AVX2(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride int, seeded bool) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func tilePairAVX512(d, x *[8]*float32, w *float32, lanes, k, stride, panelStep int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func dotsFMA(dst, a *float32, stride, rows int, b *float32, n int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func axpyFMA(dst *float32, alpha float32, x *float32, n8 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func relay16AVX2(panel, rows *float32, stride, d8 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func paramsQ8AVX512(lod *float32, params *uint16, n int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func panelQ8AVX512(panel *float32, codes *uint8, codeStride int, lod *float32, d16 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func panelQ8SealedAVX512(panel *float32, codes *uint8, params *uint16, d int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func sealQ8AVX512(dst, src *uint8, d16 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func panelF32AVX512(panel, rows *float32, stride, d16 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func scoreAVX512(s *float32, ss int, qT *float32, d int, panels *[8]*float32, slots int, one bool) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func valueAVX512(d *[8]*float32, w *float32, ws int, v *[4]*float32, k, stride int, pair, one bool) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func valueQ8AVX512(d *[8]*float32, w *float32, ws int, codes *[4]*uint8, lod *[4]*float32, k, codeStride int, pair, one bool) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func softmaxRowsAVX512(rows *float32, stride int, bounds *[16]int32, n16 int, scale float32) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func expSubAVX512(xs *float32, n int, sub float32) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func siluMulAVX512(gate, up *float32, n int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func encodeQ8AVX512(codes *uint8, params *uint16, x *float32, n16 int) bool {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func expSubAVX2(xs *float32, n8 int, sub float32) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func scaleAVX2(xs *float32, n8 int, alpha float32) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func siluMulAVX2(gate, up *float32, n8 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func normalsAVX512(dst *float32, u, s *float64, n8 int, scale float32) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func prefetchF32(p *float32, rows, strideBytes, widthBytes int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func prefetchU8(p *uint8, rows, strideBytes, widthBytes int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func sumSquaresAVX2(a *[16]float32, x *float32, n16 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func scaleGainAVX2(dst, x, gain *float32, n8 int, inv float32) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func rmsNormAVX512(dst, x, gain *float32, n int, eps float32) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func ropeAVX2(x, sin, cos *float32, n8 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func ropeAVX512(x, sin, cos *float32, n16 int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}
