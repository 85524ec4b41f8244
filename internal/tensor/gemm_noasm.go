//go:build !amd64

package tensor

func cpuLevel() int { return int(armGo) }

func tile4x16AVX2(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride int, seeded bool) {
	panic("tensor: no assembly micro-kernel on this architecture")
}

func tile4x32AVX512(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride, panelStep int, seeded bool) {
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

func dequantRows8AVX2(dst *float32, dstStride int, codes *uint8, codeStride int, lod *float32, n, d8 int) {
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
