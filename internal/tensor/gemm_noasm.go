//go:build !amd64

package tensor

func hasAVX2() bool { return false }

func tile4x16AVX2(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride int) {
	panic("tensor: no assembly micro-kernel on this architecture")
}
