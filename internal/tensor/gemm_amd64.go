package tensor

// hasAVX2 reports whether the CPU and the OS support AVX2 (CPUID + XGETBV;
// the standard library's internal/cpu is not importable).
func hasAVX2() bool

// tile4x16AVX2 is the assembly micro-kernel behind tile: four lanes of 16
// outputs over k weight rows of 16 floats, stride floats apart. Every d
// pointer must address 16 floats, every x pointer k floats, and w
// (k-1)*stride+16 floats.
//
//go:noescape
func tile4x16AVX2(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride int)
