package tensor

// hasAVX2 reports whether the CPU and the OS support AVX2 (CPUID + XGETBV;
// the standard library's internal/cpu is not importable).
func hasAVX2() bool

// tile4x16AVX2 is the assembly micro-kernel behind tile: four lanes of 16
// outputs over k weight rows of 16 floats, stride floats apart, accumulated
// onto d's contents when seeded. Every d pointer must address 16 floats,
// every x pointer k floats, and w (k-1)*stride+16 floats.
//
//go:noescape
func tile4x16AVX2(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride int, seeded bool)

// relay16AVX2 is the assembly behind relay: 16 rows of 8·d8 floats, stride
// apart, written dim-major into panel (8·d8 × 16 floats).
//
//go:noescape
func relay16AVX2(panel, rows *float32, stride, d8 int)

// dequantRows8AVX2 is the assembly behind AttnBlock.dequant for 8-bit codes: n rows
// of 8·d8 codes, codeStride bytes apart, to fp32 rows dstStride floats apart;
// lod holds each row's decoded (lo, Δ) pair.
//
//go:noescape
func dequantRows8AVX2(dst *float32, dstStride int, codes *uint8, codeStride int, lod *float32, n, d8 int)

// expSubAVX2 is the assembly behind expSub (exp_amd64.s): xs[i] =
// Exp32(xs[i] − sub) over 8·n8 floats.
//
//go:noescape
func expSubAVX2(xs *float32, n8 int, sub float32)

// scaleAVX2 is the assembly behind Scale: xs[i] *= alpha over 8·n8 floats.
//
//go:noescape
func scaleAVX2(xs *float32, n8 int, alpha float32)

// siluMulAVX2 is the assembly behind SiLUMul: gate[i] = gate[i] /
// (1 + Exp32(−gate[i])) · up[i] over 8·n8 floats.
//
//go:noescape
func siluMulAVX2(gate, up *float32, n8 int)
