package tensor

// cpuLevel reports the armLevel the CPU and the OS support (CPUID + XGETBV;
// the standard library's internal/cpu is not importable): armAVX2 needs AVX2,
// FMA and saved YMM state, armAVX512 also AVX-512F and saved opmask and ZMM
// state.
func cpuLevel() int

// tile4x16AVX2 is the assembly micro-kernel behind tile: four lanes of 16
// outputs over k weight rows of 16 floats, stride floats apart, accumulated
// onto d's contents when seeded. Every d pointer must address 16 floats,
// every x pointer k floats, and w (k-1)*stride+16 floats.
//
//go:noescape
func tile4x16AVX2(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride int, seeded bool)

// tile4x32AVX512 is the assembly behind tilePair: tile4x16AVX2 over two
// panels, the second panelStep floats after the first, into 32 outputs per
// lane. Every d pointer must address 32 floats, every x pointer k floats, and
// w panelStep+(k-1)*stride+16 floats.
//
//go:noescape
func tile4x32AVX512(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, k, stride, panelStep int, seeded bool)

// dotsFMA is the assembly behind Dot and MatVecInto: dst[r] = Σ_i
// a[r*stride+i]·b[i] for rows r, one FMA chain per row from +0 in ascending
// i. Every row of a and b must hold n floats.
//
//go:noescape
func dotsFMA(dst, a *float32, stride, rows int, b *float32, n int)

// axpyFMA is the assembly behind AXPY: dst[i] = FMA32(alpha, x[i], dst[i])
// over 8·n8 floats.
//
//go:noescape
func axpyFMA(dst *float32, alpha float32, x *float32, n8 int)

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
