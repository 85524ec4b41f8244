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

// tilePairAVX512 is the assembly behind tilePair: tile4x16AVX2 over two
// panels, the second panelStep floats after the first, at the group's own
// height — the first lanes (1–8) of d and x, each d pointer addressing 32
// floats, each x pointer k floats — from +0, with w's rows prefetched a fixed
// number of rows ahead. w must address panelStep+(k-1)*stride+16 floats.
//
//go:noescape
func tilePairAVX512(d, x *[8]*float32, w *float32, lanes, k, stride, panelStep int)

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

// paramsQ8AVX512 is the assembly behind AttnBlock.int8Params: the n ≤ 16
// consecutive (lo, Δ) fp16 pairs at params decoded into lod's 32 floats,
// zero past n.
//
//go:noescape
func paramsQ8AVX512(lod *float32, params *uint16, n int)

// panelQ8AVX512 is the key loader's arm for 8-bit codes: 16 rows of 16·d16
// codes, codeStride bytes apart, dequantized with lod's (lo, Δ) pairs
// straight into the dim-major panel (16·d16 × 16 floats).
//
//go:noescape
func panelQ8AVX512(panel *float32, codes *uint8, codeStride int, lod *float32, d16 int)

// panelQ8SealedAVX512 is the key loader's arm for a sealed page's 8-bit
// codes: one sub-tile's d×16 dim-major codes (d a multiple of 16)
// dequantized as they lie into the panel with the 16 (lo, Δ) pairs at params
// — sealedPanel's arithmetic, with no transpose.
//
//go:noescape
func panelQ8SealedAVX512(panel *float32, codes *uint8, params *uint16, d int)

// sealQ8AVX512 is the assembly behind SealCodes at 8 bits on the AVX-512
// arm: one 16-token sub-tile of code rows, d = 16·d16 bytes each and d
// apart, re-laid dim-major into dst (d × 16 bytes).
//
//go:noescape
func sealQ8AVX512(dst, src *uint8, d16 int)

// encodeQ8AVX512 is the assembly behind QuantEncode at 8 bits: 16·n16 floats
// to codes and their (lo, Δ) pair, or false, with nothing written, for a
// slice that holds a non-finite value or one of magnitude 2^15 or more.
//
//go:noescape
func encodeQ8AVX512(codes *uint8, params *uint16, x *float32, n16 int) bool

// panelF32AVX512 is the assembly behind relay on the AVX-512 arm
// (attend_amd64.s) — a key panel of fp32 rows, and the block's dim-major
// queries: 16 rows of 16·d16 floats, stride apart, written dim-major into
// panel (16·d16 × 16 floats).
//
//go:noescape
func panelF32AVX512(panel, rows *float32, stride, d16 int)

// scoreAVX512 is the score tile of a query block on the AVX-512 arm: the 16
// scores of slots query slots (8 or 16; dim-major queries in qT, 16 floats per
// dim) against the dim-major key panels, slot pair p reading panels[p] (all
// pairs panels[0] when one), into score rows ss floats apart.
//
//go:noescape
func scoreAVX512(s *float32, ss int, qT *float32, d int, panels *[8]*float32, slots int, one bool)

// valueAVX512 is the value pass's seeded tile over fp32 rows on the AVX-512
// arm: eight lanes' 16 outputs (32 when pair) at d, weights ws floats apart
// from w, lane pair p's k value rows at v[p], stride floats apart (all pairs
// v[0]'s, loaded once per token, when one).
//
//go:noescape
func valueAVX512(d *[8]*float32, w *float32, ws int, v *[4]*float32, k, stride int, pair, one bool)

// valueQ8AVX512 is valueAVX512 over 8-bit codes: lane pair p's k code rows at
// codes[p], codeStride bytes apart, with their (lo, Δ) pairs at lod[p]; with
// one, all four pairs read the same rows, dequantized once.
//
//go:noescape
func valueQ8AVX512(d *[8]*float32, w *float32, ws int, codes *[4]*uint8, lod *[4]*float32, k, codeStride int, pair, one bool)

// softmaxRowsAVX512 is the assembly behind softmaxRows: the scaled softmax of
// 16 rows, stride floats apart, row r over its first bounds[r] floats, n16
// blocks of 16 columns read and written.
//
//go:noescape
func softmaxRowsAVX512(rows *float32, stride int, bounds *[16]int32, n16 int, scale float32)

// expSubAVX512 is the assembly behind expSub on the AVX-512 arm: xs[i] =
// Exp32(xs[i] − sub) over n floats, sixteen lanes at a time.
//
//go:noescape
func expSubAVX512(xs *float32, n int, sub float32)

// siluMulAVX512 is the assembly behind SiLUMul on the AVX-512 arm, sixteen
// lanes at a time over n floats.
//
//go:noescape
func siluMulAVX512(gate, up *float32, n int)

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

// normalsAVX512 is the assembly behind NormalsInto (polar_amd64.s): dst[i] =
// normal32(u[i], s[i], scale) over 8·n8 elements.
//
//go:noescape
func normalsAVX512(dst *float32, u, s *float64, n8 int, scale float32)

// prefetchF32 and prefetchU8 are the assembly behind AttnBlock.Prefetch:
// PREFETCHT0 for every cache line of the first widthBytes of each of rows
// rows, the first at p, strideBytes apart. Nothing is read: a hint cannot
// fault.
//
//go:noescape
func prefetchF32(p *float32, rows, strideBytes, widthBytes int)

//go:noescape
func prefetchU8(p *uint8, rows, strideBytes, widthBytes int)

// sumSquaresAVX2 is the assembly behind sumSquares (norm_amd64.s): a[j] =
// the chain of float32(x[i]·x[i]) over i ≡ j (mod 16) from +0, over the
// first 16·n16 floats.
//
//go:noescape
func sumSquaresAVX2(a *[16]float32, x *float32, n16 int)

// scaleGainAVX2 is the assembly behind RMSNormInto's scale pass on the AVX2
// arm: dst[i] = (x[i]·inv)·gain[i] over 8·n8 floats.
//
//go:noescape
func scaleGainAVX2(dst, x, gain *float32, n8 int, inv float32)

// rmsNormAVX512 is RMSNormInto on the AVX-512 arm, whole, over n ≥ 1 floats.
//
//go:noescape
func rmsNormAVX512(dst, x, gain *float32, n int, eps float32)

// ropeAVX2 is the assembly behind ApplyRoPECached: the rotation of the first
// 8·n8 floats of x (4·n8 pairs) by sin and cos; ropeAVX512 of the first
// 16·n16.
//
//go:noescape
func ropeAVX2(x, sin, cos *float32, n8 int)

//go:noescape
func ropeAVX512(x, sin, cos *float32, n16 int)
