package tensor

// The projection GEMM: dst[b][c] = Σ_k xs[b][k]·W[k][c] for B activation
// lanes against one immutable K×N weight. It is one loop (gemmTiles) over one
// micro-kernel (tile): four lanes × 16 adjacent outputs, walking k — or, on
// AVX-512 hosts, four lanes × two adjacent panels (tilePair).
//
// The vector lanes of the micro-kernel run across *outputs*, never across k:
// every output is its own chain of K steps of one FMA32 each (one correctly
// rounded fused multiply-add), starting from +0 and taking k in ascending
// order — the arithmetic of the scalar reference VecMatInto, operation for
// operation, so results are bit-identical to it for every lane count, every
// split of the columns and every arm. What the tile buys is arithmetic
// intensity: a weight row segment is loaded once for four lanes and sixteen
// (or thirty-two) outputs, and a panel stays in cache while every lane group
// visits it.
//
// VecMatInto skips exactly-zero activations; the tile does not, and needs no
// fallback for them. A round-to-nearest sum that starts at +0 can never be −0
// (x + y = −0 only when both are −0), so a step whose product is the ±0 of a
// zero activation and a finite weight leaves the accumulator's bits alone.
// Weights must therefore be finite; the model's are by construction
// (model.New).
//
// Weights the engine owns are stored packed (Packed): 16-column panels, each
// K-major and contiguous, so a tile reads one cache line per k and nothing
// else. MatTMatTransInto runs the same loop over a row-major Matrix (K-major
// at stride N) for callers that hold one.

// panelWidth is the micro-kernel's output width and the packed panel's column
// count: two 8-float AVX2 registers, one 16-float AVX-512 register.
const panelWidth = 16

// armLevel is a set of kernel implementations, each equal to the pure-Go
// specification by bits.
type armLevel int

const (
	armGo     armLevel = iota // pure Go: the specification and a correctness fallback
	armAVX2                   // AVX2 + FMA: the YMM tile, Dot / AXPY / MatVecInto, Exp32's lanes
	armAVX512                 // armAVX2 plus the ZMM tile over pairs of panels
)

// arm is the level this process runs, selected once from what CPUID and the
// OS report (cpuLevel). Only this package's tests write it.
var arm = armLevel(cpuLevel())

// Packed is an immutable K×N weight matrix in panel layout: the columns are
// split into ⌈N/16⌉ panels of 16, each stored K-major and contiguous
// (element (k, c) at panel c/16, offset k*16 + c%16), the last panel
// zero-padded. It is the only resident form of a projection weight.
type Packed struct {
	Rows, Cols int
	data       []float32
}

// Pack copies m (Rows×Cols, row-major, finite values) into panel layout.
func Pack(m *Matrix) *Packed {
	p := &Packed{Rows: m.Rows, Cols: m.Cols}
	p.data = make([]float32, p.Panels()*m.Rows*panelWidth)
	for k := 0; k < m.Rows; k++ {
		row := m.Row(k)
		for c0 := 0; c0 < m.Cols; c0 += panelWidth {
			copy(p.data[(c0/panelWidth*m.Rows+k)*panelWidth:][:panelWidth], row[c0:])
		}
	}
	return p
}

// Panels reports the number of 16-column panels — the unit column shards are
// handed out in.
func (p *Packed) Panels() int { return (p.Cols + panelWidth - 1) / panelWidth }

// MulInto computes dst[b] = xs[b]ᵀ × W for every lane b, bit-identical to
// VecMatInto(dst[b], xs[b], W) over the row-major W. It panics on shape
// mismatch.
func (p *Packed) MulInto(dst, xs [][]float32) {
	p.MulPanelsInto(dst, xs, 0, p.Panels())
}

// MulVecInto is MulInto for one lane.
func (p *Packed) MulVecInto(dst, x []float32) {
	ds, xs := [1][]float32{dst}, [1][]float32{x}
	p.MulInto(ds[:], xs[:])
}

// MulPanelsInto computes the output columns of panels [p0, p1) of MulInto —
// the entry parallel drivers shard. Shards write disjoint dst ranges, so
// concurrent calls over disjoint panel ranges are safe and assemble to
// exactly the full-range result.
func (p *Packed) MulPanelsInto(dst, xs [][]float32, p0, p1 int) {
	if p0 < 0 || p1 > p.Panels() || p0 > p1 {
		panic("tensor: packed panel range out of bounds")
	}
	checkLanes(dst, xs, p.Rows, p.Cols)
	gemmTiles(dst, xs, p.data, p.Rows, panelWidth, p.Rows*panelWidth, p0*panelWidth, min(p1*panelWidth, p.Cols))
}

// MatTMatTransInto computes dst[b] = xs[b]ᵀ × m for every lane b over a
// row-major m, bit-identical to VecMatInto(dst[b], xs[b], m): the same tile
// loop as Packed.MulInto, reading m.Data K-major at stride m.Cols. A column
// count that is not a multiple of 16 has no whole tiles to read and takes the
// scalar reference per lane. mT must be m's transpose shape; it is not read.
// It panics on shape mismatch.
func MatTMatTransInto(dst, xs [][]float32, m, mT *Matrix) {
	if mT.Rows != m.Cols || mT.Cols != m.Rows {
		panic("tensor: mattmat transpose shape mismatch")
	}
	checkLanes(dst, xs, m.Rows, m.Cols)
	if m.Cols%panelWidth != 0 {
		for b := range xs {
			VecMatInto(dst[b], xs[b], m)
		}
		return
	}
	gemmTiles(dst, xs, m.Data, m.Rows, m.Cols, panelWidth, 0, m.Cols)
}

func checkLanes(dst, xs [][]float32, rows, cols int) {
	if len(dst) != len(xs) {
		panic("tensor: gemm lane count mismatch")
	}
	for b := range xs {
		if len(xs[b]) != rows {
			panic("tensor: gemm shape mismatch")
		}
		if len(dst[b]) != cols {
			panic("tensor: gemm dst length mismatch")
		}
	}
}

// gemmTiles is the one GEMM loop: output columns [c0, c1) (c0 on a panel
// boundary) of dst[b][c] = Σ_kk xs[b][kk]·W[kk][c], where panel c/16's row kk
// starts at w[c/16*panelStep + kk*stride]. Panels are the outer loop so one
// panel (K×16 floats) — or, on the AVX-512 arm, one pair of adjacent panels —
// stays cached while every group of four lanes visits it. A short last group
// repeats its last lane — the repeats recompute and rewrite that lane's own
// outputs — and a ragged last panel (zero-padded in w) lands in a stack tile
// whose live columns are copied out; it, and a lone last panel, take the
// one-panel tile.
func gemmTiles(dst, xs [][]float32, w []float32, k, stride, panelStep, c0, c1 int) {
	var ragged [4][panelWidth]float32
	for c := c0; c < c1; {
		wp := w[c/panelWidth*panelStep:]
		width := min(panelWidth, c1-c)
		if arm == armAVX512 && c1-c >= 2*panelWidth {
			width = 2 * panelWidth
		}
		for b := 0; b < len(xs); b += 4 {
			lanes := min(4, len(xs)-b)
			var d, x [4][]float32
			for i := range d {
				l := b + min(i, lanes-1)
				x[i] = xs[l]
				if width >= panelWidth {
					d[i] = dst[l][c : c+width]
				} else {
					d[i] = ragged[l-b][:]
				}
			}
			if width > panelWidth {
				tilePair(&d, &x, wp, k, stride, panelStep, false)
				continue
			}
			tile(&d, &x, wp, k, stride, lanes, false)
			if width < panelWidth {
				for i := 0; i < lanes; i++ {
					copy(dst[b+i][c:c1], ragged[i][:])
				}
			}
		}
		c += width
	}
}

// tile is the micro-kernel: d[l][0:16] = Σ_kk x[l][kk]·w[kk*stride:][0:16]
// for the first lanes of four lanes (the assembly always computes all four).
// Seeded, each chain starts from d's current value instead of +0 — the entry
// attention's value pass continues its accumulation through (attend.go).
func tile(d, x *[4][]float32, w []float32, k, stride, lanes int, seeded bool) {
	if arm == armGo {
		tileGo(d, x, w, k, stride, lanes, seeded)
		return
	}
	_ = w[(k-1)*stride+panelWidth-1]
	tile4x16AVX2(&d[0][0], &d[1][0], &d[2][0], &d[3][0],
		&x[0][:k][0], &x[1][:k][0], &x[2][:k][0], &x[3][:k][0], &w[0], k, stride, seeded)
}

// tilePair is tile over two adjacent panels at once, all four lanes, on the
// AVX-512 arm (callers take it only when arm is armAVX512): d[l][0:32] =
// Σ_kk x[l][kk]·(w[kk*stride:][0:16] ‖ w[panelStep+kk*stride:][0:16]).
func tilePair(d, x *[4][]float32, w []float32, k, stride, panelStep int, seeded bool) {
	_ = w[panelStep+(k-1)*stride+panelWidth-1]
	for i := range d {
		_ = d[i][2*panelWidth-1]
	}
	tile4x32AVX512(&d[0][0], &d[1][0], &d[2][0], &d[3][0],
		&x[0][:k][0], &x[1][:k][0], &x[2][:k][0], &x[3][:k][0], &w[0], k, stride, panelStep, seeded)
}

// tileGo is the micro-kernel in Go: per lane, four outputs at a time in
// register accumulators — VecMatInto's loop without the zero-skip.
func tileGo(d, x *[4][]float32, w []float32, k, stride, lanes int, seeded bool) {
	for l := 0; l < lanes; l++ {
		xl, dl := x[l][:k], d[l][:panelWidth]
		for j := 0; j < panelWidth; j += 4 {
			var s0, s1, s2, s3 float32
			if seeded {
				s0, s1, s2, s3 = dl[j], dl[j+1], dl[j+2], dl[j+3]
			}
			off := j
			for _, a := range xl {
				r := w[off : off+4 : off+4]
				s0 = FMA32(a, r[0], s0)
				s1 = FMA32(a, r[1], s1)
				s2 = FMA32(a, r[2], s2)
				s3 = FMA32(a, r[3], s3)
				off += stride
			}
			dl[j], dl[j+1], dl[j+2], dl[j+3] = s0, s1, s2, s3
		}
	}
}

// Transpose returns mᵀ as a new matrix.
func Transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*m.Rows+i] = v
		}
	}
	return t
}

// RMSNormRowsInto applies RMSNormInto lane-wise: dst[b] = RMSNorm(xs[b],
// gain). Normalisation is O(B·H) and lane-local, so the batched form is a
// plain loop — it exists so the fused forward pass reads as one batched
// pipeline and the arithmetic stays shared with the single-lane path.
func RMSNormRowsInto(dst, xs [][]float32, gain []float32, eps float32) {
	if len(dst) != len(xs) {
		panic("tensor: rmsnorm lane count mismatch")
	}
	for b := range xs {
		RMSNormInto(dst[b], xs[b], gain, eps)
	}
}
