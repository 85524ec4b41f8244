package tensor

// This file is attention over one KV page as the two GEMMs it is, for a
// block of queries that share the page's KV head — a decode lane's GQA group,
// or a prefill chunk's rows × group — on gemm.go's micro-kernel, in 16-token
// sub-tiles (the tile's panel width). scores = Q·Kᵀ: the sub-tile's key rows
// are laid dim-major into a HeadDim × 16 panel, so the tile's vector lanes
// run across *tokens* and every score is one chain of HeadDim steps of one
// FMA32 each, from +0 in ascending dimension — Dot's arithmetic.
// outputs += P·V: the value rows are the panel as they lie (token-major), the
// lanes run across *dimensions* (two adjacent 16-dimension panels at once on
// the AVX-512 arm), and the seeded tile continues each output's chain token by
// token from where the last page left it, up to its query's own bound — the
// per-token AXPY loop's arithmetic. So results are bit-identical to Dot / AXPY
// over per-token views for every block size, page size, codec and arm.
//
// A page's codec only has to produce fp32 rows (load), once per (visit, KV
// head) — not per query head — except 8-bit codes on the AVX-512 arm, which
// are never stored as fp32 rows: the key pass dequantizes them straight into
// the panel, the value pass inside its tile, each (lo, Δ) pair decoded once
// per sub-tile (int8Params). Both are DequantSliceInto's arithmetic.

// AttnBlockMax is the largest query block one page walk serves.
const AttnBlockMax = 16

// Rows is one page's key (or value) rows for one KV head: F32 (token-major
// fp32 starting at the head's lane, Stride floats apart), or uniform codes in
// DequantSliceInto's layout when F32 is nil.
type Rows struct {
	F32                            []float32
	Codes                          []uint8
	Params                         []uint16
	Bits, Off, Stride, Heads, Head int
}

// AttnBlock is a block of up to AttnBlockMax queries over one KV head plus
// the scratch their page visits share: the queries, one score/weight row per
// query, 16 fp32 token rows, the dim-major key panel, for 8-bit codes a
// sub-tile's decoded (lo, Δ) pairs and its code rows when it is ragged, and
// the value tile's spare output rows. A walk is Reset,
// Add per query, Score per page, Weights (scale, softmax) per query, then
// Accumulate per page in the same order.
type AttnBlock struct {
	d, rs, ss int // head dim; scratch row stride (d rounded up to 16); score row stride
	n         int
	bound     [AttnBlockMax]int
	out       [AttnBlockMax][]float32
	q         []float32 // AttnBlockMax × d
	scores    []float32 // AttnBlockMax × ss
	rows      []float32 // 16 × rs; columns past d stay zero
	panel     []float32 // d × 16
	codes     []uint8   // 16 × d
	lod       [2 * panelWidth]float32
	spare     [4][2 * panelWidth]float32
}

// NewAttnBlock allocates a block for head dimension d whose score rows hold
// maxTokens tokens (they grow geometrically past that).
func NewAttnBlock(d, maxTokens int) *AttnBlock {
	rs := (d + panelWidth - 1) / panelWidth * panelWidth
	b := &AttnBlock{
		d: d, rs: rs,
		q:     make([]float32, AttnBlockMax*d),
		rows:  make([]float32, panelWidth*rs),
		panel: make([]float32, d*panelWidth),
		codes: make([]uint8, panelWidth*d),
	}
	b.growScores(maxTokens)
	return b
}

// growScores sizes the score rows for n tokens, plus the 15 dead columns a
// ragged sub-tile's score tile writes (the next sub-tile overwrites them).
func (b *AttnBlock) growScores(n int) {
	b.ss = (n+panelWidth-1)/panelWidth*panelWidth + panelWidth
	b.scores = make([]float32, AttnBlockMax*b.ss)
}

// Reset empties the block; Len reports its queries, Bound the largest of
// their token bounds.
func (b *AttnBlock) Reset()     { b.n = 0 }
func (b *AttnBlock) Len() int   { return b.n }
func (b *AttnBlock) Bound() int { return b.bound[b.n-1] }

// Add appends a query that attends the walk's first bound tokens and
// accumulates into out (length d), and returns its slot for the caller to
// fill with the RoPE'd query. Bounds must ascend: a chunk's rows in order.
func (b *AttnBlock) Add(bound int, out []float32) []float32 {
	if b.n == AttnBlockMax || len(out) != b.d || (b.n > 0 && bound < b.bound[b.n-1]) {
		panic("tensor: attention block overflow, output length mismatch or descending bound")
	}
	if bound > b.ss-panelWidth {
		b.growScores(2 * bound)
	}
	b.bound[b.n], b.out[b.n] = bound, out
	b.n++
	return b.q[(b.n-1)*b.d : b.n*b.d]
}

// Weights returns query qi's score row cut to its bound — the vector the
// caller scales, softmaxes and shows to an observer in place — of a walk that
// covered the first covered tokens.
func (b *AttnBlock) Weights(qi, covered int) []float32 {
	return b.scores[qi*b.ss:][:min(b.bound[qi], covered)]
}

// live returns the first query, in steps of a tile's four lanes, whose tile
// has a query that sees token s: a tile whose four bounds all end at or
// before s is skipped.
func (b *AttnBlock) live(s int) int {
	g := 0
	for g < b.n && b.bound[min(g+3, b.n-1)] <= s {
		g += 4
	}
	return g
}

// Score writes the raw q·k of the t tokens of r, which are tokens [i, i+t)
// of the walk, into every live query's score row.
func (b *AttnBlock) Score(i, t int, r *Rows) {
	q8 := b.int8Fused(r)
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.live(i + t0)
		if g >= b.n {
			return
		}
		tt := min(panelWidth, t-t0)
		if q8 {
			b.int8Params(r, t0, tt)
			codes, stride := r.Codes[t0*r.Stride+r.Off:], r.Stride
			if tt < panelWidth { // the panel kernel reads 16 rows: pad with code 0, (lo, Δ) = (0, 0)
				clear(b.codes)
				for j := 0; j < tt; j++ {
					copy(b.codes[j*b.d:][:b.d], codes[j*stride:])
				}
				codes, stride = b.codes, b.d
			}
			_ = codes[(panelWidth-1)*stride+b.d-1]
			panelQ8AVX512(&b.panel[0], &codes[0], stride, &b.lod[0], b.d/panelWidth)
		} else {
			rows, stride := b.load(r, t0, tt, tt == panelWidth)
			relay(b.panel, rows, stride, b.d)
		}
		for ; g < b.n; g += 4 {
			lanes := min(4, b.n-g)
			var d, x [4][]float32
			for l := range d {
				qi := g + min(l, lanes-1) // a short group repeats its last lane, as gemmTiles does
				x[l] = b.q[qi*b.d : (qi+1)*b.d]
				d[l] = b.scores[qi*b.ss+i+t0:][:panelWidth]
			}
			tile(&d, &x, b.panel, b.d, panelWidth, lanes, false)
		}
	}
}

// Accumulate adds Σ weight·value over the t tokens of r, tokens [i, i+t) of
// the walk, into every live query's output. A query's chain stops at its own
// bound: within a sub-tile the lanes of a group run together up to the first
// lane's bound, the lanes past it on to the next, and so on (bounds ascend),
// so no query ever takes a step for a token it does not see — the step would
// be FMA32(0, v, acc), which turns a −0 accumulator into +0.
func (b *AttnBlock) Accumulate(i, t int, r *Rows) {
	q8 := b.int8Fused(r)
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.live(i + t0)
		if g >= b.n {
			return
		}
		tt := min(panelWidth, t-t0)
		var v values
		if q8 {
			b.int8Params(r, t0, tt)
			v.codes, v.stride = r.Codes[t0*r.Stride+r.Off:], r.Stride
		} else {
			v.rows, v.stride = b.load(r, t0, tt, b.d%panelWidth == 0)
		}
		for ; g < b.n; g += 4 {
			lanes, s := min(4, b.n-g), 0
			for l := 0; l < lanes; l++ {
				if e := min(b.bound[g+l]-i-t0, tt); e > s {
					b.valueTiles(g, l, lanes, i+t0, s, e, &v)
					s = e
				}
			}
		}
	}
}

// values is a sub-tile's value rows as the tiles read them: fp32 rows, or
// 8-bit codes whose (lo, Δ) pairs are in the block's lod; stride apart.
type values struct {
	rows   []float32
	codes  []uint8
	stride int
}

// valueTiles adds tokens [s, e) of the sub-tile at walk position pos, weighted,
// into the outputs of lanes [first, lanes) of the query group at g, 16 or 32
// columns at a time. Lanes before first, and the repeats a short group fills
// its tile with, land in the spare rows: a seeded tile adds, so a lane must
// never reach a query's output twice or past its bound.
func (b *AttnBlock) valueTiles(g, first, lanes, pos, s, e int, v *values) {
	spare := &b.spare
	k := e - s
	for c := 0; c < b.d; {
		width := min(panelWidth, b.d-c)
		if arm == armAVX512 && b.d-c >= 2*panelWidth {
			width = 2 * panelWidth
		}
		var d, x [4][]float32
		for l := range d {
			qi := g + min(max(l, first), lanes-1)
			x[l] = b.scores[qi*b.ss+pos+s:][:k]
			switch {
			case l < first || l >= lanes:
				d[l] = spare[l][:max(width, panelWidth)]
			case width < panelWidth: // a ragged last panel: d%16 columns live
				copy(spare[l][:width], b.out[qi][c:])
				d[l] = spare[l][:panelWidth]
			default:
				d[l] = b.out[qi][c : c+width]
			}
		}
		switch {
		case v.codes != nil:
			tileQ8(&d, &x, v.codes[s*v.stride+c:], b.lod[2*s:], k, v.stride, width > panelWidth)
		case width > panelWidth:
			tilePair(&d, &x, v.rows[s*v.stride+c:], k, v.stride, panelWidth, true)
		default:
			tile(&d, &x, v.rows[s*v.stride+c:], k, v.stride, lanes, true)
		}
		if width < panelWidth {
			for l := first; l < lanes; l++ {
				copy(b.out[g+l][c:], spare[l][:width])
			}
		}
		c += width
	}
}

// tileQ8 is the value pass's seeded tile over k rows of 8-bit codes, stride
// bytes apart, (lo, Δ) pairs in lod, for 16 columns per lane (32 when pair):
// tileQ8AVX512's bounds, checked.
func tileQ8(d, x *[4][]float32, codes []uint8, lod []float32, k, stride int, pair bool) {
	width := panelWidth
	if pair {
		width = 2 * panelWidth
	}
	_, _ = codes[(k-1)*stride+width-1], lod[2*k-1]
	for i := range d {
		_ = d[i][width-1]
	}
	tileQ8AVX512(&d[0][0], &d[1][0], &d[2][0], &d[3][0],
		&x[0][:k][0], &x[1][:k][0], &x[2][:k][0], &x[3][:k][0], &codes[0], &lod[0], k, stride, pair)
}

// int8Fused reports whether the block reads r's 8-bit codes without fp32
// rows: on the AVX-512 arm, for whole 16-dimension panels. Every other codec,
// arm and head dimension dequantizes into the scratch rows (load).
func (b *AttnBlock) int8Fused(r *Rows) bool {
	return r.F32 == nil && r.Bits == 8 && arm == armAVX512 && b.d%panelWidth == 0
}

// int8Params decodes the (lo, Δ) pairs of tokens [t0, t0+tt) of r into lod,
// zero past tt: DecodeFloat16 per half, by VCVTPH2PS on the AVX-512 arm.
func (b *AttnBlock) int8Params(r *Rows, t0, tt int) {
	step := r.Heads * 2
	params := r.Params[(t0*r.Heads+r.Head)*2:]
	_ = params[(tt-1)*step+1]
	if arm == armAVX512 {
		paramsQ8AVX512(&b.lod[0], &params[0], 2*step, tt)
		return
	}
	clear(b.lod[:])
	for j := 0; j < tt; j++ {
		b.lod[2*j], b.lod[2*j+1] = DecodeFloat16(params[j*step]), DecodeFloat16(params[j*step+1])
	}
}

// load returns tokens [t0, t0+tt) of r as fp32 rows and their stride: the
// page's own memory when it is fp32 and inPlace says the kernel can read it
// there (the re-lay needs all 16 rows to exist, the value tile needs whole
// 16-column panels), else the block's scratch rows, copied or dequantized
// (DequantSliceInto). Nothing past the page's tt rows is read.
func (b *AttnBlock) load(r *Rows, t0, tt int, inPlace bool) ([]float32, int) {
	if r.Stride < b.d {
		panic("tensor: attention rows stride below head dimension")
	}
	switch {
	case r.F32 == nil:
		for j := 0; j < tt; j++ {
			DequantSliceInto(b.rows[j*b.rs:][:b.d], r.Codes, r.Params, r.Bits, r.Off, r.Stride, r.Heads, r.Head, t0+j)
		}
	case inPlace:
		src := r.F32[t0*r.Stride:]
		_ = src[(tt-1)*r.Stride+b.d-1]
		return src, r.Stride
	default:
		for j := 0; j < tt; j++ {
			copy(b.rows[j*b.rs:][:b.d], r.F32[(t0+j)*r.Stride:][:b.d])
		}
	}
	return b.rows, b.rs
}

// relay re-lays 16 rows of d floats, stride apart, dim-major:
// panel[j*16+t] = rows[t*stride+j] — the layout that makes the key rows a
// weight panel for tile.
func relay(panel, rows []float32, stride, d int) {
	_, _ = rows[(panelWidth-1)*stride+d-1], panel[d*panelWidth-1]
	j := 0
	if arm != armGo && d >= 8 {
		relay16AVX2(&panel[0], &rows[0], stride, d/8)
		j = d &^ 7
	}
	for ; j < d; j++ {
		for t := 0; t < panelWidth; t++ {
			panel[j*panelWidth+t] = rows[t*stride+j]
		}
	}
}
