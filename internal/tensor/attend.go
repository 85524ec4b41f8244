package tensor

// This file is attention over one KV page as the two GEMMs it is, for a
// block of queries that share the page's KV head — a decode lane's GQA group,
// or a prefill chunk's rows × group — on gemm.go's micro-kernel, in 16-token
// sub-tiles (the tile's panel width). scores = Q·Kᵀ: the sub-tile's key rows
// are re-laid dim-major into a HeadDim × 16 panel, so the tile's vector lanes
// run across *tokens* and every score is one chain of HeadDim steps of one
// FMA32 each, from +0 in ascending dimension — Dot's arithmetic.
// outputs += P·V: the value rows are the panel as they lie (token-major), the
// lanes run across *dimensions* (two adjacent 16-dimension panels at once on
// the AVX-512 arm), and the seeded tile continues each output's chain token by
// token from where the last page left it — the per-token AXPY loop's
// arithmetic. So results are bit-identical to Dot / AXPY over per-token views
// for every block size, page size, codec and arm. A page's codec only has to
// produce fp32 rows (load), once per (visit, KV head) — not per query head.

// AttnBlockMax is the largest query block one page walk serves.
const AttnBlockMax = 16

// Rows is one page's key (or value) rows for one KV head: F32 (token-major
// fp32 starting at the head's lane, Stride floats apart), or uniform codes in
// DequantSliceInto's layout when F32 is nil. Values must be finite: a query's
// weights past its causal bound are zero-filled, not skipped (Weights).
type Rows struct {
	F32                            []float32
	Codes                          []uint8
	Params                         []uint16
	Bits, Off, Stride, Heads, Head int
}

// AttnBlock is a block of up to AttnBlockMax queries over one KV head plus
// the scratch their page visits share: the queries, one score/weight row per
// query, 16 fp32 token rows and the dim-major key panel. A walk is Reset,
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
// covered the first covered tokens. The row's tail up to covered is
// zero-filled: Accumulate runs every query of a tile over the same tokens,
// and adding 0·v = ±0 cannot change an accumulator that started at +0
// (gemm.go's argument).
func (b *AttnBlock) Weights(qi, covered int) []float32 {
	row := b.scores[qi*b.ss:]
	n := min(b.bound[qi], covered)
	clear(row[n:covered])
	return row[:n]
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
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.live(i + t0)
		if g >= b.n {
			return
		}
		tt := min(panelWidth, t-t0)
		rows, stride := b.load(r, t0, tt, tt == panelWidth)
		relay(b.panel, rows, stride, b.d)
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
// the walk, into every live query's output.
func (b *AttnBlock) Accumulate(i, t int, r *Rows) {
	// spare[l] stands in for out[l] on a ragged last panel (d%16 columns
	// live), and takes the lanes a short group repeats: a seeded tile adds,
	// so a repeated lane must not land on its query's output twice.
	var spare [4][2 * panelWidth]float32
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.live(i + t0)
		if g >= b.n {
			return
		}
		tt := min(panelWidth, t-t0)
		rows, stride := b.load(r, t0, tt, b.d%panelWidth == 0)
		for ; g < b.n; g += 4 {
			lanes := min(4, b.n-g)
			for c := 0; c < b.d; {
				width := min(panelWidth, b.d-c)
				if arm == armAVX512 && b.d-c >= 2*panelWidth {
					width = 2 * panelWidth
				}
				var d, x [4][]float32
				for l := range d {
					qi := g + min(l, lanes-1)
					x[l] = b.scores[qi*b.ss+i+t0:][:tt]
					switch {
					case l >= lanes:
						d[l] = spare[l][:max(width, panelWidth)]
					case width < panelWidth:
						copy(spare[l][:width], b.out[qi][c:])
						d[l] = spare[l][:panelWidth]
					default:
						d[l] = b.out[qi][c : c+width]
					}
				}
				if width > panelWidth {
					tilePair(&d, &x, rows[c:], tt, stride, panelWidth, true)
				} else {
					tile(&d, &x, rows[c:], tt, stride, lanes, true)
				}
				if width < panelWidth {
					for l := 0; l < lanes; l++ {
						copy(b.out[g+l][c:], spare[l][:width])
					}
				}
				c += width
			}
		}
	}
}

// load returns tokens [t0, t0+tt) of r as fp32 rows and their stride: the
// page's own memory when it is fp32 and inPlace says the kernel can read it
// there (the re-lay needs all 16 rows to exist, the value tile needs whole
// 16-column panels), else the block's scratch rows, copied or dequantized.
// Nothing past the page's tt rows is read.
func (b *AttnBlock) load(r *Rows, t0, tt int, inPlace bool) ([]float32, int) {
	if r.Stride < b.d {
		panic("tensor: attention rows stride below head dimension")
	}
	switch {
	case r.F32 == nil:
		b.dequant(r, t0, tt)
	case inPlace:
		src := r.F32[t0*r.Stride:]
		_ = src[(tt-1)*r.Stride+b.d-1]
		return src, r.Stride
	default:
		for i := 0; i < tt; i++ {
			copy(b.rows[i*b.rs:][:b.d], r.F32[(t0+i)*r.Stride:][:b.d])
		}
	}
	return b.rows, b.rs
}

// dequant writes the dequantized head slices of tokens [t0, t0+n) of r into
// the scratch rows: x = float32(code)·Δ + lo, DequantSliceInto's arithmetic,
// with (lo, Δ) decoded from fp16 once per token.
func (b *AttnBlock) dequant(r *Rows, t0, n int) {
	if arm == armGo || r.Bits != 8 || b.d%8 != 0 {
		for i := 0; i < n; i++ {
			DequantSliceInto(b.rows[i*b.rs:][:b.d], r.Codes, r.Params, r.Bits, r.Off, r.Stride, r.Heads, r.Head, t0+i)
		}
		return
	}
	var lod [panelWidth][2]float32
	for i := 0; i < n; i++ {
		p := ((t0+i)*r.Heads + r.Head) * 2
		lod[i] = [2]float32{DecodeFloat16(r.Params[p]), DecodeFloat16(r.Params[p+1])}
	}
	codes := r.Codes[t0*r.Stride+r.Off:]
	_ = codes[(n-1)*r.Stride+b.d-1]
	dequantRows8AVX2(&b.rows[0], b.rs, &codes[0], r.Stride, &lod[0][0], n, b.d/8)
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
