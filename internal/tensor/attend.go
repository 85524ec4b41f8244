package tensor

// This file is attention over one KV page as the two GEMMs it is, for a
// block of queries — a decode lane's queries across its KV heads, a prefill
// chunk's rows × group of one KV head — in 16-token sub-tiles (the tile's
// panel width). scores = Q·Kᵀ: the sub-tile's key rows are laid dim-major
// into a HeadDim × 16 panel per KV head, so the tile's vector lanes run
// across *tokens* and every score is one chain of HeadDim steps of one FMA32
// each, from +0 in ascending dimension — Dot's arithmetic. outputs += P·V: the
// value rows are the panel as they lie (token-major), the lanes run across
// *dimensions*, and the seeded tile continues each output's chain token by
// token from where the last page left it, up to its query's own bound — the
// per-token AXPY loop's arithmetic. Between the passes every query's score
// row is scaled and softmaxed (Softmax), each row one ascending chain. So
// results are bit-identical to Dot / Softmax / AXPY over per-token views for
// every block shape, page size, codec and arm.
//
// On the AVX-512 arm, for fp32 rows and 8-bit codes of whole 16-dimension
// panels, one ZMM kernel serves the whole block per pass: the score tile runs
// all the block's queries (dim-major, transposed once per walk) against one
// panel per KV head, built by in-register 16×16 transposes; the value tile
// runs eight queries over 32 columns at a time, each pair of queries reading
// its KV head's rows; the softmax runs up to 16 rows at once, one row per
// vector lane. 8-bit codes are never stored as fp32 rows: the key pass
// dequantizes them straight into the panel, the value pass inside its tile,
// each (lo, Δ) pair decoded once per (sub-tile, KV head) (int8Params) — both
// DequantSliceInto's arithmetic. Every other arm, codec and head dimension
// walks the block one KV head at a time on gemm.go's four-lane tile,
// producing fp32 rows (load) once per (visit, KV head), not per query.

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

// attnBlockHeads is the most KV heads one block spans: a KV head's queries
// start on an even slot, so a pair of the ZMM score tile's slots always reads
// one head's panel.
const attnBlockHeads = AttnBlockMax / 2

// AttnBlock is a block of up to AttnBlockMax queries over up to
// attnBlockHeads consecutive KV heads plus the scratch their page visits
// share: the queries (and their dim-major copy), one score/weight row per
// query, 16 fp32 token rows, a dim-major key panel per KV head, for 8-bit
// codes a sub-tile's decoded (lo, Δ) pairs per KV head and its code rows when
// it is ragged, and the value tiles' spare output rows. A walk is Reset, Add
// per query, Score per page, Softmax, then Accumulate per page in the same
// order.
type AttnBlock struct {
	d, rs, ss int // head dim; scratch row stride (d rounded up to 16); score row stride
	n         int
	bound     [AttnBlockMax]int
	head      [AttnBlockMax]int
	cur       int // the KV head Add gives the next query
	out       [AttnBlockMax][]float32
	q         []float32 // AttnBlockMax × d
	qT        []float32 // d × AttnBlockMax: q dim-major, built by the first ZMM Score
	qtReady   bool
	scores    []float32 // AttnBlockMax × ss
	rows      []float32 // 16 × rs; columns past d stay zero
	panel     []float32 // attnBlockHeads × d × 16
	codes     []uint8   // 16 × d
	lod       [attnBlockHeads][2 * panelWidth]float32
	spare     [8][2 * panelWidth]float32
}

// NewAttnBlock allocates a block for head dimension d whose score rows hold
// maxTokens tokens (they grow geometrically past that).
func NewAttnBlock(d, maxTokens int) *AttnBlock {
	rs := (d + panelWidth - 1) / panelWidth * panelWidth
	b := &AttnBlock{
		d: d, rs: rs,
		q:     make([]float32, AttnBlockMax*d),
		qT:    make([]float32, d*AttnBlockMax),
		rows:  make([]float32, panelWidth*rs),
		panel: make([]float32, attnBlockHeads*d*panelWidth),
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
// their token bounds, Head query qi's KV head.
func (b *AttnBlock) Reset()          { b.n, b.cur = 0, 0 }
func (b *AttnBlock) Len() int        { return b.n }
func (b *AttnBlock) Bound() int      { return b.bound[b.n-1] }
func (b *AttnBlock) Head(qi int) int { return b.head[qi] }

// Add appends a query of the current KV head that attends the walk's first
// bound tokens and accumulates into out (length d), and returns its slot for
// the caller to fill with the RoPE'd query. Bounds must ascend: a chunk's rows
// in order.
func (b *AttnBlock) Add(bound int, out []float32) []float32 {
	if b.n == AttnBlockMax || len(out) != b.d || (b.n > 0 && bound < b.bound[b.n-1]) {
		panic("tensor: attention block overflow, output length mismatch or descending bound")
	}
	if bound > b.ss-panelWidth {
		b.growScores(2 * bound)
	}
	b.bound[b.n], b.head[b.n], b.out[b.n] = bound, b.cur, out
	b.n++
	b.qtReady = false
	return b.q[(b.n-1)*b.d : b.n*b.d]
}

// NextHead makes the queries added next belong to the next KV head — a
// decode lane's queries, head after head, in one block. A block starts at
// head 0, the head whose rows the walk passes to Score and Accumulate; a
// query of head h reads the rows h heads after those. A head's queries start
// on an even slot, and a block spans at most attnBlockHeads heads.
func (b *AttnBlock) NextHead() {
	if b.n%2 != 0 || b.cur+1 == attnBlockHeads {
		panic("tensor: attention block head on an odd slot or past the block's last head")
	}
	b.cur++
}

// Weights returns query qi's score row cut to its bound — after Softmax its
// attention weights, the vector an observer is shown — of a walk that covered
// the first covered tokens.
func (b *AttnBlock) Weights(qi, covered int) []float32 {
	return b.scores[qi*b.ss:][:min(b.bound[qi], covered)]
}

// Softmax turns every query's score row, cut to its bound and to the first
// covered tokens the walk reached, into its attention weights in place:
// Scale(row, scale) then Softmax(row) (softmaxRows).
func (b *AttnBlock) Softmax(covered int, scale float32) {
	var n [AttnBlockMax]int
	for q := 0; q < b.n; q++ {
		n[q] = min(b.bound[q], covered)
	}
	softmaxRows(b.scores, b.ss, n[:b.n], scale)
}

// softmaxRows runs Scale(row, scale) then Softmax(row) over the first n[r]
// floats of each row r of rows, stride floats apart (len(n) ≤ 16). On the
// AVX-512 arm every row runs at once, one row per vector lane, each still one
// ascending chain: rows must then hold 16 rows of at least n's largest bound
// rounded up to 16 floats, and the floats past a row's bound — and the rows
// past len(n) — are overwritten with unspecified values.
func softmaxRows(rows []float32, stride int, n []int, scale float32) {
	if arm == armAVX512 {
		var bounds [AttnBlockMax]int32
		top := 0
		for r, k := range n {
			bounds[r], top = int32(k), max(top, k)
		}
		if top > 0 {
			n16 := (top + panelWidth - 1) / panelWidth
			_ = rows[(AttnBlockMax-1)*stride+n16*panelWidth-1]
			softmaxRowsAVX512(&rows[0], stride, &bounds, n16, scale)
		}
		return
	}
	for r, k := range n {
		w := rows[r*stride:][:k]
		Scale(w, scale)
		Softmax(w)
	}
}

// headEnd returns the end of the run of queries that share query q0's KV
// head.
func (b *AttnBlock) headEnd(q0 int) int {
	q1 := q0 + 1
	for q1 < b.n && b.head[q1] == b.head[q0] {
		q1++
	}
	return q1
}

// live returns the first query of [q0, q1), in steps of a tile's four lanes
// from q0, whose tile has a query that sees token s: a tile whose four bounds
// all end at or before s is skipped.
func (b *AttnBlock) live(q0, q1, s int) int {
	g := q0
	for g < q1 && b.bound[min(g+3, q1-1)] <= s {
		g += 4
	}
	return g
}

// zmm reports whether the block walks r on the AVX-512 kernels: fp32 rows or
// 8-bit codes, whole 16-dimension panels.
func (b *AttnBlock) zmm(r *Rows) bool {
	return arm == armAVX512 && b.d%panelWidth == 0 && (r.F32 != nil || r.Bits == 8)
}

// tile8 returns the first query of the ZMM tiles' eight-lane group that holds
// the first query seeing token s (bounds ascend), or Len when none does.
func (b *AttnBlock) tile8(s int) int {
	g := 0
	for g < b.n && b.bound[g] <= s {
		g++
	}
	if g == b.n {
		return g
	}
	return g &^ 7
}

// Score writes the raw q·k of the t tokens of r, which are tokens [i, i+t)
// of the walk, into every live query's score row. r is the rows of the
// block's head 0; a query of head h reads the rows h heads after those, d
// floats further along each token row.
func (b *AttnBlock) Score(i, t int, r *Rows) {
	if b.zmm(r) {
		b.scoreZMM(i, t, r)
		return
	}
	for q0 := 0; q0 < b.n; {
		q1 := b.headEnd(q0)
		b.scoreHead(q0, q1, i, t, r)
		q0 = q1
	}
}

// scoreHead is Score for queries [q0, q1), which share a KV head, on the
// four-lane tile.
func (b *AttnBlock) scoreHead(q0, q1, i, t int, r *Rows) {
	h := b.head[q0]
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.live(q0, q1, i+t0)
		if g >= q1 {
			return
		}
		tt := min(panelWidth, t-t0)
		rows, stride := b.load(r, h, t0, tt, tt == panelWidth)
		relay(b.panel, rows, stride, b.d)
		for ; g < q1; g += 4 {
			lanes := min(4, q1-g)
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

// scoreZMM is Score on the AVX-512 kernels: per sub-tile one panel per KV
// head from its first live query's on, then one score tile over the live
// queries' eight- or sixteen-lane group.
func (b *AttnBlock) scoreZMM(i, t int, r *Rows) {
	if !b.qtReady {
		panelF32AVX512(&b.qT[0], &b.q[0], b.d, b.d/panelWidth)
		b.qtReady = true
	}
	ps := b.d * panelWidth
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.tile8(i + t0)
		if g >= b.n {
			return
		}
		tt := min(panelWidth, t-t0)
		h0, h1 := b.head[g], b.head[b.n-1]
		for h := h0; h <= h1; h++ {
			b.keyPanel(b.panel[h*ps:][:ps], r, h, t0, tt)
		}
		var panels [8]*float32
		for p := range panels {
			panels[p] = &b.panel[b.head[min(g+2*p, b.n-1)]*ps]
		}
		slots := 8
		if g == 0 && b.n > 8 {
			slots = 16
		}
		scoreAVX512(&b.scores[g*b.ss+i+t0], b.ss, &b.qT[g], b.d, &panels, slots, h0 == h1)
	}
}

// keyPanel lays tokens [t0, t0+tt) of head h of r dim-major into panel:
// fp32 rows by in-register transposes, 8-bit codes dequantized on the way
// with the head's (lo, Δ) pairs, a ragged sub-tile's missing rows padded.
func (b *AttnBlock) keyPanel(panel []float32, r *Rows, h, t0, tt int) {
	d16 := b.d / panelWidth
	if r.F32 != nil {
		rows, stride := b.load(r, h, t0, tt, tt == panelWidth)
		_ = rows[(panelWidth-1)*stride+b.d-1]
		panelF32AVX512(&panel[0], &rows[0], stride, d16)
		return
	}
	b.int8Params(r, t0, tt, h)
	codes, stride := r.Codes[t0*r.Stride+r.Off+h*b.d:], r.Stride
	if tt < panelWidth { // the panel kernel reads 16 rows: pad with code 0, (lo, Δ) = (0, 0)
		clear(b.codes)
		for j := 0; j < tt; j++ {
			copy(b.codes[j*b.d:][:b.d], codes[j*stride:])
		}
		codes, stride = b.codes, b.d
	}
	_ = codes[(panelWidth-1)*stride+b.d-1]
	panelQ8AVX512(&panel[0], &codes[0], stride, &b.lod[h][0], d16)
}

// Prefetch asks for what the block's queries read of the first t token rows
// of r — their KV heads' slice of each row, fp32 or 8-bit codes — to be
// brought towards L1 while the walk works on the page before: one head's
// slices are strided (a token row holds every head), and a walk's pages lie
// anywhere, so the hardware prefetchers do not follow them. Only the AVX-512
// arm asks; it reads nothing.
func (b *AttnBlock) Prefetch(r *Rows, t int) {
	if !b.zmm(r) || b.n == 0 || t <= 0 {
		return
	}
	h0, width := b.head[0], (b.head[b.n-1]-b.head[0]+1)*b.d
	if r.F32 != nil {
		_ = r.F32[(t-1)*r.Stride+h0*b.d+width-1]
		prefetchF32(&r.F32[h0*b.d], t, 4*r.Stride, 4*width)
		return
	}
	_ = r.Codes[(t-1)*r.Stride+r.Off+h0*b.d+width-1]
	prefetchU8(&r.Codes[r.Off+h0*b.d], t, r.Stride, width)
}

// Accumulate adds Σ weight·value over the t tokens of r, tokens [i, i+t) of
// the walk, into every live query's output (r as for Score). A query's chain
// stops at its own bound: within a sub-tile the lanes of a group run together
// up to the first lane's bound, the lanes past it on to the next, and so on
// (bounds ascend), so no query ever takes a step for a token it does not see
// — the step would be FMA32(0, v, acc), which turns a −0 accumulator into +0.
func (b *AttnBlock) Accumulate(i, t int, r *Rows) {
	if b.zmm(r) {
		b.accumulateZMM(i, t, r)
		return
	}
	for q0 := 0; q0 < b.n; {
		q1 := b.headEnd(q0)
		b.accumulateHead(q0, q1, i, t, r)
		q0 = q1
	}
}

// accumulateHead is Accumulate for queries [q0, q1), which share a KV head,
// on the four-lane tiles.
func (b *AttnBlock) accumulateHead(q0, q1, i, t int, r *Rows) {
	h := b.head[q0]
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.live(q0, q1, i+t0)
		if g >= q1 {
			return
		}
		tt := min(panelWidth, t-t0)
		rows, stride := b.load(r, h, t0, tt, b.d%panelWidth == 0)
		for ; g < q1; g += 4 {
			lanes, s := min(4, q1-g), 0
			for l := 0; l < lanes; l++ {
				if e := min(b.bound[g+l]-i-t0, tt); e > s {
					b.valueTiles(g, l, lanes, i+t0, s, e, rows, stride)
					s = e
				}
			}
		}
	}
}

// valueTiles adds tokens [s, e) of the sub-tile at walk position pos —
// value rows stride apart — weighted, into the outputs of lanes [first,
// lanes) of the query group at g, 16 or 32 columns at a time. Lanes before
// first, and the repeats a short group fills its tile with, land in the spare
// rows: a seeded tile adds, so a lane must never reach a query's output twice
// or past its bound.
func (b *AttnBlock) valueTiles(g, first, lanes, pos, s, e int, rows []float32, stride int) {
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
		if width > panelWidth {
			tilePair(&d, &x, rows[s*stride+c:], k, stride, panelWidth, true)
		} else {
			tile(&d, &x, rows[s*stride+c:], k, stride, lanes, true)
		}
		if width < panelWidth {
			for l := first; l < lanes; l++ {
				copy(b.out[g+l][c:], spare[l][:width])
			}
		}
		c += width
	}
}

// accumulateZMM is Accumulate on the AVX-512 kernels: per sub-tile each KV
// head's value rows (or codes and decoded (lo, Δ) pairs) from the first live
// query's group on, then eight queries at a time.
func (b *AttnBlock) accumulateZMM(i, t int, r *Rows) {
	v := zmmValues{stride: r.Stride, q8: r.F32 == nil}
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.tile8(i + t0)
		if g >= b.n {
			return
		}
		tt := min(panelWidth, t-t0)
		for h := b.head[g]; h <= b.head[b.n-1]; h++ {
			if !v.q8 {
				v.rows[h] = r.F32[t0*r.Stride+h*b.d:][:(tt-1)*r.Stride+b.d]
				continue
			}
			b.int8Params(r, t0, tt, h)
			v.codes[h] = r.Codes[t0*r.Stride+r.Off+h*b.d:][:(tt-1)*r.Stride+b.d]
		}
		for ; g < b.n; g += 8 {
			s := 0
			for l := 0; l < 8 && g+l < b.n; l++ {
				if e := min(b.bound[g+l]-i-t0, tt); e > s {
					b.valueZMM(g, l, i+t0, s, e, &v)
					s = e
				}
			}
		}
	}
}

// zmmValues is a sub-tile's value rows per KV head of the block as the ZMM
// value tiles read them, each cut to the sub-tile's rows: fp32 rows, or
// 8-bit codes (q8) whose (lo, Δ) pairs are in the block's lod; stride apart.
type zmmValues struct {
	rows   [attnBlockHeads][]float32
	codes  [attnBlockHeads][]uint8
	stride int
	q8     bool
}

// valueZMM adds tokens [s, e) of the sub-tile at walk position pos, weighted,
// into the outputs of lanes [first, 8) of the eight queries at g, 32 columns
// at a time (16 for a last odd panel); lane pair p reads the rows of its
// first query's KV head (every pair the one head's, loaded once, when the
// block has one). Lanes before first and past the block land in the spare
// rows.
func (b *AttnBlock) valueZMM(g, first, pos, s, e int, v *zmmValues) {
	k, one := e-s, b.head[g] == b.head[b.n-1]
	var heads [4]int
	for p := range heads {
		heads[p] = b.head[min(g+2*p, b.n-1)]
	}
	var out [8]*float32
	for c := 0; c < b.d; c += 2 * panelWidth {
		for l := range out {
			if q := g + l; l < first || q >= b.n {
				out[l] = &b.spare[l][0]
			} else {
				out[l] = &b.out[q][c]
			}
		}
		w, off, pair := &b.scores[g*b.ss+pos+s], s*v.stride+c, b.d-c >= 2*panelWidth
		if v.q8 {
			var codes [4]*uint8
			var lod [4]*float32
			for p, h := range heads {
				codes[p], lod[p] = &v.codes[h][off], &b.lod[h][2*s]
			}
			valueQ8AVX512(&out, w, b.ss, &codes, &lod, k, v.stride, pair, one)
		} else {
			var rows [4]*float32
			for p, h := range heads {
				rows[p] = &v.rows[h][off]
			}
			valueAVX512(&out, w, b.ss, &rows, k, v.stride, pair, one)
		}
	}
}

// int8Params decodes the (lo, Δ) pairs of tokens [t0, t0+tt) of head h of
// r into that head's lod, zero past tt: DecodeFloat16 per half, by VCVTPH2PS
// on the AVX-512 arm (the only arm that reads 8-bit codes without fp32 rows).
func (b *AttnBlock) int8Params(r *Rows, t0, tt, h int) {
	step := r.Heads * 2
	params := r.Params[(t0*r.Heads+r.Head+h)*2:]
	_ = params[(tt-1)*step+1]
	lod := &b.lod[h]
	if arm == armAVX512 {
		paramsQ8AVX512(&lod[0], &params[0], 2*step, tt)
		return
	}
	clear(lod[:])
	for j := 0; j < tt; j++ {
		lod[2*j], lod[2*j+1] = DecodeFloat16(params[j*step]), DecodeFloat16(params[j*step+1])
	}
}

// load returns tokens [t0, t0+tt) of head h of r as fp32 rows and their
// stride: the page's own memory when it is fp32 and inPlace says the kernel
// can read it there (the re-lay needs all 16 rows to exist, the value tile
// needs whole 16-column panels), else the block's scratch rows, copied or
// dequantized (DequantSliceInto). Nothing past the page's tt rows is read.
func (b *AttnBlock) load(r *Rows, h, t0, tt int, inPlace bool) ([]float32, int) {
	if r.Stride < b.d {
		panic("tensor: attention rows stride below head dimension")
	}
	switch {
	case r.F32 == nil:
		for j := 0; j < tt; j++ {
			DequantSliceInto(b.rows[j*b.rs:][:b.d], r.Codes, r.Params, r.Bits, r.Off+h*b.d, r.Stride, r.Heads, r.Head+h, t0+j)
		}
	case inPlace:
		src := r.F32[t0*r.Stride+h*b.d:]
		_ = src[(tt-1)*r.Stride+b.d-1]
		return src, r.Stride
	default:
		for j := 0; j < tt; j++ {
			copy(b.rows[j*b.rs:][:b.d], r.F32[(t0+j)*r.Stride+h*b.d:][:b.d])
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
