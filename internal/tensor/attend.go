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
// Every arm, codec and head dimension walks that one block shape: what
// differs lives only in the two loaders (keyPanel, values) and the leaf
// kernels (relay, scoreTile, valueTile). A full page's keys are sealed — laid
// as those very panels when the page filled (Rows.Sealed) — so a page visit
// transposes nothing: the score tile reads a sealed fp32 page in place, and a
// sealed code page is dequantized straight into the panel, dimension by
// dimension. Only the open tail page is re-laid per visit (relay). On the
// AVX-512 arm, for whole 16-dimension panels, the leaves are ZMM kernels —
// the score tile over all the block's queries (dim-major, transposed once per
// walk), the value tile over eight queries × 32 columns, the softmax over 16
// rows, one per vector lane — and 8-bit codes never become fp32 rows: the key
// loader dequantizes them into the panel, the value tile inside itself, each
// head's 16 (lo, Δ) pairs one contiguous load per sub-tile (int8Params).
// Elsewhere the leaves' Go arm runs gemm.go's four-lane tile over fp32 rows:
// the page's own, or copied or dequantized into the block's scratch rows
// (load).

// AttnBlockMax is the largest query block one page walk serves.
const AttnBlockMax = 16

// SealTokens is the token count of one sealed panel: a page whose size is a
// multiple of it seals when it fills (Rows.Sealed).
const SealTokens = panelWidth

// Rows is one page's key (or value) rows for the KV heads from one on,
// head-major: the h-th head's token t starts at element h·HeadStride + t·d of
// F32 (fp32), or, when F32 is nil, of Codes — uniform codes Bits wide, 4-bit
// ones packed two per byte, low nibble first — whose (lo, Δ) float16 pair is
// Params[2·(h·HeadStride/d + t)], where d is the head dimension the reader
// reads at and HeadStride is PageTokens·d. The pairs are head-major too, one
// per token row, so a head's 16 pairs are one run. Sealed key rows are laid as
// the score tile's panels instead: every 16 tokens of a head one d × 16
// dim-major panel (SealedAt).
type Rows struct {
	F32              []float32
	Codes            []uint8
	Params           []uint16
	Bits, HeadStride int
	Sealed           bool
}

// SealedAt is the element offset of token t's dimension j in one KV head's
// sealed rows of head dimension d: the panel of its 16 tokens, dim-major.
func SealedAt(t, j, d int) int {
	return t/panelWidth*panelWidth*d + j*panelWidth + t%panelWidth
}

// pair is the index in Params of the h-th head's token t's (lo, Δ) pair at
// head dimension d.
func (r *Rows) pair(h, t, d int) int { return 2 * (h*r.HeadStride/d + t) }

// TokenInto writes the h-th head's token t of r into dst (HeadDim floats) as
// fp32 — the reference reader of every layout and codec, which the block's
// loaders are equal to by bits: an fp32 element as stored; a code c as
// float32(c)·Δ + lo, the product rounded before lo is added (two roundings,
// the explicit conversion keeping any build from fusing them), internal/quant's
// Uniform dequantizer.
func (r *Rows) TokenInto(dst []float32, h, t int) {
	d := len(dst)
	base := h*r.HeadStride + t*d
	switch {
	case r.Sealed && r.F32 != nil:
		for j := range dst {
			dst[j] = r.F32[h*r.HeadStride+SealedAt(t, j, d)]
		}
		return
	case r.F32 != nil:
		copy(dst, r.F32[base:base+d])
		return
	}
	p := r.pair(h, t, d)
	lo, dlt := DecodeFloat16(r.Params[p]), DecodeFloat16(r.Params[p+1])
	switch {
	case r.Sealed:
		for j := range dst {
			dst[j] = float32(float32(codeAt(r.Codes, r.Bits, h*r.HeadStride+SealedAt(t, j, d)))*dlt) + lo
		}
	case r.Bits == 8:
		row := r.Codes[base : base+d : base+d]
		for j := range dst {
			dst[j] = float32(float32(row[j])*dlt) + lo
		}
	default: // two codes a byte, low nibble first; d is even
		row := r.Codes[base/2 : (base+d)/2 : (base+d)/2]
		for j := 0; j < d; j += 2 {
			b := row[j>>1]
			dst[j] = float32(float32(b&0x0F)*dlt) + lo
			dst[j+1] = float32(float32(b>>4)*dlt) + lo
		}
	}
}

// attnBlockHeads is the most KV heads one block spans: a KV head's queries
// start on an even slot, so a pair of the ZMM score tile's slots always reads
// one head's panel.
const attnBlockHeads = AttnBlockMax / 2

// AttnBlock is a block of up to AttnBlockMax queries over up to
// attnBlockHeads consecutive KV heads plus the scratch their page visits
// share: the queries (and their dim-major copy), one score/weight row per
// query, 16 fp32 token rows and a dim-major key panel per KV head (and which
// panel the score tile reads, the scratch one or a sealed page's own), for
// 8-bit codes a sub-tile's decoded (lo, Δ) pairs per KV head and its code
// rows when it is ragged, and the value tiles' spare output rows. A walk is
// Reset, Add per query, Score per page, Softmax, then Accumulate per page in
// the same order.
type AttnBlock struct {
	d, rs, ss int // head dim; scratch row stride (d rounded up to 16); score row stride
	n         int
	bound     [AttnBlockMax]int
	head      [AttnBlockMax]int
	cur       int // the KV head Add gives the next query
	out       [AttnBlockMax][]float32
	q         []float32 // AttnBlockMax × d
	qT        []float32 // d × AttnBlockMax: q dim-major, built by the first ZMM score tile
	qtReady   bool
	scores    []float32 // AttnBlockMax × ss
	rows      []float32 // attnBlockHeads × 16 × rs; columns past d stay zero
	panel     []float32 // attnBlockHeads × d × 16
	panels    [attnBlockHeads][]float32
	codes     []uint8 // 16 × d
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
		rows:  make([]float32, attnBlockHeads*panelWidth*rs),
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

// tile8 returns the first query of the eight-lane group that holds the first
// query seeing token s (bounds ascend), or Len when none does: a sub-tile's
// passes start there.
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
// of the walk, into every live query's score row: per sub-tile one key panel
// per KV head from the first live query's eight-lane group on, then the score
// tile over those queries. r is the rows of the block's head 0; a query of
// head h reads the rows h heads after those. It panics unless r holds them
// all (check).
func (b *AttnBlock) Score(i, t int, r *Rows) {
	b.check(r, t)
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.tile8(i + t0)
		if g >= b.n {
			return
		}
		tt := min(panelWidth, t-t0)
		for h := b.head[g]; h <= b.head[b.n-1]; h++ {
			b.keyPanel(r, h, t0, tt)
		}
		b.scoreTile(g, i+t0)
	}
}

// keyPanel is the key loader: it sets head h's panel to tokens [t0, t0+tt)
// of r dim-major. A sealed fp32 page is the panel itself; a sealed code page
// is dequantized into the head's scratch panel as it lies, 16 tokens per
// dimension (sealedPanel; on the ZMM arm at 8 bits panelQ8SealedAVX512, its
// pairs one load). Token rows are re-laid: fp32 rows by relay from the page
// when the sub-tile is whole; where the ZMM kernels read 8-bit codes, the
// codes dequantized on the way with the head's (lo, Δ) pairs, a ragged
// sub-tile's missing rows padded with code 0; else rows copied or
// dequantized into the head's scratch rows, then re-laid.
func (b *AttnBlock) keyPanel(r *Rows, h, t0, tt int) {
	ps := b.d * panelWidth
	panel, base := b.panel[h*ps:][:ps], h*r.HeadStride+t0*b.d
	switch {
	case r.Sealed && r.F32 != nil:
		panel = r.F32[base:][:ps]
	case r.Sealed && r.Bits == 8 && zmmPanels(b.d):
		p := r.pair(h, t0, b.d)
		_, _ = r.Codes[base+ps-1], r.Params[p+2*panelWidth-1]
		panelQ8SealedAVX512(&panel[0], &r.Codes[base], &r.Params[p], b.d)
	case r.Sealed:
		sealedPanel(panel, r.Codes[base*r.Bits/8:][:ps*r.Bits/8], r.Params[r.pair(h, t0, b.d):][:2*panelWidth], r.Bits)
	case r.F32 != nil && tt == panelWidth:
		relay(panel, r.F32[base:], b.d, b.d)
	case r.Bits == 8 && zmmPanels(b.d):
		b.int8Params(r, t0, tt, h)
		codes := r.Codes[base:]
		if tt < panelWidth { // the panel kernel reads 16 rows
			clear(b.codes[copy(b.codes, codes[:tt*b.d]):])
			codes = b.codes
		}
		_ = codes[ps-1]
		panelQ8AVX512(&panel[0], &codes[0], b.d, &b.lod[h][0], b.d/panelWidth)
	default:
		relay(panel, b.load(r, h, t0, tt), b.rs, b.d)
	}
	b.panels[h] = panel
}

// sealedPanel is the sealed code loader's Go arm and its specification:
// panel[j*16+t] = float32(c)·Δ_t + lo_t for the code c of token t, dimension
// j, of one sealed sub-tile (codes dim-major, 16 per dimension, Bits wide),
// (lo_t, Δ_t) decoded from pairs[2t], pairs[2t+1] — TokenInto's arithmetic.
func sealedPanel(panel []float32, codes []uint8, pairs []uint16, bits int) {
	var lo, dlt [panelWidth]float32
	for t := range lo {
		lo[t], dlt[t] = DecodeFloat16(pairs[2*t]), DecodeFloat16(pairs[2*t+1])
	}
	cw := panelWidth * bits / 8 // code bytes per dimension
	for j := 0; j < len(panel)/panelWidth; j++ {
		row, c := panel[j*panelWidth:][:panelWidth], codes[j*cw:][:cw]
		if bits == 8 {
			for t := range row {
				row[t] = float32(float32(c[t])*dlt[t]) + lo[t]
			}
			continue
		}
		for i, b := range c { // tokens 2i and 2i+1: low nibble, high nibble
			row[2*i] = float32(float32(b&0x0F)*dlt[2*i]) + lo[2*i]
			row[2*i+1] = float32(float32(b>>4)*dlt[2*i+1]) + lo[2*i+1]
		}
	}
}

// Prefetch asks for what the block's queries read of the first t tokens of
// r — their KV heads' rows (sealed ones in whole panels), fp32 or 8-bit
// codes — to be brought towards L1 while the walk works on the page before:
// a walk's pages lie anywhere, so the hardware prefetchers do not follow
// them. Only the AVX-512 arm asks, for whole 16-dimension panels; it reads
// nothing.
func (b *AttnBlock) Prefetch(r *Rows, t int) {
	if !zmmPanels(b.d) || (r.F32 == nil && r.Bits != 8) || b.n == 0 || t <= 0 {
		return
	}
	if r.Sealed {
		t = (t + panelWidth - 1) / panelWidth * panelWidth
	}
	h0, heads, width := b.head[0], b.head[b.n-1]-b.head[0]+1, t*b.d // a head's rows each
	if r.F32 != nil {
		_ = r.F32[(h0+heads-1)*r.HeadStride+width-1]
		prefetchF32(&r.F32[h0*r.HeadStride], heads, 4*r.HeadStride, 4*width)
		return
	}
	_ = r.Codes[(h0+heads-1)*r.HeadStride+width-1]
	prefetchU8(&r.Codes[h0*r.HeadStride], heads, r.HeadStride, width)
}

// Accumulate adds Σ weight·value over the t tokens of r, tokens [i, i+t) of
// the walk, into every live query's output (r as for Score): per sub-tile
// each KV head's value rows from the first live query's eight-lane group on,
// then the value tile eight queries at a time. A query's chain stops at its
// own bound: within a sub-tile the lanes of a group run together up to the
// first lane's bound, the lanes past it on to the next, and so on (bounds
// ascend), so no query ever takes a step for a token it does not see — the
// step would be FMA32(0, v, acc), which turns a −0 accumulator into +0.
func (b *AttnBlock) Accumulate(i, t int, r *Rows) {
	if r.Sealed {
		panic("tensor: sealed rows are keys, not values")
	}
	b.check(r, t)
	var v blockValues
	for t0 := 0; t0 < t; t0 += panelWidth {
		g := b.tile8(i + t0)
		if g >= b.n {
			return
		}
		tt := min(panelWidth, t-t0)
		b.values(&v, r, t0, tt, b.head[g])
		for ; g < b.n; g += 8 {
			s := 0
			for l := 0; l < 8 && g+l < b.n; l++ {
				if e := min(b.bound[g+l]-i-t0, tt); e > s {
					b.valueTile(g, l, i+t0, s, e, &v)
					s = e
				}
			}
		}
	}
}

// blockValues is a sub-tile's value rows as the value tile reads them, stride
// apart, KV head h's starting h·hs elements in: fp32 rows, or 8-bit codes
// whose (lo, Δ) pairs are in the block's lod.
type blockValues struct {
	f32        []float32
	codes      []uint8
	hs, stride int
}

// values is the value loader: it sets v to tokens [t0, t0+tt) of r for the
// block's KV heads from h0 on — fp32 rows in place when the tile can read
// whole 16-column panels of them there, 8-bit codes as they lie with their
// (lo, Δ) pairs decoded where the ZMM value tile reads them, else fp32 rows
// copied or dequantized into the heads' scratch rows, whose zero columns past
// d fill a ragged last panel.
func (b *AttnBlock) values(v *blockValues, r *Rows, t0, tt, h0 int) {
	switch {
	case r.F32 != nil && b.d%panelWidth == 0:
		v.f32, v.hs, v.stride = r.F32[t0*b.d:], r.HeadStride, b.d
	case r.F32 == nil && r.Bits == 8 && zmmPanels(b.d):
		for h := h0; h <= b.head[b.n-1]; h++ {
			b.int8Params(r, t0, tt, h)
		}
		v.codes, v.hs, v.stride = r.Codes[t0*b.d:], r.HeadStride, b.d
	default:
		for h := h0; h <= b.head[b.n-1]; h++ {
			b.load(r, h, t0, tt)
		}
		v.f32, v.hs, v.stride = b.rows, panelWidth*b.rs, b.rs
	}
}

// valueTile adds tokens [s, e) of the sub-tile at walk position pos,
// weighted, into the outputs of lanes [first, 8) of the eight queries at g,
// 32 columns at a time (fewer for a last odd or ragged panel); lane pair p
// reads the rows of its first query's KV head. Lanes before first and past
// the block are dead: the ZMM tiles write them to the spare rows (every pair
// reading the one head's rows, loaded once, when the block has one head),
// the Go arm (valueLanes) skips them.
func (b *AttnBlock) valueTile(g, first, pos, s, e int, v *blockValues) {
	k, one, last := e-s, b.head[g] == b.head[b.n-1], min(8, b.n-g)
	w := b.scores[g*b.ss+pos+s:]
	if v.codes == nil && !zmmPanels(b.d) {
		for c := 0; c < b.d; c += 2 * panelWidth {
			var rows [4][]float32 // the live lanes' pairs
			for p := first / 2; p < (last+1)/2; p++ {
				rows[p] = v.f32[b.head[g+2*p]*v.hs+s*v.stride+c:]
			}
			valueLanes(b.out[g:g+last], first, c, min(2*panelWidth, b.d-c), w, b.ss, &rows, k, v.stride, &b.spare)
		}
		return
	}
	var heads [4]int
	for p := range heads {
		heads[p] = b.head[min(g+2*p, b.n-1)]
	}
	for c := 0; c < b.d; c += 2 * panelWidth {
		cols, off := min(2*panelWidth, b.d-c), s*v.stride+c
		var out [8]*float32
		for l := range out {
			out[l] = &b.spare[l][0]
			if l >= first && l < last {
				out[l] = &b.out[g+l][c]
			}
		}
		if v.codes != nil {
			var codes [4]*uint8
			var lod [4]*float32
			for p, h := range heads {
				codes[p], lod[p] = &v.codes[h*v.hs+off], &b.lod[h][2*s]
			}
			valueQ8AVX512(&out, &w[0], b.ss, &codes, &lod, k, v.stride, cols > panelWidth, one)
			continue
		}
		var rows [4]*float32
		for p, h := range heads {
			rows[p] = &v.f32[h*v.hs+off]
		}
		valueAVX512(&out, &w[0], b.ss, &rows, k, v.stride, cols > panelWidth, one)
	}
}

// int8Params decodes the (lo, Δ) pairs of tokens [t0, t0+tt) of head h of
// r — one run of the page's pairs — into that head's lod, zero past tt:
// DecodeFloat16 per half, by one masked load and VCVTPH2PS on the AVX-512 arm
// (the only arm whose loaders hand the kernels 8-bit codes rather than fp32
// rows).
func (b *AttnBlock) int8Params(r *Rows, t0, tt, h int) {
	params := r.Params[r.pair(h, t0, b.d):][:2*tt]
	lod := &b.lod[h]
	if arm == armAVX512 {
		paramsQ8AVX512(&lod[0], &params[0], tt)
		return
	}
	clear(lod[:])
	for j := range params {
		lod[j] = DecodeFloat16(params[j])
	}
}

// check panics unless r holds its t tokens whole for every KV head of the
// block — fp32 rows, or codes and their (lo, Δ) pairs; sealed rows in whole
// panels: a page visit's one bounds check, before the loaders read it on
// whichever arm.
func (b *AttnBlock) check(r *Rows, t int) {
	if b.n == 0 || t <= 0 {
		return
	}
	h, last := b.head[b.n-1], t-1
	if r.Sealed {
		last = (t+panelWidth-1)/panelWidth*panelWidth - 1
	}
	end := h*r.HeadStride + (last+1)*b.d
	if r.F32 != nil {
		_ = r.F32[end-1]
		return
	}
	_ = r.Codes[(end*r.Bits+7)/8-1]
	_ = r.Params[r.pair(h, last, b.d)+1]
}

// load writes tokens [t0, t0+tt) of head h of r's token rows into the head's
// 16 scratch rows, rs floats apart, and returns them: fp32 rows copied, codes
// dequantized (TokenInto).
func (b *AttnBlock) load(r *Rows, h, t0, tt int) []float32 {
	rows := b.rows[h*panelWidth*b.rs:][:panelWidth*b.rs]
	for j := 0; j < tt; j++ {
		row := rows[j*b.rs:][:b.d]
		if r.F32 != nil {
			copy(row, r.F32[h*r.HeadStride+(t0+j)*b.d:])
			continue
		}
		r.TokenInto(row, h, t0+j)
	}
	return rows
}

// zmmPanels reports whether the leaf kernels below run their ZMM kernels
// (attend_amd64.s) at head dimension d: the AVX-512 arm, whole 16-dimension
// panels. Otherwise they run their Go arm, equal by bits on the same
// operands, on gemm.go's four-lane tile: the pure-Go specification at armGo,
// the YMM tile at armAVX2.
func zmmPanels(d int) bool { return arm == armAVX512 && d%panelWidth == 0 }

// relay re-lays 16 rows of d floats, stride apart, dim-major:
// panel[j*16+t] = rows[t*stride+j] — a key panel, or the block's dim-major
// queries. Data movement only: 16 × 16 in-register transposes on the ZMM arm
// (panelF32AVX512), 8 × 8 ones on AVX2 (relay16AVX2), a Go loop for the rest.
func relay(panel, rows []float32, stride, d int) {
	_, _ = rows[(panelWidth-1)*stride+d-1], panel[d*panelWidth-1]
	if zmmPanels(d) {
		panelF32AVX512(&panel[0], &rows[0], stride, d/panelWidth)
		return
	}
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

// scoreTile writes the 16 scores at walk column pos of the block's queries
// from slot g on, each against its KV head's panel: on the ZMM kernel all of
// them at once, against the dim-major queries (re-laid once per walk), 8 or
// 16 slots (a slot past the block gets unspecified values); else the Go arm.
func (b *AttnBlock) scoreTile(g, pos int) {
	s := b.scores[g*b.ss+pos:]
	if !zmmPanels(b.d) {
		scoreLanes(s, b.ss, b.q[g*b.d:], b.d, &b.panels, b.head[g:b.n])
		return
	}
	if !b.qtReady {
		relay(b.qT, b.q, b.d, b.d)
		b.qtReady = true
	}
	var p [8]*float32
	for i := range p {
		p[i] = &b.panels[b.head[min(g+2*i, b.n-1)]][0]
	}
	slots := 8
	if b.n-g > 8 {
		slots = 16
	}
	scoreAVX512(&s[0], b.ss, &b.qT[g], b.d, &p, slots, b.head[g] == b.head[b.n-1])
}

// scoreLanes is the score tile's Go arm: s[l*ss+c] = Σ_j q[l*d+j] ·
// panels[heads[l]][j*16+c] for the 16 columns c of slots l < len(heads),
// each one chain from +0 in ascending j (Dot's arithmetic), up to four slots
// of one head per tile; a short group repeats its last slot, as tile's
// other callers do.
func scoreLanes(s []float32, ss int, q []float32, d int, panels *[attnBlockHeads][]float32, heads []int) {
	ps := d * panelWidth
	for l := 0; l < len(heads); {
		e := l + 1
		for e < len(heads) && e-l < 4 && heads[e] == heads[l] {
			e++
		}
		var dst, x [4][]float32
		for i := range dst {
			li := min(l+i, e-1)
			dst[i], x[i] = s[li*ss:][:panelWidth], q[li*d:][:d]
		}
		tile(&dst, &x, panels[heads[l]][:ps], d, panelWidth, e-l, false)
		l = e
	}
}

// valueLanes is the value tile's Go arm: for the lanes l in [first,
// len(out)) and the cols ≤ 32 columns j, out[l][c+j] continues its chain by
// FMA32(w[l*ws+kk], v[l/2][kk*stride+j], ·) for tokens kk < k in ascending
// order (the per-token AXPY loop's arithmetic), up to four lanes that read
// one source per seeded tile. A source's 16-column panels must be readable
// whole: a ragged last panel goes through spare rows, as do the lanes a
// short group fills its tile with (a seeded tile adds, so a lane must never
// reach an output twice).
func valueLanes(out [][]float32, first, c, cols int, w []float32, ws int, v *[4][]float32, k, stride int, spare *[8][2 * panelWidth]float32) {
	for l := first; l < len(out); {
		src := v[l/2]
		e := l + 1
		for e < len(out) && e-l < 4 && &v[e/2][0] == &src[0] {
			e++
		}
		lanes := e - l
		var dst, x [4][]float32
		for i := range x {
			x[i], dst[i] = w[min(l+i, e-1)*ws:][:k], spare[i][:panelWidth]
		}
		for j := 0; j < cols; j += panelWidth {
			width := min(panelWidth, cols-j)
			for i := 0; i < lanes; i++ {
				dst[i] = out[l+i][c+j:]
				if width < panelWidth { // the tile writes 16 columns
					dst[i] = spare[i][:panelWidth]
					copy(dst[i], out[l+i][c+j:])
				}
			}
			tile(&dst, &x, src[j:], k, stride, lanes, true)
			if width < panelWidth {
				for i := 0; i < lanes; i++ {
					copy(out[l+i][c+j:], spare[i][:width])
				}
			}
		}
		l = e
	}
}
