package tensor

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// attnHeadDims are the head dimensions the generated checks draw from: 8 is
// narrower than a panel, 24 makes the value panel ragged, the rest are whole
// panels.
var attnHeadDims = []int{8, 16, 24, 32, 64, 128}

// attnPlanted are the values the generated checks plant among the random ones.
var attnPlanted = []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3e-42}

// lcg returns the generated checks' deterministic draw, seeded.
func lcg(s uint64) func() uint64 {
	return func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
}

// The forms a case's pages take: a page's head-major rows, and those with
// every full page's keys sealed where the page size is a multiple of 16, as a
// PagedKV seals them.
const (
	attnOpen = iota
	attnSealed
	attnForms
)

var attnFormNames = []string{"open", "sealed"}

// attnCase is the pages of heads KV heads in one codec (bits 0 = fp32) and
// one form — what a block walk reads, from head on — with the scalar
// reference's per-token fp32 views of every head beside them, read before any
// page was sealed.
type attnCase struct {
	hd, heads, head, bits, pageTokens, tokens, form int
	kf, vf                                          [][]float32 // fp32 pages
	kc, vc                                          [][]uint8   // code pages
	kp, vp                                          [][]uint16  // (lo, Δ) fp16 pairs, [head][token]
	sealed                                          []bool      // page p's keys are sealed
	keys, vals                                      [][][]float32
	kRows, vRows                                    [][]float32 // the case's head's keys and vals
}

// newAttnCase draws the pages from next, head-major at full page capacity,
// every slot filled (the tokens past a partial page's end too, which no walk
// may read). With plant, values, codes and parameters carry planted +0, −0,
// denormals, code 0 / 255 and Δ = 0 (a benchmark leaves them out: denormal
// arithmetic is microcoded).
func newAttnCase(next func() uint64, plant bool, hd, heads, head, bits, pageTokens, tokens, form int) *attnCase {
	c := &attnCase{hd: hd, heads: heads, head: head, bits: bits, pageTokens: pageTokens, tokens: tokens, form: form}
	c.keys, c.vals = make([][][]float32, heads), make([][][]float32, heads)
	ps := pageTokens * hd
	for t0 := 0; t0 < tokens; t0 += pageTokens {
		t := min(pageTokens, tokens-t0)
		seal := c.form == attnSealed && t == pageTokens && pageTokens%panelWidth == 0
		c.sealed = append(c.sealed, seal)
		for _, vals := range []bool{false, true} {
			var f32 []float32
			var codes []uint8
			var params []uint16
			if bits == 0 {
				f32 = make([]float32, heads*ps)
				for i := range f32 {
					if v := next(); plant && v%13 == 0 {
						f32[i] = attnPlanted[next()%uint64(len(attnPlanted))]
					} else {
						f32[i] = float32(int64(v%2001)-1000) / 499
					}
				}
			} else {
				codes = make([]uint8, heads*ps*bits/8)
				for i := range codes {
					v := next()
					codes[i] = uint8(v >> 8)
					if plant && v%11 < 2 {
						codes[i] = uint8(v % 11 * 255) // 0 or 255
					}
				}
				params = make([]uint16, heads*pageTokens*2)
				for i := 0; i < len(params); i += 2 {
					v := next()
					params[i] = EncodeFloat16(float32(int64(v%2001)-1000) / 499)
					params[i+1] = EncodeFloat16(float32(next()%1000) / 9000)
					switch {
					case !plant:
					case v%7 == 0:
						params[i+1] = 0 // Δ = 0: a constant slice
					case v%7 == 1:
						params[i] = 0x8000 // lo = −0
					case v%7 == 2:
						params[i+1] = 1 // Δ = the smallest fp16 subnormal
					}
				}
			}
			open := Rows{F32: f32, Codes: codes, Params: params, Bits: bits, HeadStride: ps}
			for h := 0; h < heads; h++ {
				for i := 0; i < t; i++ {
					row := make([]float32, hd)
					open.TokenInto(row, h, i)
					if vals {
						c.vals[h] = append(c.vals[h], row)
					} else {
						c.keys[h] = append(c.keys[h], row)
					}
				}
			}
			switch {
			case seal && !vals && bits == 0:
				for h := 0; h < heads; h++ {
					SealF32(f32[h*ps:][:ps], make([]float32, ps), hd)
				}
			case seal && !vals:
				for h := 0; h < heads; h++ {
					SealCodes(codes[h*ps*bits/8:][:ps*bits/8], make([]uint8, ps*bits/8), bits, hd)
				}
			}
			if vals {
				c.vf, c.vc, c.vp = append(c.vf, f32), append(c.vc, codes), append(c.vp, params)
			} else {
				c.kf, c.kc, c.kp = append(c.kf, f32), append(c.kc, codes), append(c.kp, params)
			}
		}
	}
	c.kRows, c.vRows = c.keys[head], c.vals[head]
	return c
}

// rows is page p as the block kernels take it.
func (c *attnCase) rows(p int, vals bool) Rows { return c.headPage(p, c.head, vals) }

// headPage is page p from KV head h on.
func (c *attnCase) headPage(p, h int, vals bool) Rows {
	f32, codes, params := c.kf[p], c.kc[p], c.kp[p]
	if vals {
		f32, codes, params = c.vf[p], c.vc[p], c.vp[p]
	}
	ps := c.pageTokens * c.hd
	r := Rows{HeadStride: ps, Sealed: !vals && c.sealed[p]}
	if c.bits == 0 {
		r.F32 = f32[h*ps:]
		return r
	}
	r.Codes, r.Params, r.Bits = codes[h*ps*c.bits/8:], params[2*h*c.pageTokens:], c.bits
	return r
}

// view is token i of r as the scalar reference reads it: fp32 token rows in
// place, else read into scratch (TokenInto).
func (c *attnCase) view(scratch []float32, r *Rows, i int) []float32 {
	if r.F32 != nil && !r.Sealed {
		return r.F32[i*c.hd:][:c.hd]
	}
	r.TokenInto(scratch, 0, i)
	return scratch
}

// walk runs one pass of the block over the case's pages up to n tokens.
func (c *attnCase) walk(b *AttnBlock, n int, vals bool) {
	for p, i := 0, 0; i < n; p, i = p+1, i+c.pageTokens {
		r := c.rows(p, vals)
		if t := min(c.pageTokens, n-i); vals {
			b.Accumulate(i, t, &r)
		} else {
			b.Score(i, t, &r)
		}
	}
}

// checkAttendBlock generates a case and a block of nq queries with ascending
// bounds, and asserts raw float32 bit equality of every score against Dot over
// the dequantized rows and of every output against the per-token AXPY loop
// seeded with a non-zero dst.
func checkAttendBlock(t *testing.T, seed uint64, hd, heads, head, bits, pageTokens, tokens, nq, form int) {
	next := lcg(seed)
	c := newAttnCase(next, true, hd, heads, head, bits, pageTokens, tokens, form)
	what := fmt.Sprintf("seed=%d hd=%d heads=%d/%d bits=%d %s page=%d tokens=%d nq=%d", seed, hd, head, heads, bits, attnFormNames[c.form], pageTokens, tokens, nq)
	draw := func() float32 {
		if v := next(); v%9 == 0 {
			return attnPlanted[next()%uint64(len(attnPlanted))]
		} else {
			return float32(int64(v%2001)-1000) / 499
		}
	}
	bounds := make([]int, nq)
	for i := range bounds {
		bounds[i] = int(next()%uint64(tokens)) + 1
	}
	sort.Ints(bounds)
	if next()%2 == 0 {
		for i := range bounds { // a decode group: every query sees everything
			bounds[i] = tokens
		}
	}
	b := NewAttnBlock(hd, 1+int(next()%uint64(tokens))) // sometimes too small: the score rows must grow
	got, want := newLanes(nq, hd), newLanes(nq, hd)
	qs := newLanes(nq, hd)
	for i := range qs {
		for j := range qs[i] {
			qs[i][j] = draw()
			got[i][j] = 0.5 + float32(next()%1000)/250
		}
		copy(want[i], got[i])
		copy(b.Add(bounds[i], got[i]), qs[i])
	}
	n := b.Bound()
	c.walk(b, n, false)
	gotS, wantS := make([][]float32, nq), newLanes(nq, n)
	for i := range qs {
		gotS[i] = b.Weights(i, n)
		if len(gotS[i]) != bounds[i] {
			t.Fatalf("%s: query %d has %d weights, bound %d", what, i, len(gotS[i]), bounds[i])
		}
		wantS[i] = wantS[i][:bounds[i]]
		for j := range wantS[i] {
			wantS[i][j] = Dot(qs[i], c.kRows[j])
		}
	}
	sameBits(t, what+" scores", gotS, wantS)
	for i := range gotS {
		for j := range gotS[i] {
			gotS[i][j] = draw() // the softmaxed weights, for this check any values
			AXPY(want[i], gotS[i][j], c.vRows[j])
		}
	}
	c.walk(b, n, true)
	sameBits(t, what+" outputs", got, want)
}

// checkAttendBlockHeads is checkAttendBlock for a block across span KV heads
// from the case's head on, group queries each (NextHead between heads): the
// decode lane's block. With ascending, bounds ascend across the block;
// otherwise every query sees every token. Softmax runs between the passes,
// against Scale and Softmax per query.
func checkAttendBlockHeads(t *testing.T, seed uint64, hd, heads, head, span, group, bits, pageTokens, tokens, form int, ascending bool) {
	next := lcg(seed)
	c := newAttnCase(next, true, hd, heads, head, bits, pageTokens, tokens, form)
	what := fmt.Sprintf("seed=%d hd=%d heads=%d+%d/%d group=%d bits=%d %s page=%d tokens=%d asc=%v", seed, hd, head, span, heads, group, bits, attnFormNames[c.form], pageTokens, tokens, ascending)
	nq := span * group
	bounds := make([]int, nq)
	for i := range bounds {
		bounds[i] = tokens
		if ascending {
			bounds[i] = int(next()%uint64(tokens)) + 1
		}
	}
	sort.Ints(bounds)
	b := NewAttnBlock(hd, tokens)
	qs, got, want := newLanes(nq, hd), newLanes(nq, hd), newLanes(nq, hd)
	for i := range qs {
		if i > 0 && i%group == 0 {
			b.NextHead()
		}
		for j := range qs[i] {
			qs[i][j] = float32(int64(next()%2001)-1000) / 499
			got[i][j] = 0.5 + float32(next()%1000)/250
		}
		copy(want[i], got[i])
		copy(b.Add(bounds[i], got[i]), qs[i])
	}
	n := b.Bound()
	c.walk(b, n, false)
	const scale = 0.125
	b.Softmax(n, scale)
	gotS, wantS := make([][]float32, nq), newLanes(nq, n)
	for i := range qs {
		if b.Head(i) != i/group {
			t.Fatalf("%s: query %d has head %d, want %d", what, i, b.Head(i), i/group)
		}
		keys, vals := c.keys[head+i/group], c.vals[head+i/group]
		gotS[i], wantS[i] = b.Weights(i, n), wantS[i][:bounds[i]]
		for j := range wantS[i] {
			wantS[i][j] = Dot(qs[i], keys[j])
		}
		Scale(wantS[i], scale)
		Softmax(wantS[i])
		for j, w := range wantS[i] {
			AXPY(want[i], w, vals[j])
		}
	}
	sameBits(t, what+" weights", gotS, wantS)
	c.walk(b, n, true)
	sameBits(t, what+" outputs", got, want)
}

// TestAttendBlockAcrossHeads pins blocks that span KV heads — a decode lane's
// queries, head after head — to Dot, Scale + Softmax and AXPY per query,
// under every arm: every head dimension and codec, blocks of 2–8 heads with
// even groups at every head offset of an 8-head page, page sizes below, at
// and above a sub-tile, equal and ascending bounds, each page form in turn.
func TestAttendBlockAcrossHeads(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		seed := uint64(1)
		for _, hd := range attnHeadDims {
			for _, bits := range []int{0, 8, 4} {
				for _, group := range []int{2, 4, 8} {
					for span := 2; span*group <= AttnBlockMax; span++ {
						for _, pt := range []int{4, 16, 23} {
							seed++
							head := int(seed) % (9 - span)
							checkAttendBlockHeads(t, seed, hd, 8, head, span, group, bits, pt, 2*pt+5, int(seed/3)%attnForms, seed%3 == 0)
						}
					}
				}
			}
		}
	})
}

// fuzzAttnShape maps raw fuzz inputs onto a head dimension, 1–4 KV heads and
// a head among them, a codec and a page form (both from codec), 1–40 tokens
// per page (sub-tiles of 1–16; 16 and 32 seal), up to 100 tokens and 1–16
// queries.
func fuzzAttnShape(hd, heads, head, codec, pageTokens, tokens, nq uint8) (int, int, int, int, int, int, int, int) {
	h := int(heads)%4 + 1
	return attnHeadDims[int(hd)%len(attnHeadDims)], h, int(head) % h, []int{0, 8, 4}[int(codec)%3],
		int(pageTokens)%40 + 1, int(tokens)%100 + 1, int(nq)%AttnBlockMax + 1, int(codec) / 3 % attnForms
}

// TestAttendBlockMatchesScalar is the generated kernel-equivalence check for
// the attention block walk: every head dimension × codec × page form × head
// offset on a few page sizes (16 and 32 seal), then seeded random shapes,
// under every arm.
func TestAttendBlockMatchesScalar(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, hd := range attnHeadDims {
			for _, bits := range []int{0, 8, 4} {
				for form := 0; form < attnForms; form++ {
					for heads := 1; heads <= 4; heads++ {
						for head := 0; head < heads; head++ {
							for _, pt := range []int{4, 16, 23, 32} {
								checkAttendBlock(t, uint64(hd*heads+pt), hd, heads, head, bits, pt, 2*pt+3, 1+(hd+head+pt)%AttnBlockMax, form)
							}
						}
					}
				}
			}
		}
		s := uint64(2718)
		for i := 0; i < 300; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			hd, heads, head, bits, pt, tokens, nq, form := fuzzAttnShape(uint8(s>>8), uint8(s>>16), uint8(s>>24), uint8(s>>32), uint8(s>>40), uint8(s>>48), uint8(s>>56))
			checkAttendBlock(t, s, hd, heads, head, bits, pt, tokens, nq, form)
		}
	})
}

// FuzzAttendBlockMatchesScalar lets the fuzzer pick the shape, codec, page
// form (open or sealed), page size, block size and data seed; every arm must
// match Dot and AXPY bit for bit.
func FuzzAttendBlockMatchesScalar(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(3), uint8(1), uint8(1), uint8(15), uint8(40), uint8(1))
	f.Add(uint64(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(3), uint8(9), uint8(15))
	f.Add(uint64(3), uint8(0), uint8(1), uint8(1), uint8(2), uint8(31), uint8(99), uint8(6))
	f.Add(uint64(4), uint8(3), uint8(3), uint8(2), uint8(3), uint8(15), uint8(70), uint8(7))  // fp32, sealed pages
	f.Add(uint64(5), uint8(1), uint8(1), uint8(0), uint8(4), uint8(31), uint8(99), uint8(15)) // int8, sealed 32-token pages
	f.Add(uint64(6), uint8(2), uint8(0), uint8(0), uint8(5), uint8(15), uint8(40), uint8(3))  // int4, sealed pages
	f.Fuzz(func(t *testing.T, seed uint64, hd, heads, head, codec, pageTokens, tokens, nq uint8) {
		d, h, hh, bits, pt, n, q, form := fuzzAttnShape(hd, heads, head, codec, pageTokens, tokens, nq)
		eachArm(t, func(t *testing.T) { checkAttendBlock(t, seed, d, h, hh, bits, pt, n, q, form) })
	})
}

// TestAccumulateStopsAtBound is the −0 case of the value pass: a subnormal
// weight times a small negative value underflows to −0, so a query whose
// tokens all do that ends its chain at −0 — and a step for a token past its
// bound, FMA32(0, v, −0) with v > 0, would make it +0. Five queries with
// bounds 3, 5, 9, 16 and 16 (two tile groups, every bound but the last inside
// the 16-token sub-tile) weight every token they see by the smallest
// subnormal; tokens 0–2 hold −0.25, the rest 0.5. Every output must equal the
// per-token AXPY loop, which runs no step past a bound, for fp32 and int8
// rows, under every arm.
func TestAccumulateStopsAtBound(t *testing.T) {
	const hd, tokens = 32, 16
	bounds := []int{3, 5, 9, 16, 16}
	value := func(j int) float32 {
		if j < 3 {
			return -0.25
		}
		return 0.5
	}
	f32 := make([]float32, tokens*hd)
	codes, params := make([]uint8, tokens*hd), make([]uint16, 2*tokens)
	for j := 0; j < tokens; j++ {
		for c := 0; c < hd; c++ {
			f32[j*hd+c] = value(j)
			codes[j*hd+c] = uint8(j*hd + c) // Δ = 0: every code dequantizes to lo
		}
		params[2*j] = EncodeFloat16(value(j))
	}
	eachArm(t, func(t *testing.T) {
		for _, r := range []Rows{{F32: f32}, {Codes: codes, Params: params, Bits: 8}} {
			b := NewAttnBlock(hd, tokens)
			got, want := newLanes(len(bounds), hd), newLanes(len(bounds), hd)
			for q, n := range bounds {
				b.Add(n, got[q])
			}
			for q, n := range bounds {
				w := b.Weights(q, tokens)
				for j := range w {
					w[j] = math.SmallestNonzeroFloat32
				}
				row := make([]float32, hd)
				for j := 0; j < n; j++ {
					for c := range row {
						row[c] = value(j)
					}
					AXPY(want[q], math.SmallestNonzeroFloat32, row)
				}
			}
			b.Accumulate(0, tokens, &r)
			if !math.Signbit(float64(want[0][0])) {
				t.Fatal("the reference does not end at −0: the case tests nothing")
			}
			sameBits(t, fmt.Sprintf("bits=%d", r.Bits), got, want)
		}
	})
}

// blockSources draws the pair → source map of a ZMM tile: pairs pairs split
// into runs of ascending source (1 to heads of them, the first pair's source
// 0), the pairs past them reading the last pair's source, as a block's
// slots past its end read its last query's head.
func blockSources(next func() uint64, pairs, heads int) (src [8]int, one bool) {
	cuts := map[int]bool{}
	for len(cuts) < heads-1 {
		cuts[1+int(next()%uint64(pairs-1))] = true
	}
	for p := 1; p < len(src); p++ {
		src[p] = src[p-1]
		if p < pairs && cuts[p] {
			src[p]++
		}
	}
	return src, heads == 1
}

// TestBlockKernelsMatchTileArm pins each ZMM leaf kernel to its Go arm on raw
// operands, bit for bit: panelF32AVX512 to relay, panelQ8AVX512 to relay over
// rows dequantized as TokenInto does, sealQ8AVX512 to SealCodes' Go arm,
// panelQ8SealedAVX512 to sealedPanel over the same codes sealed (one
// dim-major sub-tile, its pairs as stored),
// scoreAVX512 to scoreLanes — over scratch panels and over a sealed page's
// own —
// valueAVX512 and valueQ8AVX512 to valueLanes (over the same dequantized
// rows), the Go arm run at armGo — the specification — and at armAVX2, the
// YMM tile. Head dimensions 16, 32 and 48 (one panel, a pair, a pair and an
// odd last panel); score tiles of 1–16 slots over 1–8 heads, from slot 0 and
// from slot 8; value tiles of one and two panels over 1–16 tokens, 1–4
// sources, the first live lane 0–7 and the last 1–8. Values, weights, codes
// and (lo, Δ) pairs carry planted ±0, subnormals, codes 0 / 255 and Δ = 0.
func TestBlockKernelsMatchTileArm(t *testing.T) {
	if arm < armAVX512 {
		t.Skip("the ZMM kernels need the AVX-512 arm: this host or build lacks it")
	}
	selected := arm
	defer func() { arm = selected }()
	next := lcg(36)
	draw := func() float32 {
		if v := next(); v%9 == 0 {
			return attnPlanted[next()%uint64(len(attnPlanted))]
		} else {
			return float32(int64(v%2001)-1000) / 499
		}
	}
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = draw()
		}
		return x
	}
	codeRows := func(rows, stride int) ([]uint8, []float32, []uint16) {
		codes, lod, pairs := make([]uint8, rows*stride), make([]float32, 2*panelWidth), make([]uint16, 2*panelWidth)
		for i := range codes {
			v := next()
			codes[i] = uint8(v >> 8)
			if v%11 < 2 {
				codes[i] = uint8(v % 11 * 255)
			}
		}
		for j := 0; j < rows; j++ {
			lo, dlt := EncodeFloat16(draw()), EncodeFloat16(float32(next()%1000)/9000)
			switch next() % 7 {
			case 0:
				dlt = 0
			case 1:
				lo = 0x8000
			case 2:
				dlt = 1
			}
			lod[2*j], lod[2*j+1] = DecodeFloat16(lo), DecodeFloat16(dlt)
			pairs[2*j], pairs[2*j+1] = lo, dlt
		}
		return codes, lod, pairs
	}
	dequant := func(codes []uint8, lod []float32, rows, stride int) []float32 {
		x := make([]float32, rows*stride)
		for j := 0; j < rows; j++ {
			for c := 0; c < stride; c++ {
				x[j*stride+c] = float32(float32(codes[j*stride+c])*lod[2*j+1]) + lod[2*j]
			}
		}
		return x
	}
	same := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: float %d is %#08x, the Go arm's %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	for _, d := range []int{16, 32, 48} {
		stride := d + 8
		rows := fill(panelWidth * stride)
		codes, lod, pairs := codeRows(panelWidth, d)
		deq := dequant(codes, lod, panelWidth, d)
		arm = armAVX512
		sealed := append([]uint8(nil), codes...)
		SealCodes(sealed, make([]uint8, len(codes)), 8, d)
		gotK, gotQ8, gotS8 := make([]float32, d*panelWidth), make([]float32, d*panelWidth), make([]float32, d*panelWidth)
		panelF32AVX512(&gotK[0], &rows[0], stride, d/panelWidth)
		panelQ8AVX512(&gotQ8[0], &codes[0], d, &lod[0], d/panelWidth)
		panelQ8SealedAVX512(&gotS8[0], &sealed[0], &pairs[0], d)

		ps := d * panelWidth
		panels := fill(8 * ps)
		var scratch, page [attnBlockHeads][]float32 // the block's panels, and a sealed page's heads read in place
		pageBuf := fill(8 * ps)
		for h := range scratch {
			scratch[h], page[h] = panels[h*ps:][:ps], pageBuf[h*ps:][:ps]
		}
		q := fill(AttnBlockMax * d)
		qT := make([]float32, d*AttnBlockMax)
		panelF32AVX512(&qT[0], &q[0], d, d/panelWidth)
		const ss = 24
		type scoreCase struct {
			g, slots int
			src      [8]int
			one      bool
			panels   *[attnBlockHeads][]float32
			got      []float32
		}
		var scores []scoreCase
		for slots := 1; slots <= AttnBlockMax; slots++ {
			pairs := (slots + 1) / 2
			for heads := 1; heads <= pairs; heads++ {
				for _, g := range []int{0, 8} {
					if g+slots > AttnBlockMax {
						continue
					}
					c := scoreCase{g: g, slots: slots, panels: &scratch, got: make([]float32, AttnBlockMax*ss)}
					if next()%2 == 0 {
						c.panels = &page
					}
					c.src, c.one = blockSources(next, pairs, heads)
					var p [8]*float32
					for i, h := range c.src {
						p[i] = &c.panels[h][0]
					}
					n := 8
					if slots > 8 {
						n = 16
					}
					scoreAVX512(&c.got[0], ss, &qT[g], d, &p, n, c.one)
					scores = append(scores, c)
				}
			}
		}

		cstride := 2*panelWidth + 8
		type valueCase struct {
			k, first, last, cols int
			src                  [8]int
			one                  bool
			w, seed, got, gotQ8  []float32
		}
		vRows, qRows := make([][]float32, 4), make([][]float32, 4)
		vCodes, vLod := make([][]uint8, 4), make([][]float32, 4)
		for h := range vRows {
			vRows[h] = fill(panelWidth * cstride)
			vCodes[h], vLod[h], _ = codeRows(panelWidth, cstride)
			qRows[h] = dequant(vCodes[h], vLod[h], panelWidth, cstride)
		}
		const ws = 20
		var values []valueCase
		for k := 1; k <= panelWidth; k++ {
			for first := 0; first < 8; first++ {
				for _, cols := range []int{panelWidth, 2 * panelWidth} {
					c := valueCase{k: k, first: first, last: first + 1 + int(next()%uint64(8-first)), cols: cols}
					c.src, c.one = blockSources(next, 4, 1+int(next()%4))
					c.w, c.seed = fill(8*ws), fill(8*2*panelWidth)
					c.got, c.gotQ8 = append([]float32(nil), c.seed...), append([]float32(nil), c.seed...)
					var spare [8][2 * panelWidth]float32
					var out, outQ8 [8]*float32
					var v [4]*float32
					var vc [4]*uint8
					var vl [4]*float32
					for l := range out {
						out[l], outQ8[l] = &spare[l][0], &spare[l][0]
						if l >= c.first && l < c.last {
							out[l], outQ8[l] = &c.got[l*2*panelWidth], &c.gotQ8[l*2*panelWidth]
						}
					}
					for p := range v {
						h := c.src[p]
						v[p], vc[p], vl[p] = &vRows[h][0], &vCodes[h][0], &vLod[h][0]
					}
					valueAVX512(&out, &c.w[0], ws, &v, k, cstride, cols > panelWidth, c.one)
					valueQ8AVX512(&outQ8, &c.w[0], ws, &vc, &vl, k, cstride, cols > panelWidth, c.one)
					values = append(values, c)
				}
			}
		}

		for _, level := range []armLevel{armGo, armAVX2} {
			arm = level
			what := fmt.Sprintf("d=%d go arm at %s", d, armNames[level])
			want := make([]float32, d*panelWidth)
			relay(want, rows, stride, d)
			same(what+" panelF32AVX512", gotK, want)
			relay(want, deq, d, d)
			same(what+" panelQ8AVX512", gotQ8, want)
			wantSealed := append([]uint8(nil), codes...)
			SealCodes(wantSealed, make([]uint8, len(codes)), 8, d)
			if string(wantSealed) != string(sealed) {
				t.Fatalf("%s sealQ8AVX512: the sealed codes differ from the Go arm's", what)
			}
			sealedPanel(want, sealed, pairs, 8)
			same(what+" panelQ8SealedAVX512", gotS8, want)
			same(what+" sealedPanel", want, gotQ8)
			for _, c := range scores {
				heads := make([]int, c.slots)
				for l := range heads {
					heads[l] = c.src[l/2]
				}
				wantS := make([]float32, AttnBlockMax*ss)
				scoreLanes(wantS, ss, q[c.g*d:], d, c.panels, heads)
				for l := 0; l < c.slots; l++ {
					same(fmt.Sprintf("%s scoreAVX512 slots=%d from %d src=%v slot %d", what, c.slots, c.g, c.src, l), c.got[l*ss:][:panelWidth], wantS[l*ss:][:panelWidth])
				}
			}
			for _, c := range values {
				for _, kernel := range []struct {
					name string
					rows [][]float32
					got  []float32
				}{{"valueAVX512", vRows, c.got}, {"valueQ8AVX512", qRows, c.gotQ8}} {
					wantV := append([]float32(nil), c.seed...)
					out := make([][]float32, c.last)
					for l := range out {
						out[l] = wantV[l*2*panelWidth:][:2*panelWidth]
					}
					var v [4][]float32
					for p := range v {
						v[p] = kernel.rows[c.src[p]]
					}
					var spare [8][2 * panelWidth]float32
					valueLanes(out, c.first, 0, c.cols, c.w, ws, &v, c.k, cstride, &spare)
					for l := 0; l < 8; l++ {
						n := c.cols
						if l < c.first || l >= c.last {
							n = 2 * panelWidth // a dead lane's output is untouched
						}
						same(fmt.Sprintf("%s %s k=%d lanes [%d, %d) cols=%d src=%v lane %d", what, kernel.name, c.k, c.first, c.last, c.cols, c.src, l), kernel.got[l*2*panelWidth:][:n], wantV[l*2*panelWidth:][:n])
					}
				}
			}
		}
	}
}

// BenchmarkAttendBlock prices one page visit — the score pass and the value
// pass over one 16-token page, head dimension 32 (the benchmark model's) —
// for a block of 1, 2 and 16 queries of one KV head per codec, and for the
// decode lane's block "dec8": its full head set, 4 KV heads × a group of 2
// queries, under each arm, on an open page (keys re-laid per visit) and on a
// sealed one (".../sealed": every page a PagedKV walks but its tail), with
// the scalar reference (Dot and AXPY over TokenInto views, once per query, at
// the host's arm) beside them: the attention counterpart of BenchmarkGEMM.
func BenchmarkAttendBlock(b *testing.B) {
	selected := arm
	defer func() { arm = selected }()
	impls := []struct {
		name  string
		level armLevel
	}{{"scalar", selected}, {"go", armGo}, {"avx2", armAVX2}, {"avx512", armAVX512}}
	for _, impl := range impls {
		if impl.level > selected {
			continue
		}
		for _, codec := range []struct {
			name string
			bits int
		}{{"fp32", 0}, {"int8", 8}, {"int4", 4}} {
			for _, shape := range []struct {
				name              string
				head, nq, perHead int
			}{{"q1", 1, 1, 1}, {"q2", 1, 2, 2}, {"q16", 1, 16, 16}, {"dec8", 0, 8, 2}} {
				for _, form := range []int{attnOpen, attnSealed} {
					if form == attnSealed && impl.name == "scalar" {
						continue
					}
					benchAttendVisit(b, impl.name, impl.level, codec.name, codec.bits, shape.name, shape.head, shape.nq, shape.perHead, form)
				}
			}
		}
	}
}

// benchAttendVisit is one row of BenchmarkAttendBlock.
func benchAttendVisit(b *testing.B, impl string, level armLevel, codec string, bits int, shape string, head, nq, perHead, form int) {
	const hd, heads, tokens = 32, 4, 16
	c := newAttnCase(lcg(7), false, hd, heads, head, bits, tokens, tokens, form)
	blk := NewAttnBlock(hd, tokens)
	outs, qs := newLanes(nq, hd), benchLanes(nq, hd)
	keys, vals := make([]Rows, nq), make([]Rows, nq)
	for i := range qs {
		if i > 0 && i%perHead == 0 {
			blk.NextHead()
		}
		copy(blk.Add(tokens, outs[i]), qs[i])
		keys[i], vals[i] = c.headPage(0, head+i/perHead, false), c.headPage(0, head+i/perHead, true)
	}
	kr, vr := c.rows(0, false), c.rows(0, true)
	scores, row := make([]float32, tokens), make([]float32, hd)
	name := fmt.Sprintf("%s/%s/%s", impl, codec, shape)
	if form == attnSealed {
		name += "/sealed"
	}
	b.Run(name, func(b *testing.B) {
		arm = level
		for b.Loop() {
			if impl != "scalar" {
				blk.Score(0, tokens, &kr)
				blk.Accumulate(0, tokens, &vr)
				continue
			}
			for q := range qs {
				for i := range scores {
					scores[i] = Dot(qs[q], c.view(row, &keys[q], i))
				}
				for i, w := range scores {
					AXPY(outs[q], w, c.view(row, &vals[q], i))
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/visit")
	})
}
