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

// attnCase is one KV head's pages in one codec (bits 0 = fp32) — what a block
// walk reads — with the scalar reference's per-token fp32 views beside them.
type attnCase struct {
	hd, heads, head, bits, pageTokens, tokens int
	kf, vf                                    [][]float32 // fp32 pages, token-major at stride heads*hd
	kc, vc                                    [][]uint8   // code pages
	kp, vp                                    [][]uint16  // (lo, Δ) fp16 pairs
	kRows, vRows                              [][]float32 // reference: token i's head slice
}

// newAttnCase draws the pages from next. With plant, values, codes and
// parameters carry planted +0, −0, denormals, code 0 / 255 and Δ = 0 (a
// benchmark leaves them out: denormal arithmetic is microcoded).
func newAttnCase(next func() uint64, plant bool, hd, heads, head, bits, pageTokens, tokens int) *attnCase {
	c := &attnCase{hd: hd, heads: heads, head: head, bits: bits, pageTokens: pageTokens, tokens: tokens}
	stride, off := heads*hd, head*hd
	for t0 := 0; t0 < tokens; t0 += pageTokens {
		t := min(pageTokens, tokens-t0)
		for _, vals := range []bool{false, true} {
			var f32 []float32
			var codes []uint8
			var params []uint16
			if bits == 0 {
				f32 = make([]float32, t*stride)
				for i := range f32 {
					if v := next(); plant && v%13 == 0 {
						f32[i] = attnPlanted[next()%uint64(len(attnPlanted))]
					} else {
						f32[i] = float32(int64(v%2001)-1000) / 499
					}
				}
			} else {
				codes = make([]uint8, t*stride*bits/8)
				for i := range codes {
					v := next()
					codes[i] = uint8(v >> 8)
					if plant && v%11 < 2 {
						codes[i] = uint8(v % 11 * 255) // 0 or 255
					}
				}
				params = make([]uint16, t*heads*2)
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
			for i := 0; i < t; i++ {
				row := make([]float32, hd)
				if bits == 0 {
					copy(row, f32[i*stride+off:])
				} else {
					DequantSliceInto(row, codes, params, bits, off, stride, heads, head, i)
				}
				if vals {
					c.vRows = append(c.vRows, row)
				} else {
					c.kRows = append(c.kRows, row)
				}
			}
			if vals {
				c.vf, c.vc, c.vp = append(c.vf, f32), append(c.vc, codes), append(c.vp, params)
			} else {
				c.kf, c.kc, c.kp = append(c.kf, f32), append(c.kc, codes), append(c.kp, params)
			}
		}
	}
	return c
}

// rows is page p as the block kernels take it.
func (c *attnCase) rows(p int, vals bool) Rows {
	r := Rows{Stride: c.heads * c.hd}
	f32, codes, params := c.kf[p], c.kc[p], c.kp[p]
	if vals {
		f32, codes, params = c.vf[p], c.vc[p], c.vp[p]
	}
	if c.bits == 0 {
		r.F32 = f32[c.head*c.hd:]
		return r
	}
	r.Codes, r.Params, r.Bits, r.Off, r.Heads, r.Head = codes, params, c.bits, c.head*c.hd, c.heads, c.head
	return r
}

// view is token i of r as the scalar reference reads it: the fp32 row in
// place, or dequantized into scratch.
func (c *attnCase) view(scratch []float32, r *Rows, i int) []float32 {
	if c.bits == 0 {
		return r.F32[i*r.Stride:][:c.hd]
	}
	DequantSliceInto(scratch, r.Codes, r.Params, r.Bits, r.Off, r.Stride, r.Heads, r.Head, i)
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
func checkAttendBlock(t *testing.T, seed uint64, hd, heads, head, bits, pageTokens, tokens, nq int) {
	next := lcg(seed)
	c := newAttnCase(next, true, hd, heads, head, bits, pageTokens, tokens)
	what := fmt.Sprintf("seed=%d hd=%d heads=%d/%d bits=%d page=%d tokens=%d nq=%d", seed, hd, head, heads, bits, pageTokens, tokens, nq)
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

// fuzzAttnShape maps raw fuzz inputs onto a head dimension, 1–4 KV heads and
// a head among them, a codec, 1–40 tokens per page (sub-tiles of 1–16), up to
// 100 tokens and 1–16 queries.
func fuzzAttnShape(hd, heads, head, codec, pageTokens, tokens, nq uint8) (int, int, int, int, int, int, int) {
	h := int(heads)%4 + 1
	return attnHeadDims[int(hd)%len(attnHeadDims)], h, int(head) % h, []int{0, 8, 4}[int(codec)%3],
		int(pageTokens)%40 + 1, int(tokens)%100 + 1, int(nq)%AttnBlockMax + 1
}

// TestAttendBlockMatchesScalar is the generated kernel-equivalence check for
// the attention block walk: every head dimension × codec × head offset on a
// few page sizes, then seeded random shapes, under every arm.
func TestAttendBlockMatchesScalar(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, hd := range attnHeadDims {
			for _, bits := range []int{0, 8, 4} {
				for heads := 1; heads <= 4; heads++ {
					for head := 0; head < heads; head++ {
						for _, pt := range []int{4, 16, 23} {
							checkAttendBlock(t, uint64(hd*heads+pt), hd, heads, head, bits, pt, 2*pt+3, 1+(hd+head+pt)%AttnBlockMax)
						}
					}
				}
			}
		}
		s := uint64(2718)
		for i := 0; i < 300; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			hd, heads, head, bits, pt, tokens, nq := fuzzAttnShape(uint8(s>>8), uint8(s>>16), uint8(s>>24), uint8(s>>32), uint8(s>>40), uint8(s>>48), uint8(s>>56))
			checkAttendBlock(t, s, hd, heads, head, bits, pt, tokens, nq)
		}
	})
}

// FuzzAttendBlockMatchesScalar lets the fuzzer pick the shape, codec, page
// size, block size and data seed; every arm must match Dot
// and AXPY bit for bit.
func FuzzAttendBlockMatchesScalar(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(3), uint8(1), uint8(1), uint8(15), uint8(40), uint8(1))
	f.Add(uint64(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(3), uint8(9), uint8(15))
	f.Add(uint64(3), uint8(0), uint8(1), uint8(1), uint8(2), uint8(31), uint8(99), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, hd, heads, head, codec, pageTokens, tokens, nq uint8) {
		d, h, hh, bits, pt, n, q := fuzzAttnShape(hd, heads, head, codec, pageTokens, tokens, nq)
		eachArm(t, func(t *testing.T) { checkAttendBlock(t, seed, d, h, hh, bits, pt, n, q) })
	})
}

// BenchmarkAttendBlock prices one page visit — the score pass and the value
// pass over one 16-token page of one KV head, head dimension 32 (the
// benchmark model's) — for a block of 1, 2 and 16 queries per codec, under
// each arm, with the scalar reference (Dot and AXPY over DequantSliceInto
// views, once per query, at the host's arm) beside them: the attention
// counterpart of BenchmarkGEMM.
func BenchmarkAttendBlock(b *testing.B) {
	selected := arm
	defer func() { arm = selected }()
	const hd, heads, head, tokens = 32, 4, 1, 16
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
			c := newAttnCase(lcg(7), false, hd, heads, head, codec.bits, tokens, tokens)
			for _, nq := range []int{1, 2, 16} {
				blk := NewAttnBlock(hd, tokens)
				outs, qs := newLanes(nq, hd), benchLanes(nq, hd)
				for i := range qs {
					copy(blk.Add(tokens, outs[i]), qs[i])
				}
				kr, vr := c.rows(0, false), c.rows(0, true)
				scores, row := make([]float32, tokens), make([]float32, hd)
				b.Run(fmt.Sprintf("%s/%s/q%d", impl.name, codec.name, nq), func(b *testing.B) {
					arm = impl.level
					for b.Loop() {
						if impl.name != "scalar" {
							blk.Score(0, tokens, &kr)
							blk.Accumulate(0, tokens, &vr)
							continue
						}
						for q := range qs {
							for i := range scores {
								scores[i] = Dot(qs[q], c.view(row, &kr, i))
							}
							for i, w := range scores {
								AXPY(outs[q], w, c.view(row, &vr, i))
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/visit")
				})
			}
		}
	}
}
