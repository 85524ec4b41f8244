package compress

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rethinkkv/internal/kvcache"
)

// This file pins the one append contract, kvcache.Cache.AppendFlatN, on every
// registered method: a malformed span is refused before anything is stored,
// and what a cache holds does not depend on how its tokens were split into
// calls.

// methodState is everything a cache reports about what it holds: every
// (layer, head)'s Seq as raw float32 bits and its Positions, Len, plus
// TotalAppended and MemoryBytes.
type methodState struct {
	seq       [][]uint32 // [layer*KVHeads+head] keys then values, token by token
	positions [][]int
	lens      []int
	appended  int
	bytes     int64
}

func stateOf(c kvcache.Cache) methodState {
	s := c.Shape()
	st := methodState{appended: c.TotalAppended(), bytes: c.MemoryBytes()}
	for l := 0; l < s.Layers; l++ {
		for h := 0; h < s.KVHeads; h++ {
			keys, vals := c.Seq(l, h)
			var bits []uint32
			for _, rows := range [][]float32{keys, vals} {
				for _, x := range rows {
					bits = append(bits, math.Float32bits(x))
				}
			}
			st.seq = append(st.seq, bits)
			st.positions = append(st.positions, c.Positions(l, h))
			st.lens = append(st.lens, c.Len(l, h))
		}
	}
	return st
}

// requireSameState fails unless got holds exactly want's state.
func requireSameState(t testing.TB, what string, got, want methodState) {
	t.Helper()
	if got.appended != want.appended || got.bytes != want.bytes {
		t.Fatalf("%s: %d tokens in %d bytes, want %d in %d", what, got.appended, got.bytes, want.appended, want.bytes)
	}
	if !slices.Equal(got.lens, want.lens) {
		t.Fatalf("%s: Len %v, want %v", what, got.lens, want.lens)
	}
	for i := range want.seq {
		if !slices.Equal(got.positions[i], want.positions[i]) {
			t.Fatalf("%s: (layer, head) %d: Positions %v, want %v", what, i, got.positions[i], want.positions[i])
		}
		if !slices.Equal(got.seq[i], want.seq[i]) {
			t.Fatalf("%s: (layer, head) %d: Seq differs", what, i)
		}
	}
}

// splitTokens draws n tokens' K/V for every layer: ks[l] and vs[l] hold
// layer l's n token-major vectors back to back.
func splitTokens(r *rand.Rand, s kvcache.Shape, n int) (ks, vs [][]float32) {
	for l := 0; l < s.Layers; l++ {
		k := make([]float32, n*s.KVHeads*s.HeadDim)
		v := make([]float32, len(k))
		for i := range k {
			k[i] = float32(r.NormFloat64())
			v[i] = float32(r.NormFloat64())
		}
		ks, vs = append(ks, k), append(vs, v)
	}
	return ks, vs
}

// checkMethodAppendSplit appends the same n generated tokens to two caches
// of one method — one token per call, and a random split with empty spans
// included — signals the end of the first prompt tokens to both where the
// method listens for it, and requires the same state from both.
func checkMethodAppendSplit(t testing.TB, name string, seed int64, s kvcache.Shape, n, prompt int) {
	t.Helper()
	m := MustGet(name)
	r := rand.New(rand.NewSource(seed))
	ks, vs := splitTokens(r, s, n)
	stride := s.KVHeads * s.HeadDim
	prompt = min(prompt, n)
	appendSpan := func(c kvcache.Cache, lo, hi int) {
		for l := 0; l < s.Layers; l++ {
			c.AppendFlatN(l, hi-lo, ks[l][lo*stride:hi*stride], vs[l][lo*stride:hi*stride])
		}
	}
	one, split := m.NewCache(s), m.NewCache(s)
	for _, phase := range [][2]int{{0, prompt}, {prompt, n}} {
		for tk := phase[0]; tk < phase[1]; tk++ {
			appendSpan(one, tk, tk+1)
		}
		for off := phase[0]; off < phase[1]; {
			cn := r.Intn(min(phase[1]-off, 40) + 1)
			appendSpan(split, off, off+cn)
			off += cn
		}
		if phase[0] == 0 {
			for _, c := range []kvcache.Cache{one, split} {
				if pf, ok := c.(Prefiller); ok {
					pf.FinishPrefill()
				}
			}
		}
	}
	requireSameState(t, fmt.Sprintf("%s: split vs one token per call", name), stateOf(split), stateOf(one))
}

// TestMethodAppendSplitInvariant runs the property over seeded cases of every
// registered method, with enough tokens to quantise blocks and to evict.
func TestMethodAppendSplitInvariant(t *testing.T) {
	for _, name := range Names() {
		for i := 0; i < 4; i++ {
			t.Run(fmt.Sprintf("%s/%d", name, i), func(t *testing.T) {
				s := kvcache.Shape{Layers: 1 + i%2, KVHeads: 1 + i, HeadDim: 4 + 4*(i%2)}
				n := []int{0, 37, 170, 260}[i]
				checkMethodAppendSplit(t, name, int64(i), s, n, n/2+i)
			})
		}
	}
}

// FuzzMethodAppendSplit drives checkMethodAppendSplit from fuzzed methods,
// shapes, token counts, prompt lengths and seeds.
func FuzzMethodAppendSplit(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(1), uint8(7), uint16(40), uint16(20))
	f.Add(int64(2), uint8(3), uint8(0), uint8(2), uint8(3), uint16(200), uint16(150))
	f.Add(int64(3), uint8(5), uint8(2), uint8(0), uint8(15), uint16(299), uint16(0))
	f.Add(int64(4), uint8(9), uint8(1), uint8(3), uint8(1), uint16(180), uint16(180))
	names := Names()
	f.Fuzz(func(t *testing.T, seed int64, method, layers, kvHeads, headDim uint8, n, prompt uint16) {
		s := kvcache.Shape{Layers: int(layers)%2 + 1, KVHeads: int(kvHeads)%3 + 1, HeadDim: int(headDim)%16 + 1}
		checkMethodAppendSplit(t, names[int(method)%len(names)], seed, s, int(n)%300, int(prompt)%300)
	})
}

// TestMalformedSpanRefused requires every registered method's cache, and
// PagedKV under every page codec, to panic on a malformed span before it
// stores anything: TotalAppended and every Len are unchanged.
func TestMalformedSpanRefused(t *testing.T) {
	s := kvcache.Shape{Layers: 2, KVHeads: 2, HeadDim: 8}
	stride := s.KVHeads * s.HeadDim
	f := func(n int) []float32 { return make([]float32, n) }
	spans := []struct {
		name     string
		layer, n int
		k, v     []float32
	}{
		{"short", 0, 2, f(2*stride - 3), f(2*stride - 3)},
		{"long", 1, 1, f(stride + 1), f(stride + 1)},
		{"values differ", 0, 1, f(stride), f(stride - 1)},
		{"negative count", 0, -1, nil, nil},
		{"layer -1", -1, 1, f(stride), f(stride)},
		{"layer Layers", s.Layers, 1, f(stride), f(stride)},
	}
	type cache struct {
		name string
		mk   func() kvcache.Cache
	}
	var caches []cache
	for _, name := range Names() {
		caches = append(caches, cache{name, func() kvcache.Cache { return MustGet(name).NewCache(s) }})
	}
	for _, bits := range []int{0, 8, 4} {
		caches = append(caches, cache{fmt.Sprintf("paged-bits%d", bits), func() kvcache.Cache { return kvcache.NewPagedKVQuant(s, 4, 0, bits) }})
	}
	for _, cc := range caches {
		for _, sp := range spans {
			t.Run(cc.name+"/"+sp.name, func(t *testing.T) {
				c := cc.mk()
				ks, vs := splitTokens(rand.New(rand.NewSource(5)), s, 3)
				for l := 0; l < s.Layers; l++ {
					c.AppendFlatN(l, 3, ks[l], vs[l])
				}
				before := stateOf(c)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("malformed span stored without a panic")
						}
					}()
					c.AppendFlatN(sp.layer, sp.n, sp.k, sp.v)
				}()
				after := stateOf(c)
				if after.appended != before.appended || !slices.Equal(after.lens, before.lens) {
					t.Fatalf("refused span changed the cache: %d tokens, Len %v; was %d, %v", after.appended, after.lens, before.appended, before.lens)
				}
			})
		}
	}
}

// hashState folds a methodState into one FNV-64a value: every (layer, head)'s
// Seq bits, Positions and Len, then TotalAppended and MemoryBytes.
func hashState(st methodState) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for i := range st.seq {
		word(uint64(len(st.seq[i])))
		for _, x := range st.seq[i] {
			word(uint64(x))
		}
		word(uint64(len(st.positions[i])))
		for _, p := range st.positions[i] {
			word(uint64(p))
		}
		word(uint64(st.lens[i]))
	}
	word(uint64(st.appended))
	word(uint64(st.bytes))
	return h.Sum64()
}

// methodStateGolden holds hashState at each of TestMethodStateGolden's
// checkpoints, per method and shape. The values were written by the
// implementation that kept KIVI's and GEAR's block codes and decoded them on
// every read, and each evicting head as a slice of entries, so they hold the
// block cache and the parallel slices to it: a change that alters what any
// method stores, positions or charges moves one of them.
var methodStateGolden = map[string][2][3]uint64{
	"fp16":       {{0x8dcbbac87e272d5b, 0x483371164c1272f8, 0x867b8bf78f3f06ef}, {0xbb21f4c7438957a4, 0x1aa9750a4293da64, 0x75ea4f28f7c96fe5}},
	"gear-2":     {{0x35ae1085c28cccd2, 0xd4d751ce084d43f6, 0x6d2a00ee69e3f5a7}, {0x51f79b8bd63a64d6, 0x6646ee5deb44a17a, 0x87c182a4ffad505c}},
	"gear-4":     {{0x332c8031cdfa5996, 0x92388242c806566b, 0x3b005bc3c984340a}, {0x95316af32b7b475, 0xd1b88bc07419e366, 0x55fa538cf84d42ca}},
	"h2o-256":    {{0xcfa1b3b993fbcf2e, 0x81e704fc6edb64, 0x75abc0da5434a42}, {0x3a6a1bb61adfa5be, 0xbd5ae94f93d1df11, 0x77d9790cf4b478d7}},
	"h2o-512":    {{0x89072e3eccd16869, 0x5fa4020c304e8347, 0x48aa6e2d4d034e02}, {0xd04b9e890b0bdfc3, 0xa0683f843f259ef7, 0xfa6ee5fea2ef524f}},
	"kivi-2":     {{0x612957586c732e2d, 0x202f707ed74252ac, 0x6bbdb066f78d2d18}, {0x8a516b1e616033f, 0xaacff0e74f68aed3, 0x83357567e81ed09b}},
	"kivi-4":     {{0x184d935e8b3916b8, 0x5ae352c2d470064e, 0xb31783c533fd89f7}, {0xb5f453cc8c1640d3, 0x9a6ecc7ee4e09de3, 0x5ba0f59634a681ed}},
	"snapkv-512": {{0x370701a9846461a6, 0x74b6e446f51ebd26, 0xa28d90d82265986b}, {0xb5ca2466722f9fa7, 0x776e30de4df9e765, 0xcd00539300dd6d6d}},
	"stream-256": {{0xcef95559f72b9569, 0xb74f45a539f25b47, 0x200ae43f3c69653d}, {0x7cfdddfaa98571c5, 0x7b375ee56205b1fe, 0xefe29d80394fc5a0}},
	"stream-512": {{0x4699d1cb641e26c, 0xee2c00ca76d7f117, 0xf3c843771c91462c}, {0xa5cc82612b43ca84, 0x80b8931e02f8e9b7, 0xf8d758698fbad87f}},
}

// TestMethodStateGolden pins what every registered method stores, across
// revisions: at two shapes, 300 seeded tokens go in as spans of 1–24 tokens,
// every observing cache is shown weights of 0 or 1/n (one in four 1/n, so
// H2O's and SnapKV's choices meet ties) after each span, FinishPrefill
// follows the 140-token prompt, and the state is hashed after the prompt, at
// 224 tokens (a whole number of 16-token blocks, where a seal that comes one
// token late shows) and at 300 — enough to seal KIVI's and GEAR's blocks and
// to evict under every budget.
func TestMethodStateGolden(t *testing.T) {
	shapes := [2]kvcache.Shape{{Layers: 2, KVHeads: 2, HeadDim: 8}, {Layers: 1, KVHeads: 3, HeadDim: 4}}
	const n, prompt = 300, 140
	checkpoints := [3]int{prompt, 224, n}
	got := map[string][2][3]uint64{}
	for _, name := range Names() {
		var sums [2][3]uint64
		for si, s := range shapes {
			r := rand.New(rand.NewSource(int64(si) + 1))
			ks, vs := splitTokens(r, s, n)
			stride := s.KVHeads * s.HeadDim
			c := MustGet(name).NewCache(s)
			obs, _ := c.(kvcache.AttentionObserver)
			for tk, ci := 0, 0; tk < n; {
				span := min(1+r.Intn(24), checkpoints[ci]-tk)
				for l := 0; l < s.Layers; l++ {
					c.AppendFlatN(l, span, ks[l][tk*stride:(tk+span)*stride], vs[l][tk*stride:(tk+span)*stride])
				}
				tk += span
				if obs != nil {
					for l := 0; l < s.Layers; l++ {
						for h := 0; h < s.KVHeads; h++ {
							w := make([]float32, c.Len(l, h))
							for i := range w {
								w[i] = float32(r.Intn(4)/3) / float32(len(w)) // ties on purpose
							}
							obs.ObserveAttention(l, h, w)
						}
					}
				}
				if tk == prompt {
					if pf, ok := c.(Prefiller); ok {
						pf.FinishPrefill()
					}
				}
				if tk == checkpoints[ci] {
					sums[si][ci] = hashState(stateOf(c))
					ci++
				}
			}
		}
		got[name] = sums
	}
	if !maps.Equal(got, methodStateGolden) {
		var b strings.Builder
		for _, name := range Names() {
			fmt.Fprintf(&b, "\t%q: {", name)
			for si, sums := range got[name] {
				if si > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "{%#x, %#x, %#x}", sums[0], sums[1], sums[2])
			}
			b.WriteString("},\n")
		}
		t.Fatalf("stored state differs from methodStateGolden; this run's table:\n%s", b.String())
	}
}
