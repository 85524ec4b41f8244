package compress

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
			for _, rows := range [][][]float32{keys, vals} {
				for _, row := range rows {
					for _, x := range row {
						bits = append(bits, math.Float32bits(x))
					}
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
