package model

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"rethinkkv/internal/rng"
	"rethinkkv/internal/tensor"
)

// historicalWeights draws cfg's weights the way New did before it drew them a
// row at a time: float32(r.NormFloat64())·scale into a row-major matrix per
// weight, in New's order, each then packed — embedᵀ from a transposed copy of
// embed. It returns embed and every packed matrix in that order (embedᵀ
// first, then each layer's wq, wk, wv, wo, wGate, wUp, wDown).
func historicalWeights(cfg Config, seed uint64) (*tensor.Matrix, []*tensor.Packed) {
	r := rng.New(seed)
	randMat := func(rows, cols int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, cols)
		scale := float32(1 / math.Sqrt(float64(rows)))
		for i := range m.Data {
			m.Data[i] = float32(r.NormFloat64()) * scale
		}
		return m
	}
	pack := func(m *tensor.Matrix) *tensor.Packed {
		return tensor.PackRows(m.Rows, m.Cols, func(k int, row []float32) { copy(row, m.Row(k)) })
	}
	h := cfg.Hidden()
	embed := randMat(cfg.Vocab, h)
	packed := []*tensor.Packed{pack(tensor.Transpose(embed))}
	for l := 0; l < cfg.Layers; l++ {
		for _, shape := range [][2]int{{h, h}, {h, cfg.KVDim()}, {h, cfg.KVDim()}, {h, h},
			{h, cfg.FFNDim}, {h, cfg.FFNDim}, {cfg.FFNDim, h}} {
			packed = append(packed, pack(randMat(shape[0], shape[1])))
		}
	}
	return embed, packed
}

// packedWeights lists m's packed matrices in historicalWeights' order.
func packedWeights(m *Model) []*tensor.Packed {
	out := []*tensor.Packed{m.embedT}
	for _, lw := range m.layers {
		out = append(out, lw.wq, lw.wk, lw.wv, lw.wo, lw.wGate, lw.wUp, lw.wDown)
	}
	return out
}

// packedData reads a Packed's panel storage (unexported in tensor) for
// comparison by bits.
func packedData(p *tensor.Packed) reflect.Value {
	return reflect.ValueOf(p).Elem().FieldByName("data")
}

// TestModelWeightsMatchHistoricalDraws is the safety net under New's batched
// sampler: for the benchmark's model at the benchmark's seed and for the two
// tiny shapes at two seeds, embed, embedᵀ and every projection equal, bit for
// bit and panel padding included, what the one-NormFloat64-per-weight loop
// drew and packed. The historical loop's math.Log is amd64's assembly, which
// tensor's transform spells out; other architectures' math.Log rounds
// differently on rare inputs, so there the two are not expected to agree.
func TestModelWeightsMatchHistoricalDraws(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the historical draws are amd64's math.Log; the transform specifies that routine")
	}
	cases := []struct {
		cfg  Config
		seed uint64
	}{{Small(), 20250927}, {Tiny(), 1}, {Tiny(), 7}, {TinyMHA(), 1}, {TinyMHA(), 7}}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/seed=%d", c.cfg.Name, c.seed), func(t *testing.T) {
			m := New(c.cfg, c.seed)
			embed, want := historicalWeights(c.cfg, c.seed)
			for i, w := range embed.Data {
				if g := m.embed.Data[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("embed[%d] = %v, historical %v", i, g, w)
				}
			}
			got := packedWeights(m)
			if len(got) != len(want) {
				t.Fatalf("%d packed matrices, historical %d", len(got), len(want))
			}
			for j := range want {
				g, w := got[j], want[j]
				if g.Rows != w.Rows || g.Cols != w.Cols {
					t.Fatalf("matrix %d: %dx%d, historical %dx%d", j, g.Rows, g.Cols, w.Rows, w.Cols)
				}
				gd, wd := packedData(g), packedData(w)
				if gd.Len() != wd.Len() {
					t.Fatalf("matrix %d: %d panel floats, historical %d", j, gd.Len(), wd.Len())
				}
				for i := 0; i < wd.Len(); i++ {
					gv, wv := float32(gd.Index(i).Float()), float32(wd.Index(i).Float())
					if math.Float32bits(gv) != math.Float32bits(wv) {
						t.Fatalf("matrix %d, panel float %d: %v, historical %v", j, i, gv, wv)
					}
				}
			}
		})
	}
}

// residentWeightBytes is what a built model keeps of its weights: embed, the
// panels of embedᵀ and every projection, and the norm gains.
func residentWeightBytes(m *Model) int {
	n := len(m.embed.Data) + len(m.norm)
	for _, p := range packedWeights(m) {
		n += packedData(p).Len()
	}
	for _, lw := range m.layers {
		n += len(lw.attnNorm) + len(lw.ffnNorm)
	}
	return 4 * n
}

// TestModelNewAllocatesOnlyResidentWeights pins New's bytes: everything it
// allocates for the benchmark's model — the resident weights, the default
// workspace and the sampler's row scratch — stays within 5 % of the resident
// weights, so no matrix is ever held twice on the way to its panels.
func TestModelNewAllocatesOnlyResidentWeights(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(Small(), 20250927)
	runtime.ReadMemStats(&after)
	alloc, resident := after.TotalAlloc-before.TotalAlloc, residentWeightBytes(m)
	if float64(alloc) > 1.05*float64(resident) {
		t.Fatalf("New(Small()) allocated %d B for %d B of resident weights (%.3f×), want ≤ 1.05×",
			alloc, resident, float64(alloc)/float64(resident))
	}
	t.Logf("New(Small()) allocated %d B for %d B of resident weights (%.4f×)", alloc, resident, float64(alloc)/float64(resident))
}

// BenchmarkModelNew builds the benchmark's model: ns per weight drawn (every
// embed and projection element), and B/op against the resident weights.
func BenchmarkModelNew(b *testing.B) {
	cfg := Small()
	h := cfg.Hidden()
	draws := cfg.Vocab*h + cfg.Layers*(2*h*h+2*h*cfg.KVDim()+3*h*cfg.FFNDim)
	b.ReportAllocs()
	var m *Model
	for b.Loop() {
		m = New(cfg, 20250927)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(draws), "ns/draw")
	b.ReportMetric(float64(residentWeightBytes(m)), "resident-B")
}
