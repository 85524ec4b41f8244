package quant

import (
	"fmt"
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
)

func benchVecs(n, d int) [][]float32 {
	r := rng.New(1)
	out := make([][]float32, n)
	for i := range out {
		out[i] = randVec(r, d)
	}
	return out
}

func BenchmarkUniformQuantize(b *testing.B) {
	r := rng.New(1)
	xs := randVec(r, 4096)
	for _, bits := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			u := Uniform{Bits: bits}
			for i := 0; i < b.N; i++ {
				u.Quantize(xs)
			}
		})
	}
}

func BenchmarkGroupQuantize(b *testing.B) {
	vecs := benchVecs(32, 128)
	for _, gran := range []Granularity{PerToken, PerChannel} {
		b.Run(gran.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				QuantizeGroup(vecs, gran, 4)
			}
		})
	}
}

func BenchmarkGEARCompressBlock(b *testing.B) {
	vecs := benchVecs(32, 128)
	cfg := DefaultGEAR(4)
	for i := 0; i < b.N; i++ {
		compressGear(vecs, cfg)
	}
}

// Ablation 2 (DESIGN.md): KIVI residual-window length — accuracy (bit-exact
// recent window) vs memory, at constant bits.
func BenchmarkKIVIResidualWindow(b *testing.B) {
	shape := kvcache.Shape{Layers: 2, KVHeads: 2, HeadDim: 64}
	for _, residual := range []int{0, 32, 128} {
		b.Run(fmt.Sprintf("residual=%d", residual), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := NewKIVI(shape, KIVIConfig{Bits: 4, GroupSize: 32, Residual: residual})
				appendRandom(c, 256, 1)
				b.ReportMetric(float64(c.MemoryBytes()), "cache-bytes")
			}
		})
	}
}
