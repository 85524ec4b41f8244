package sparse

import (
	"testing"

	"rethinkkv/internal/kvcache"
)

func benchAppend(b *testing.B, cfg Config) {
	b.Helper()
	s := kvcache.Shape{Layers: 2, KVHeads: 2, HeadDim: 64}
	for i := 0; i < b.N; i++ {
		c := NewCache(s, cfg)
		appendN(c, 512, 1)
	}
}

// Ablation 4 (DESIGN.md): eviction policy cost at the same budget —
// positional (Stream) vs score-scan (H2O).
func BenchmarkEvictStreaming(b *testing.B) { benchAppend(b, DefaultStreaming(128)) }
func BenchmarkEvictH2O(b *testing.B)       { benchAppend(b, DefaultH2O(128)) }

func BenchmarkSnapKVCompress(b *testing.B) {
	s := kvcache.Shape{Layers: 2, KVHeads: 2, HeadDim: 64}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewCache(s, DefaultSnapKV(128))
		appendN(c, 512, 1)
		for l := 0; l < 2; l++ {
			for h := 0; h < 2; h++ {
				w := make([]float32, c.Len(l, h))
				for j := range w {
					w[j] = 1.0 / float32(len(w))
				}
				c.ObserveAttention(l, h, w)
			}
		}
		b.StartTimer()
		c.FinishPrefill()
	}
}
