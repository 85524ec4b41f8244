package attention

import (
	"fmt"
	"testing"
)

// Ablation 1 (DESIGN.md): one-pass Flash vs multi-pass Naive attention —
// identical outputs, different traffic and wall time.
func BenchmarkNaiveVsFlash(b *testing.B) {
	for _, n := range []int{128, 512, 2048} {
		q, keys, vals := randSeq(1, n, 64)
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Naive(q, keys, vals)
			}
		})
		b.Run(fmt.Sprintf("flash/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Flash(q, keys, vals)
			}
		})
	}
}

// BenchmarkFlashScores prices the score-recovery pass an eviction policy
// forces onto a Flash engine.
func BenchmarkFlashScores(b *testing.B) {
	q, keys, _ := randSeq(2, 1024, 64)
	for i := 0; i < b.N; i++ {
		FlashScores(q, keys)
	}
}

func BenchmarkPaged(b *testing.B) {
	q, keys, vals := randSeq(3, 1024, 64)
	var kp, vp [][][]float32
	for i := 0; i < len(keys); i += 16 {
		end := i + 16
		if end > len(keys) {
			end = len(keys)
		}
		kp = append(kp, keys[i:end])
		vp = append(vp, vals[i:end])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Paged(q, kp, vp)
	}
}
