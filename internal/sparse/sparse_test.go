package sparse

import (
	"testing"
	"testing/quick"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
)

func shape() kvcache.Shape { return kvcache.Shape{Layers: 2, KVHeads: 2, HeadDim: 4} }

func appendN(c *Cache, n int, seed uint64) {
	r := rng.New(seed)
	s := c.Shape()
	for i := 0; i < n; i++ {
		for l := 0; l < s.Layers; l++ {
			k := make([][]float32, s.KVHeads)
			v := make([][]float32, s.KVHeads)
			for h := 0; h < s.KVHeads; h++ {
				k[h] = make([]float32, s.HeadDim)
				v[h] = make([]float32, s.HeadDim)
				for d := 0; d < s.HeadDim; d++ {
					k[h][d] = float32(r.NormFloat64())
					v[h][d] = float32(r.NormFloat64())
				}
			}
			c.Append(l, k, v)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Kind: StreamingLLM, Budget: 10, Sinks: 3, Recent: 3},  // 3+3 != 10
		{Kind: H2O, Budget: 10, Recent: 10},                    // no heavy room
		{Kind: SnapKV, Budget: 10, ObsWindow: 20, PoolSize: 7}, // window > budget
		{Kind: SnapKV, Budget: 10, ObsWindow: 4, PoolSize: 0},  // pool 0
		{Kind: PolicyKind(99), Budget: 10},                     // unknown
		{Kind: TOVA, Budget: 0},                                // zero budget
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d (%+v): expected error", i, cfg)
		}
	}
	for _, cfg := range []Config{DefaultStreaming(512), DefaultH2O(512), DefaultTOVA(512), DefaultSnapKV(512)} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[PolicyKind]string{StreamingLLM: "streaming-llm", H2O: "h2o", TOVA: "tova", SnapKV: "snapkv"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d prints %q", k, k.String())
		}
	}
}

func TestStreamingKeepsSinksAndRecent(t *testing.T) {
	cfg := Config{Kind: StreamingLLM, Budget: 8, Sinks: 2, Recent: 6}
	c := NewCache(shape(), cfg)
	appendN(c, 20, 1)
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			pos := c.Positions(l, h)
			if len(pos) != 8 {
				t.Fatalf("retained %d, want 8", len(pos))
			}
			// Sinks: positions 0,1. Recent: 14..19.
			if pos[0] != 0 || pos[1] != 1 {
				t.Fatalf("sinks lost: %v", pos)
			}
			for i := 2; i < 8; i++ {
				if pos[i] != 12+i {
					t.Fatalf("recent window wrong: %v", pos)
				}
			}
		}
	}
	if c.NeedsScores() {
		t.Fatal("streaming must not need scores")
	}
}

func TestStreamingUnderBudgetKeepsAll(t *testing.T) {
	c := NewCache(shape(), Config{Kind: StreamingLLM, Budget: 100, Sinks: 10, Recent: 90})
	appendN(c, 20, 2)
	if c.Len(0, 0) != 20 {
		t.Fatalf("len = %d", c.Len(0, 0))
	}
}

func TestH2OKeepsHeavyHitters(t *testing.T) {
	cfg := Config{Kind: H2O, Budget: 6, Recent: 3}
	c := NewCache(shape(), cfg)
	appendN(c, 5, 3)
	// Mark position 1 as a heavy hitter on every head.
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			w := make([]float32, c.Len(l, h))
			w[1] = 0.9
			c.ObserveAttention(l, h, w)
		}
	}
	appendN(c, 10, 4)
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			pos := c.Positions(l, h)
			if len(pos) != 6 {
				t.Fatalf("retained %d", len(pos))
			}
			found := false
			for _, p := range pos {
				if p == 1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("heavy hitter evicted: %v", pos)
			}
		}
	}
	if !c.NeedsScores() {
		t.Fatal("H2O must need scores")
	}
}

func TestH2OBudgetInvariant(t *testing.T) {
	c := NewCache(shape(), DefaultH2O(16))
	appendN(c, 100, 5)
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			if n := c.Len(l, h); n > 16 {
				t.Fatalf("budget exceeded: %d", n)
			}
		}
	}
}

func TestTOVAEvictsLowestLastScore(t *testing.T) {
	cfg := DefaultTOVA(4)
	c := NewCache(shape(), cfg)
	appendN(c, 4, 6)
	// Score position 2 lowest.
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			c.ObserveAttention(l, h, []float32{0.4, 0.3, 0.01, 0.29})
		}
	}
	appendN(c, 1, 7)
	pos := c.Positions(0, 0)
	for _, p := range pos {
		if p == 2 {
			t.Fatalf("lowest-scored position survived: %v", pos)
		}
	}
}

func TestSnapKVPrefillCompression(t *testing.T) {
	cfg := Config{Kind: SnapKV, Budget: 10, ObsWindow: 4, PoolSize: 3}
	c := NewCache(shape(), cfg)
	appendN(c, 30, 8)
	if c.Len(0, 0) != 30 {
		t.Fatal("snapkv must not evict during prefill")
	}
	// Observation votes: make positions 5 and 6 important everywhere.
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			w := make([]float32, 30)
			w[5], w[6] = 0.5, 0.4
			c.ObserveAttention(l, h, w)
		}
	}
	c.FinishPrefill()
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			pos := c.Positions(l, h)
			if len(pos) != 10 {
				t.Fatalf("retained %d, want budget 10", len(pos))
			}
			// Observation window (26..29) always kept.
			tail := pos[len(pos)-4:]
			for i, p := range tail {
				if p != 26+i {
					t.Fatalf("observation window lost: %v", pos)
				}
			}
			found5 := false
			for _, p := range pos {
				if p == 5 {
					found5 = true
				}
			}
			if !found5 {
				t.Fatalf("high-vote token evicted: %v", pos)
			}
		}
	}
	// Decode tokens after prefill are retained (budget allows growth? No —
	// budget enforced via oldest eviction).
	appendN(c, 3, 9)
	if c.Len(0, 0) > 10 {
		t.Fatalf("decode growth unbounded: %d", c.Len(0, 0))
	}
}

func TestSnapKVShortPromptNoCompression(t *testing.T) {
	c := NewCache(shape(), Config{Kind: SnapKV, Budget: 100, ObsWindow: 8, PoolSize: 3})
	appendN(c, 10, 10)
	c.FinishPrefill()
	if c.Len(0, 0) != 10 {
		t.Fatal("short prompt should be untouched")
	}
}

func TestObserveAttentionLengthMismatchIgnored(t *testing.T) {
	c := NewCache(shape(), DefaultH2O(16))
	appendN(c, 4, 11)
	c.ObserveAttention(0, 0, []float32{0.5}) // wrong length: ignored
	if e := c.heads[0][0].entries[0]; e.accScore != 0 || e.lastScore != 0 {
		t.Fatal("mismatched observation should not count")
	}
}

func TestMemoryBytesShrinksWithBudget(t *testing.T) {
	big := NewCache(shape(), DefaultStreaming(64))
	small := NewCache(shape(), DefaultStreaming(16))
	appendN(big, 200, 12)
	appendN(small, 200, 12)
	if small.MemoryBytes() >= big.MemoryBytes() {
		t.Fatalf("smaller budget should use less memory: %d vs %d", small.MemoryBytes(), big.MemoryBytes())
	}
	if small.CompressionRatio() <= big.CompressionRatio() {
		t.Fatal("smaller budget should compress more")
	}
}

func TestPositionsSorted(t *testing.T) {
	for _, cfg := range []Config{DefaultStreaming(16), DefaultH2O(16), DefaultTOVA(16)} {
		c := NewCache(shape(), cfg)
		appendN(c, 60, 13)
		pos := c.Positions(1, 1)
		for i := 1; i < len(pos); i++ {
			if pos[i] <= pos[i-1] {
				t.Fatalf("%v: positions not increasing: %v", cfg.Kind, pos)
			}
		}
	}
}

// Property: budget is never exceeded for any policy after arbitrary appends.
func TestQuickBudgetInvariant(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawKind uint8) bool {
		n := int(rawN)%150 + 1
		var cfg Config
		switch rawKind % 3 {
		case 0:
			cfg = DefaultStreaming(12)
		case 1:
			cfg = DefaultH2O(12)
		case 2:
			cfg = DefaultTOVA(12)
		}
		c := NewCache(shape(), cfg)
		appendN(c, n, seed)
		for l := 0; l < 2; l++ {
			for h := 0; h < 2; h++ {
				if c.Len(l, h) > 12 {
					return false
				}
				if n <= 12 && c.Len(l, h) != n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInterfaceCompliance(t *testing.T) {
	var c kvcache.Cache = NewCache(shape(), DefaultH2O(16))
	var _ kvcache.AttentionObserver = c.(*Cache)
}
