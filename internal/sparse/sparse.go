// Package sparse implements sparsity-based KV cache compression: eviction
// policies that drop the KV pairs of less-important tokens under a fixed
// per-head budget. The three policies the program runs are implemented in
// full:
//
//   - StreamingLLM (Xiao et al., 2023): retain the first Sinks tokens
//     ("attention sinks") and the most recent Recent tokens; evict
//     everything in between. Purely positional — no score computation.
//   - H2O (Zhang et al., 2024): accumulate attention scores per token
//     ("heavy hitter oracle"); retain the Recent window plus the
//     highest-accumulated-score tokens, evicting the lowest-scored
//     non-recent entry when over budget.
//   - SnapKV (Li et al., 2024): at the end of prefill, select the tokens
//     whose pooled attention from an observation window (the last ObsWindow
//     prompt positions) is highest; decode-time tokens are always retained.
//
// Eviction caches implement kvcache.Cache and kvcache.AttentionObserver, so
// the model's real attention weights drive eviction decisions, and evicted
// information is genuinely unavailable to later steps.
package sparse

import (
	"fmt"
	"math"
	"slices"

	"rethinkkv/internal/kvcache"
)

// PolicyKind selects the eviction policy.
type PolicyKind int

const (
	// StreamingLLM keeps attention sinks plus a recent window.
	StreamingLLM PolicyKind = iota
	// H2O keeps heavy hitters (by accumulated attention) plus a recent window.
	H2O
	// SnapKV compresses the prompt once at prefill end via observation-window pooling.
	SnapKV
)

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	switch p {
	case StreamingLLM:
		return "streaming-llm"
	case H2O:
		return "h2o"
	case SnapKV:
		return "snapkv"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterises an eviction cache.
type Config struct {
	Kind PolicyKind
	// Budget is the maximum retained entries per head (total cache size).
	Budget int
	// Sinks is the count of initial tokens that are never evicted
	// (StreamingLLM).
	Sinks int
	// Recent is the protected recent-token window (StreamingLLM, H2O).
	Recent int
	// ObsWindow is SnapKV's observation window (last prompt positions whose
	// attention votes select retained tokens).
	ObsWindow int
	// PoolSize is SnapKV's 1-D pooling width for clustering votes.
	PoolSize int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Budget <= 0 {
		return fmt.Errorf("sparse: non-positive budget %d", c.Budget)
	}
	switch c.Kind {
	case StreamingLLM:
		if c.Sinks+c.Recent != c.Budget {
			return fmt.Errorf("sparse: streaming-llm requires sinks+recent == budget, got %d+%d != %d", c.Sinks, c.Recent, c.Budget)
		}
	case H2O:
		if c.Recent >= c.Budget {
			return fmt.Errorf("sparse: h2o recent %d must leave room for heavy hitters in budget %d", c.Recent, c.Budget)
		}
	case SnapKV:
		if c.ObsWindow <= 0 || c.ObsWindow > c.Budget {
			return fmt.Errorf("sparse: snapkv obs window %d invalid for budget %d", c.ObsWindow, c.Budget)
		}
		if c.PoolSize <= 0 {
			return fmt.Errorf("sparse: snapkv pool size %d invalid", c.PoolSize)
		}
	default:
		return fmt.Errorf("sparse: unknown policy %v", c.Kind)
	}
	return nil
}

// DefaultStreaming returns the paper's StreamingLLM setting: 64 sink tokens
// plus a 448-token recent window when budget is 512 (Appendix A.3), scaled
// proportionally for other budgets.
func DefaultStreaming(budget int) Config {
	sinks := budget / 8
	return Config{Kind: StreamingLLM, Budget: budget, Sinks: sinks, Recent: budget - sinks}
}

// DefaultH2O returns the paper's H2O setting: 64 heavy-hitter slots and a
// 448-token recent window at budget 512, scaled proportionally.
func DefaultH2O(budget int) Config {
	return Config{Kind: H2O, Budget: budget, Recent: budget - budget/8}
}

// DefaultSnapKV returns SnapKV with a 32-token observation window and
// pool size 7, per the SnapKV paper's defaults.
func DefaultSnapKV(budget int) Config {
	obs := 32
	if obs > budget/2 {
		obs = budget / 2
	}
	if obs < 1 {
		obs = 1
	}
	return Config{Kind: SnapKV, Budget: budget, ObsWindow: obs, PoolSize: 7}
}

// headState holds one head's retained entries, in position order, as
// parallel slices — keys and values flat, HeadDim floats an entry; Seq and
// Positions return them in place — and its score history. An eviction
// shifts the entries after it down in place, so a head past its budget
// appends into the capacity its last eviction freed.
type headState struct {
	positions    []int
	keys, values []float32
	scores       []float64 // H2O: accumulated attention
	// obsScores is SnapKV's ring of the last ObsWindow attention vectors
	// observed during prefill (each aligned with entries at observe time;
	// valid because SnapKV performs no evictions before FinishPrefill).
	obsScores [][]float64
}

// remove drops entry i of rows d floats wide.
func (hs *headState) remove(i, d int) {
	hs.positions = slices.Delete(hs.positions, i, i+1)
	hs.keys = slices.Delete(hs.keys, i*d, (i+1)*d)
	hs.values = slices.Delete(hs.values, i*d, (i+1)*d)
	hs.scores = slices.Delete(hs.scores, i, i+1)
}

// Cache is an eviction-based KV cache.
type Cache struct {
	cfg         Config
	shape       kvcache.Shape
	heads       [][]*headState
	appended    int
	prefillDone bool
}

// NewCache builds an eviction cache. It panics on invalid configuration.
func NewCache(shape kvcache.Shape, cfg Config) *Cache {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, shape: shape}
	c.heads = make([][]*headState, shape.Layers)
	for l := range c.heads {
		c.heads[l] = make([]*headState, shape.KVHeads)
		for h := range c.heads[l] {
			c.heads[l][h] = &headState{}
		}
	}
	return c
}

// Shape returns the cache dimensions.
func (c *Cache) Shape() kvcache.Shape { return c.shape }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// AppendFlatN implements kvcache.Cache: token by token, each head stores the
// token and applies the eviction policy if it now exceeds the budget.
func (c *Cache) AppendFlatN(layer, n int, k, v []float32) {
	c.shape.CheckSpan(layer, n, k, v)
	kvh, d := c.shape.KVHeads, c.shape.HeadDim
	for i := 0; i < n*kvh; i++ { // token i/kvh, head i%kvh
		hs := c.heads[layer][i%kvh]
		hs.positions = append(hs.positions, c.appended+i/kvh)
		hs.keys = append(hs.keys, k[i*d:(i+1)*d]...)
		hs.values = append(hs.values, v[i*d:(i+1)*d]...)
		hs.scores = append(hs.scores, 0)
		c.evictIfNeeded(hs)
	}
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

// evictIfNeeded enforces the budget for one head.
func (c *Cache) evictIfNeeded(hs *headState) {
	if c.cfg.Kind == SnapKV && !c.prefillDone {
		return // SnapKV defers all eviction to FinishPrefill.
	}
	for len(hs.positions) > c.cfg.Budget {
		victim := c.selectVictim(hs)
		if victim < 0 {
			return
		}
		hs.remove(victim, c.shape.HeadDim)
	}
}

// selectVictim returns the index to evict, or -1 when nothing is evictable.
func (c *Cache) selectVictim(hs *headState) int {
	n := len(hs.positions)
	switch c.cfg.Kind {
	case StreamingLLM:
		// Oldest entry that is not a sink. Entries are position-ordered.
		for i := 0; i < n; i++ {
			if hs.positions[i] >= c.cfg.Sinks {
				return i
			}
		}
		return -1
	case H2O:
		// Lowest accumulated score outside the recent window.
		limit := n - c.cfg.Recent
		if limit <= 0 {
			limit = 1
		}
		best, bestScore := -1, math.Inf(1)
		for i := 0; i < limit; i++ {
			if hs.scores[i] < bestScore {
				best, bestScore = i, hs.scores[i]
			}
		}
		return best
	case SnapKV:
		// FinishPrefill has already cut the prompt to the budget, so only
		// decode-time growth reaches here: evict the oldest entry.
		return 0
	}
	return -1
}

// ObserveAttention implements kvcache.AttentionObserver: weights align with
// the entries returned by the most recent Seq call for this head.
func (c *Cache) ObserveAttention(layer, head int, weights []float32) {
	hs := c.heads[layer][head]
	n := len(hs.positions)
	if len(weights) != n {
		// The observer contract is best-effort: a mismatch means the
		// caller computed attention over a different snapshot; ignore.
		return
	}
	switch c.cfg.Kind {
	case H2O:
		for i := range weights {
			hs.scores[i] += float64(weights[i])
		}
	case SnapKV:
		if c.prefillDone {
			return
		}
		vec := make([]float64, n)
		for i, w := range weights {
			vec[i] = float64(w)
		}
		hs.obsScores = append(hs.obsScores, vec)
		if len(hs.obsScores) > c.cfg.ObsWindow {
			hs.obsScores = hs.obsScores[1:]
		}
	}
}

// FinishPrefill signals the end of the prompt. For SnapKV this triggers the
// one-shot prompt compression; other policies ignore it.
func (c *Cache) FinishPrefill() {
	if c.prefillDone {
		return
	}
	c.prefillDone = true
	if c.cfg.Kind != SnapKV {
		return
	}
	for l := range c.heads {
		for h := range c.heads[l] {
			c.snapCompress(c.heads[l][h])
		}
	}
}

// snapCompress implements SnapKV's selection: pooled observation-window
// votes pick the retained prompt tokens; the observation window itself is
// always kept.
func (c *Cache) snapCompress(hs *headState) {
	n := len(hs.positions)
	if n <= c.cfg.Budget {
		return
	}
	keepBudget := c.cfg.Budget - c.cfg.ObsWindow
	if keepBudget < 0 {
		keepBudget = 0
	}
	obsStart := n - c.cfg.ObsWindow
	// Vote: sum of observation-window attention onto each pre-window token.
	votes := make([]float64, obsStart)
	for _, vec := range hs.obsScores {
		for i := 0; i < obsStart && i < len(vec); i++ {
			votes[i] += vec[i]
		}
	}
	// 1-D max pooling clusters votes so retained tokens keep local context.
	pooled := make([]float64, obsStart)
	half := c.cfg.PoolSize / 2
	for i := range pooled {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= obsStart {
			hi = obsStart - 1
		}
		m := votes[lo]
		for j := lo + 1; j <= hi; j++ {
			if votes[j] > m {
				m = votes[j]
			}
		}
		pooled[i] = m
	}
	// Select top keepBudget pre-window tokens by pooled votes.
	type cand struct {
		idx   int
		score float64
	}
	cands := make([]cand, obsStart)
	for i := range cands {
		cands[i] = cand{i, pooled[i]}
	}
	// Partial selection of the top keepBudget.
	for i := 0; i < keepBudget && i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].score > cands[best].score {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	keep := make(map[int]bool, c.cfg.Budget)
	for i := 0; i < keepBudget && i < len(cands); i++ {
		keep[cands[i].idx] = true
	}
	for i := obsStart; i < n; i++ {
		keep[i] = true
	}
	d, kept := c.shape.HeadDim, 0
	for i := 0; i < n; i++ {
		if keep[i] {
			hs.positions[kept], hs.scores[kept] = hs.positions[i], hs.scores[i]
			copy(hs.keys[kept*d:(kept+1)*d], hs.keys[i*d:(i+1)*d])
			copy(hs.values[kept*d:(kept+1)*d], hs.values[i*d:(i+1)*d])
			kept++
		}
	}
	hs.positions, hs.keys, hs.values, hs.scores = hs.positions[:kept], hs.keys[:kept*d], hs.values[:kept*d], hs.scores[:kept]
	hs.obsScores = nil
}

// Seq returns the retained keys and values in position order, in place.
func (c *Cache) Seq(layer, head int) (keys, values []float32) {
	hs := c.heads[layer][head]
	return hs.keys[:len(hs.keys):len(hs.keys)], hs.values[:len(hs.values):len(hs.values)]
}

// Positions returns the absolute positions of retained entries, in place.
func (c *Cache) Positions(layer, head int) []int {
	hs := c.heads[layer][head]
	return hs.positions[:len(hs.positions):len(hs.positions)]
}

// Len reports the retained entry count for one head.
func (c *Cache) Len(layer, head int) int { return len(c.heads[layer][head].positions) }

// TotalAppended reports how many tokens have been appended.
func (c *Cache) TotalAppended() int { return c.appended }

// MemoryBytes reports resident size: retained entries at FP16, plus score
// metadata for score-based policies (one FP16 per retained entry).
func (c *Cache) MemoryBytes() int64 {
	var elems, meta int64
	for l := range c.heads {
		for h := range c.heads[l] {
			n := int64(len(c.heads[l][h].positions))
			elems += n * int64(c.shape.HeadDim) * 2 // K and V
			if c.cfg.Kind == H2O {
				meta += n
			}
		}
	}
	return elems*kvcache.BytesPerElemFP16 + meta*2
}

// CompressionRatio returns FP16 bytes of the full history over actual bytes.
func (c *Cache) CompressionRatio() float64 {
	actual := c.MemoryBytes()
	if actual == 0 {
		return 1
	}
	return float64(kvcache.FP16Bytes(c.shape, c.appended)) / float64(actual)
}

// NeedsScores reports whether the policy consumes attention scores (and so
// conflicts with FlashAttention's no-materialised-scores design). Every
// policy except the purely positional StreamingLLM does.
func (c *Cache) NeedsScores() bool {
	return c.cfg.Kind != StreamingLLM
}
