// Package sparse implements sparsity-based KV cache compression: eviction
// policies that drop the KV pairs of less-important tokens under a fixed
// per-head budget. The policies the paper evaluates are implemented in full:
//
//   - StreamingLLM (Xiao et al., 2023): retain the first Sinks tokens
//     ("attention sinks") and the most recent Recent tokens; evict
//     everything in between. Purely positional — no score computation.
//   - H2O (Zhang et al., 2024): accumulate attention scores per token
//     ("heavy hitter oracle"); retain the Recent window plus the
//     highest-accumulated-score tokens, evicting the lowest-scored
//     non-recent entry when over budget.
//   - TOVA (Oren et al., 2024): evict the token with the lowest attention
//     score from the most recent step; the recent window is NOT protected.
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

	"rethinkkv/internal/kvcache"
)

// PolicyKind selects the eviction policy.
type PolicyKind int

const (
	// StreamingLLM keeps attention sinks plus a recent window.
	StreamingLLM PolicyKind = iota
	// H2O keeps heavy hitters (by accumulated attention) plus a recent window.
	H2O
	// TOVA evicts the lowest last-step attention score.
	TOVA
	// SnapKV compresses the prompt once at prefill end via observation-window pooling.
	SnapKV
)

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	if name, ok := policyName(p); ok {
		return name
	}
	switch p {
	case StreamingLLM:
		return "streaming-llm"
	case H2O:
		return "h2o"
	case TOVA:
		return "tova"
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
	if handled, err := c.validateExtended(); handled {
		return err
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
	case TOVA:
		// No extra constraints.
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

// DefaultTOVA returns a TOVA configuration with the given budget.
func DefaultTOVA(budget int) Config {
	return Config{Kind: TOVA, Budget: budget}
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

// entry is one retained token for one head.
type entry struct {
	pos       int
	k, v      []float32
	accScore  float64 // H2O: accumulated attention
	lastScore float64 // TOVA: most recent step's attention
}

// headState holds one head's retained entries and score history.
type headState struct {
	entries []entry
	// obsScores is SnapKV's ring of the last ObsWindow attention vectors
	// observed during prefill (each aligned with entries at observe time;
	// valid because SnapKV performs no evictions before FinishPrefill).
	obsScores [][]float64
}

// Cache is an eviction-based KV cache.
type Cache struct {
	cfg         Config
	shape       kvcache.Shape
	heads       [][]*headState
	appended    int
	prefillDone bool
	// gumbelStream is Keyformer's deterministic noise state.
	gumbelStream uint64
}

// NewCache builds an eviction cache. It panics on invalid configuration.
func NewCache(shape kvcache.Shape, cfg Config) *Cache {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, shape: shape, gumbelStream: gumbelRNGSeed(shape)}
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

// Append stores one token for every head of a layer and applies the
// eviction policy if the head exceeds budget.
func (c *Cache) Append(layer int, k, v [][]float32) {
	pos := c.appended
	for h := 0; h < c.shape.KVHeads; h++ {
		hs := c.heads[layer][h]
		hs.entries = append(hs.entries, entry{
			pos: pos,
			k:   append([]float32(nil), k[h]...),
			v:   append([]float32(nil), v[h]...),
		})
		if c.cfg.Kind != AdaKV {
			c.evictIfNeeded(hs, layer)
		}
	}
	if c.cfg.Kind == AdaKV {
		c.rebalanceAdaKV(layer)
	}
	if layer == c.shape.Layers-1 {
		c.appended++
	}
}

// evictIfNeeded enforces the (possibly layer-dependent) budget for one head.
func (c *Cache) evictIfNeeded(hs *headState, layer int) {
	if c.cfg.Kind == SnapKV && !c.prefillDone {
		return // SnapKV defers all eviction to FinishPrefill.
	}
	budget := c.layerBudget(layer)
	for len(hs.entries) > budget {
		victim := c.selectVictim(hs)
		if victim < 0 {
			return
		}
		hs.entries = append(hs.entries[:victim], hs.entries[victim+1:]...)
	}
}

// selectVictim returns the index to evict, or -1 when nothing is evictable.
func (c *Cache) selectVictim(hs *headState) int {
	if idx, handled := c.selectVictimExtended(hs); handled {
		return idx
	}
	n := len(hs.entries)
	switch c.cfg.Kind {
	case StreamingLLM:
		// Oldest entry that is not a sink. Entries are position-ordered.
		for i := 0; i < n; i++ {
			if hs.entries[i].pos >= c.cfg.Sinks {
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
			if hs.entries[i].accScore < bestScore {
				best, bestScore = i, hs.entries[i].accScore
			}
		}
		return best
	case TOVA:
		// Lowest last-step score, excluding the just-appended token.
		best, bestScore := -1, math.Inf(1)
		for i := 0; i < n-1; i++ {
			if hs.entries[i].lastScore < bestScore {
				best, bestScore = i, hs.entries[i].lastScore
			}
		}
		return best
	case SnapKV:
		// Post-prefill decode tokens are always retained; if budget is
		// exceeded during decode, fall back to evicting the oldest
		// non-selected... by construction FinishPrefill leaves headroom, so
		// evict the oldest entry.
		return 0
	}
	return -1
}

// ObserveAttention implements kvcache.AttentionObserver: weights align with
// the entries returned by the most recent Seq call for this head.
func (c *Cache) ObserveAttention(layer, head int, weights []float32) {
	hs := c.heads[layer][head]
	n := len(hs.entries)
	if len(weights) != n {
		// The observer contract is best-effort: a mismatch means the
		// caller computed attention over a different snapshot; ignore.
		return
	}
	if c.observeExtended(hs, weights) {
		return
	}
	switch c.cfg.Kind {
	case H2O:
		for i := range weights {
			hs.entries[i].accScore += float64(weights[i])
		}
	case TOVA:
		for i := range weights {
			hs.entries[i].lastScore = float64(weights[i])
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
	n := len(hs.entries)
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
	kept := hs.entries[:0]
	for i, e := range hs.entries {
		if keep[i] {
			kept = append(kept, e)
		}
	}
	hs.entries = kept
	hs.obsScores = nil
}

// Seq returns the retained keys and values in position order.
func (c *Cache) Seq(layer, head int) (keys, values [][]float32) {
	hs := c.heads[layer][head]
	keys = make([][]float32, len(hs.entries))
	values = make([][]float32, len(hs.entries))
	for i := range hs.entries {
		keys[i] = hs.entries[i].k
		values[i] = hs.entries[i].v
	}
	return keys, values
}

// Positions returns the absolute positions of retained entries.
func (c *Cache) Positions(layer, head int) []int {
	hs := c.heads[layer][head]
	ps := make([]int, len(hs.entries))
	for i := range hs.entries {
		ps[i] = hs.entries[i].pos
	}
	return ps
}

// Len reports the retained entry count for one head.
func (c *Cache) Len(layer, head int) int { return len(c.heads[layer][head].entries) }

// TotalAppended reports how many tokens have been appended.
func (c *Cache) TotalAppended() int { return c.appended }

// MemoryBytes reports resident size: retained entries at FP16, plus score
// metadata for score-based policies (one FP16 per retained entry).
func (c *Cache) MemoryBytes() int64 {
	var elems, meta int64
	for l := range c.heads {
		for h := range c.heads[l] {
			n := int64(len(c.heads[l][h].entries))
			elems += n * int64(c.shape.HeadDim) * 2 // K and V
			if c.cfg.Kind == H2O || c.cfg.Kind == TOVA {
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
