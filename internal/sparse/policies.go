package sparse

import (
	"fmt"
	"math"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
)

// This file extends the eviction framework with four further surveyed
// policies (paper Table 1):
//
//   - Scissorhands (Liu et al., 2024): a counter-based persistence score —
//     a token is "persistent" if its attention weight repeatedly exceeds
//     the uniform level; evict the least persistent non-recent token.
//   - Keyformer (Adnan et al., 2024): accumulated attention with
//     gumbel-noise regularisation added to the score, which spreads
//     retention beyond pure heavy hitters.
//   - PyramidKV / SqueezeAttention (layer-level): the per-head budget
//     decays linearly from early to late layers ("pyramidal information
//     funneling"), holding the same total budget as a uniform allocation.
//   - Ada-KV (Feng et al., 2024; head-level): one shared budget pool per
//     layer, allocated across heads in proportion to their accumulated
//     attention mass; heads whose tokens matter more keep more of them.

// extended policy kinds, continuing the PolicyKind space.
const (
	// Scissorhands evicts by persistence counter.
	Scissorhands PolicyKind = iota + 100
	// Keyformer evicts by gumbel-regularised accumulated score.
	Keyformer
	// PyramidKV decays the per-head budget across layers.
	PyramidKV
	// AdaKV shares one budget pool across a layer's heads.
	AdaKV
)

// policyName extends PolicyKind.String for the added kinds.
func policyName(p PolicyKind) (string, bool) {
	switch p {
	case Scissorhands:
		return "scissorhands", true
	case Keyformer:
		return "keyformer", true
	case PyramidKV:
		return "pyramidkv", true
	case AdaKV:
		return "ada-kv", true
	}
	return "", false
}

// DefaultScissorhands returns a Scissorhands configuration: persistence
// counting with a small protected recent window.
func DefaultScissorhands(budget int) Config {
	return Config{Kind: Scissorhands, Budget: budget, Recent: budget - budget/8}
}

// DefaultKeyformer returns a Keyformer configuration.
func DefaultKeyformer(budget int) Config {
	return Config{Kind: Keyformer, Budget: budget, Recent: budget - budget/8}
}

// DefaultPyramidKV returns a PyramidKV configuration; Budget is the
// per-head average across layers (layer 0 gets ~1.5×, the last ~0.5×).
func DefaultPyramidKV(budget int) Config {
	return Config{Kind: PyramidKV, Budget: budget, Recent: budget / 8}
}

// DefaultAdaKV returns an Ada-KV configuration; Budget is the per-head
// average of the layer's shared pool.
func DefaultAdaKV(budget int) Config {
	return Config{Kind: AdaKV, Budget: budget, Recent: budget / 8}
}

// validateExtended covers the added kinds; returns (handled, error).
func (c Config) validateExtended() (bool, error) {
	switch c.Kind {
	case Scissorhands, Keyformer:
		if c.Recent >= c.Budget {
			return true, fmt.Errorf("sparse: %v recent %d must leave eviction room in budget %d", c.Kind, c.Recent, c.Budget)
		}
		return true, nil
	case PyramidKV, AdaKV:
		if c.Recent >= c.Budget {
			return true, fmt.Errorf("sparse: %v recent %d too large for budget %d", c.Kind, c.Recent, c.Budget)
		}
		return true, nil
	}
	return false, nil
}

// layerBudget returns the per-head budget for one layer under the policy.
// PyramidKV funnels: early layers keep more, late layers less, with the
// same mean as the configured budget.
func (c *Cache) layerBudget(layer int) int {
	if c.cfg.Kind != PyramidKV {
		return c.cfg.Budget
	}
	layers := c.shape.Layers
	if layers == 1 {
		return c.cfg.Budget
	}
	// Linear decay from 1.5× to 0.5× of the mean.
	frac := 1.5 - float64(layer)/float64(layers-1)
	b := int(float64(c.cfg.Budget)*frac + 0.5)
	if b < c.cfg.Recent+1 {
		b = c.cfg.Recent + 1
	}
	return b
}

// persistThreshold is the uniform-attention multiple above which a token
// counts as "hit" for Scissorhands persistence.
const persistThreshold = 1.0

// observeExtended handles score bookkeeping for the added kinds; returns
// true if the kind was handled.
func (c *Cache) observeExtended(hs *headState, weights []float32) bool {
	switch c.cfg.Kind {
	case Scissorhands:
		uniform := float32(persistThreshold) / float32(len(weights))
		for i, w := range weights {
			if w > uniform {
				hs.entries[i].accScore++ // persistence counter
			}
		}
		return true
	case Keyformer:
		for i, w := range weights {
			c.gumbelStream = c.gumbelStream*6364136223846793005 + 1442695040888963407
			u := float64(c.gumbelStream>>11) / (1 << 53)
			if u <= 0 {
				u = 1e-12
			}
			gumbel := -math.Log(-math.Log(u))
			hs.entries[i].accScore += float64(w) + 0.01*gumbel
		}
		return true
	case PyramidKV, AdaKV:
		// Both select by plain accumulated attention; the novelty is in
		// the budget allocation, not the score.
		for i, w := range weights {
			hs.entries[i].accScore += float64(w)
		}
		return true
	}
	return false
}

// selectVictimExtended picks the eviction victim for the added kinds;
// returns (index, handled).
func (c *Cache) selectVictimExtended(hs *headState) (int, bool) {
	switch c.cfg.Kind {
	case Scissorhands, Keyformer, PyramidKV, AdaKV:
		n := len(hs.entries)
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
		return best, true
	}
	return -1, false
}

// rebalanceAdaKV enforces Ada-KV's shared per-layer pool: if a layer's
// total retained entries exceed KVHeads × Budget, evict the globally
// lowest-scored non-recent entry in that layer, wherever it lives. Heads
// whose tokens carry more attention mass therefore keep more than the
// uniform share.
func (c *Cache) rebalanceAdaKV(layer int) {
	pool := c.cfg.Budget * c.shape.KVHeads
	for {
		total := 0
		for h := 0; h < c.shape.KVHeads; h++ {
			total += len(c.heads[layer][h].entries)
		}
		if total <= pool {
			return
		}
		// Find the globally weakest evictable entry; ties go to the head
		// with the least total attention mass, so high-mass heads keep
		// more than the uniform share. Every head keeps at least Recent+1
		// entries so attention never starves.
		mass := make([]float64, c.shape.KVHeads)
		for h := 0; h < c.shape.KVHeads; h++ {
			for _, e := range c.heads[layer][h].entries {
				mass[h] += e.accScore
			}
		}
		bestHead, bestIdx := -1, -1
		bestScore, bestMass := math.Inf(1), math.Inf(1)
		for h := 0; h < c.shape.KVHeads; h++ {
			hs := c.heads[layer][h]
			limit := len(hs.entries) - c.cfg.Recent
			if len(hs.entries) <= c.cfg.Recent+1 {
				continue
			}
			for i := 0; i < limit; i++ {
				s := hs.entries[i].accScore
				if s < bestScore || (s == bestScore && mass[h] < bestMass) {
					bestHead, bestIdx = h, i
					bestScore, bestMass = s, mass[h]
				}
			}
		}
		if bestHead < 0 {
			return
		}
		hs := c.heads[layer][bestHead]
		hs.entries = append(hs.entries[:bestIdx], hs.entries[bestIdx+1:]...)
	}
}

// gumbelRNGSeed seeds the Keyformer noise stream.
func gumbelRNGSeed(shape kvcache.Shape) uint64 {
	return rng.New(uint64(shape.Layers)*31 + uint64(shape.KVHeads)).Uint64()
}
