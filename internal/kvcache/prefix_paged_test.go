package kvcache_test

// Prefix reuse under the paged layout, end to end: serving a request whose
// prompt extends an already-cached prefix (system prompt sharing) must
// produce bit-identical tokens to serving it cold.

import (
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/tensor"
)

const pageTokens = 8

// decodeGreedy runs n greedy decode steps after the given logits state.
func decodeGreedy(m *model.Model, ws *model.Workspace, logits []float32, pos int, cache kvcache.Cache, n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		next := tensor.Argmax(logits)
		out = append(out, next)
		sr := m.ForwardInto(ws, next, pos, cache)
		logits = sr.Logits
		pos++
	}
	return out
}

func TestPagedPrefixHitDecodeBitIdentical(t *testing.T) {
	m := model.New(model.Tiny(), 7)
	shape := m.CacheShape()

	prefix := make([]int, 37) // deliberately not page-aligned
	for i := range prefix {
		prefix[i] = (i*31 + 5) % m.Config().Vocab
	}
	suffixA := []int{9, 42, 7, 300, 12}
	suffixB := []int{101, 55, 200}

	// Warm path: prefill the shared prefix once, then fork the paged cache
	// per request and prefill only the suffix.
	base := kvcache.NewPagedKV(shape, pageTokens)
	wsBase := m.NewWorkspace()
	m.PrefillInto(wsBase, prefix, base)

	serveWarm := func(suffix []int, n int) []int {
		c := base.ClonePrefix()
		ws := m.NewWorkspace()
		var logits []float32
		pos := len(prefix)
		for _, tok := range suffix {
			sr := m.ForwardInto(ws, tok, pos, c)
			logits = sr.Logits
			pos++
		}
		return decodeGreedy(m, ws, logits, pos, c, n)
	}

	// Cold path: full prefill of prefix+suffix on a fresh paged cache.
	serveCold := func(suffix []int, n int) []int {
		c := kvcache.NewPagedKV(shape, pageTokens)
		ws := m.NewWorkspace()
		full := append(append([]int(nil), prefix...), suffix...)
		sr := m.PrefillInto(ws, full, c)
		return decodeGreedy(m, ws, sr.Logits, len(full), c, n)
	}

	// Interleave two warm requests off the same base to exercise clone
	// isolation under decode, not just under raw appends.
	warmA := serveWarm(suffixA, 12)
	warmB := serveWarm(suffixB, 12)
	coldA := serveCold(suffixA, 12)
	coldB := serveCold(suffixB, 12)

	for i := range coldA {
		if warmA[i] != coldA[i] {
			t.Fatalf("request A token %d: warm %d != cold %d", i, warmA[i], coldA[i])
		}
	}
	for i := range coldB {
		if warmB[i] != coldB[i] {
			t.Fatalf("request B token %d: warm %d != cold %d", i, warmB[i], coldB[i])
		}
	}

	// The base must be untouched by either request.
	if got, want := base.TotalAppended(), len(prefix); got != want {
		t.Fatalf("base grew to %d tokens, want %d", got, want)
	}
}
