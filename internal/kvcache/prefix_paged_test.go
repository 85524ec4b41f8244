package kvcache_test

// Prefix reuse under the paged layout, end to end: serving a request whose
// prompt extends an already-cached prefix (system prompt sharing) must
// produce bit-identical tokens to serving it cold.

import (
	"testing"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
)

const pageTokens = 8

// serve prefills prompt after whatever cache already holds and decodes n
// greedy tokens.
func serve(t *testing.T, m *model.Model, cache kvcache.Cache, prompt []int, n int) []int {
	t.Helper()
	s, err := core.NewSession(m, cache, prompt)
	if err != nil {
		t.Fatal(err)
	}
	return s.Decode(n)
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
	serve(t, m, base, prefix, 0)

	serveWarm := func(suffix []int, n int) []int {
		return serve(t, m, base.ClonePrefix(), suffix, n)
	}

	// Cold path: full prefill of prefix+suffix on a fresh paged cache.
	serveCold := func(suffix []int, n int) []int {
		full := append(append([]int(nil), prefix...), suffix...)
		return serve(t, m, kvcache.NewPagedKV(shape, pageTokens), full, n)
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
