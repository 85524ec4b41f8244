package sched

import (
	"encoding/binary"

	"rethinkkv/internal/kvcache"
)

// prefixTree is the engine's prefix cache: a radix tree over sealed KV pages,
// one node per page, keyed by the page's token run, so a path from the root
// spells a token sequence and holds — by reference — the KV pages a cache
// prefilled with that sequence would hold. Stored K/V, quantized codes and key
// summaries are pure functions of the token sequence, so a request whose
// prompt starts with a cached path adopts the path's pages and reads exactly
// what a cold prefill would have written.
//
// A node is pinned while a live request's cache holds its page; a request
// pins its whole path, so every ancestor of a pinned node is pinned. Unpinned
// nodes wait on one list in the order they were released, deepest first
// within a release — which keeps every node behind all of its descendants, so
// the head of the list is always a leaf and eviction is a pop.
//
// The tree is mutated only by the engine loop and only under Engine.mu; the
// loop may read it without the lock, other goroutines read it under mu.
type prefixTree struct {
	root       pageNode
	pageTokens int
	pages      int // nodes in the tree: the pages the cache charges to the ledger
	pinned     int // of which pinned (referenced by a live request or pre-warmed)
	evictions  int
	// idleCap bounds the unpinned pages kept when no page budget does.
	idleCap int
	// idle is the sentinel of the unpinned ring: idle.next is the least
	// recently released node, idle.prev the most recent.
	idle   pageNode
	keyBuf []byte
}

// pageNode is one cached page.
type pageNode struct {
	parent *pageNode
	// key is the page's token run, 8 bytes per token: PageTokens tokens for a
	// sealed page, fewer for the partial last page of a pre-warmed prefix.
	key      string
	children map[string]*pageNode // by key; nil until the first child
	page     kvcache.Page
	// refs counts the live requests whose path runs through this node, plus
	// one, forever, for a pre-warmed page.
	refs       int
	permanent  bool      // pre-warmed: never unpinned
	prev, next *pageNode // the unpinned ring; nil while pinned
}

func newPrefixTree(pageTokens, idleCap int) *prefixTree {
	t := &prefixTree{pageTokens: pageTokens, idleCap: idleCap}
	t.idle.prev, t.idle.next = &t.idle, &t.idle
	return t
}

// appendKey appends the tokens' key form to buf.
func appendKey(buf []byte, tokens []int) []byte {
	for _, tok := range tokens {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(tok))
	}
	return buf
}

// encode writes the tokens' key into the tree's scratch buffer.
func (t *prefixTree) encode(tokens []int) []byte {
	t.keyBuf = appendKey(t.keyBuf[:0], tokens)
	return t.keyBuf
}

// commonTokens counts the leading tokens two keys share.
func commonTokens(key string, other []byte) int {
	n := 0
	for 8*(n+1) <= len(key) && 8*(n+1) <= len(other) && key[8*n:8*n+8] == string(other[8*n:8*n+8]) {
		n++
	}
	return n
}

// match finds the longest cached prefix of tokens[:limit]. It appends to path
// the nodes of the whole pages matched, root first, and returns the child of
// the last one whose page continues the match furthest (nil if none does)
// with the number of further tokens it shares; the caller copies those out
// of the page, so matching is token-granular. Below the root any page may
// continue a match; at the root only a pre-warmed one, because first pages of
// unrelated prompts share a few leading tokens by coincidence, not by reuse.
// With permanentOnly the walk sees pre-warmed nodes alone: what a request can
// count on however the rest of the cache has been evicted.
func (t *prefixTree) match(tokens []int, limit int, permanentOnly bool, path []*pageNode) ([]*pageNode, *pageNode, int) {
	n, at := &t.root, 0
	for ; at+t.pageTokens <= limit; at += t.pageTokens {
		c := n.children[string(t.encode(tokens[at:at+t.pageTokens]))]
		if c == nil || (permanentOnly && !c.permanent) {
			break
		}
		path = append(path, c)
		n = c
	}
	rest := t.encode(tokens[at:min(limit, at+t.pageTokens)])
	var tail *pageNode
	shared := 0
	for _, c := range n.children {
		if !c.permanent && (permanentOnly || n == &t.root) {
			continue
		}
		if k := commonTokens(c.key, rest); k > shared {
			tail, shared = c, k
		}
	}
	return path, tail, shared
}

// pin marks a path (root first) referenced by one more request.
func (t *prefixTree) pin(path []*pageNode) {
	for _, n := range path {
		if n.refs == 0 {
			n.prev.next, n.next.prev = n.next, n.prev
			n.prev, n.next = nil, nil
			t.pinned++
		}
		n.refs++
	}
}

// unpin drops one request's reference on a path (root first). Nodes nobody
// references any more join the unpinned list, deepest first, and the oldest
// unpinned pages beyond idleCap are evicted.
func (t *prefixTree) unpin(path []*pageNode) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.refs--; n.refs == 0 {
			n.prev, n.next = t.idle.prev, &t.idle
			n.prev.next, t.idle.prev = n, n
			t.pinned--
		}
	}
	for t.pages-t.pinned > t.idleCap {
		t.evict()
	}
}

// insert caches a sealed page under parent (nil for the root) and returns its
// node, pinned by the caller. It returns nil, caching nothing, when parent
// already has a page for that token run.
func (t *prefixTree) insert(parent *pageNode, run []int, page kvcache.Page) *pageNode {
	if parent == nil {
		parent = &t.root
	}
	key := t.encode(run)
	if parent.children[string(key)] != nil {
		return nil
	}
	n := &pageNode{parent: parent, key: string(key), page: page, refs: 1}
	if parent.children == nil {
		parent.children = make(map[string]*pageNode)
	}
	parent.children[n.key] = n
	t.pages++
	t.pinned++
	return n
}

// evict drops the least recently released unpinned page and reports whether
// there was one.
func (t *prefixTree) evict() bool {
	n := t.idle.next
	if n == &t.idle {
		return false
	}
	if len(n.children) != 0 {
		panic("sched: prefix cache eviction reached an interior page")
	}
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
	delete(n.parent.children, n.key)
	n.page = kvcache.Page{}
	t.pages--
	t.evictions++
	return true
}
