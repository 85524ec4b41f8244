package sched

import (
	"encoding/binary"
	"strings"
	"testing"

	"rethinkkv/internal/kvcache"
)

// treeModel is the prefix tree as a map: one entry per cached page, keyed by
// the whole token path from the root (one byte per token), with the page's
// reference count, and the unpinned pages in the order they were released.
type treeModel struct {
	pageTokens int
	idleCap    int
	refs       map[string]int
	idle       []string
}

func (m *treeModel) pinned() int {
	n := 0
	for _, r := range m.refs {
		if r > 0 {
			n++
		}
	}
	return n
}

func (m *treeModel) isLeaf(key string) bool {
	for k := range m.refs {
		if len(k) > len(key) && strings.HasPrefix(k, key) {
			return false
		}
	}
	return true
}

func (m *treeModel) dropIdle(key string) {
	for i, k := range m.idle {
		if k == key {
			m.idle = append(m.idle[:i], m.idle[i+1:]...)
			return
		}
	}
}

func (m *treeModel) pin(keys []string) {
	for _, k := range keys {
		if m.refs[k] == 0 {
			m.dropIdle(k)
		}
		m.refs[k]++
	}
}

// unpin releases a path deepest first, then evicts the oldest releases beyond
// idleCap, as prefixTree.unpin does.
func (m *treeModel) unpin(t *testing.T, keys []string) {
	for i := len(keys) - 1; i >= 0; i-- {
		if m.refs[keys[i]]--; m.refs[keys[i]] == 0 {
			m.idle = append(m.idle, keys[i])
		}
	}
	for len(m.refs)-m.pinned() > m.idleCap {
		m.evict(t)
	}
}

// evict drops the least recently released unpinned page, which must be a leaf.
func (m *treeModel) evict(t *testing.T) bool {
	if len(m.idle) == 0 {
		return false
	}
	k := m.idle[0]
	if !m.isLeaf(k) {
		t.Fatalf("model: least recently released page %q has children", k)
	}
	m.idle = m.idle[1:]
	delete(m.refs, k)
	return true
}

// longest returns the model's longest page-aligned cached path of tokens.
func (m *treeModel) longest(tokens []int) int {
	at := 0
	for at+m.pageTokens <= len(tokens) {
		if _, ok := m.refs[modelKey(tokens[:at+m.pageTokens])]; !ok {
			break
		}
		at += m.pageTokens
	}
	return at
}

func modelKey(tokens []int) string {
	b := make([]byte, len(tokens))
	for i, tok := range tokens {
		b[i] = byte(tok)
	}
	return string(b)
}

// pathKey spells a node's whole token path in the model's key form.
func pathKey(n *pageNode) string {
	var parts []string
	for ; n.parent != nil; n = n.parent {
		var b []byte
		for i := 0; i+8 <= len(n.key); i += 8 {
			b = append(b, byte(binary.LittleEndian.Uint64([]byte(n.key[i:i+8]))))
		}
		parts = append([]string{string(b)}, parts...)
	}
	return strings.Join(parts, "")
}

// checkTreeAgainstModel compares every node, its reference count and the
// unpinned ring with the model, and checks the pin-closure invariant.
func checkTreeAgainstModel(t *testing.T, tr *prefixTree, m *treeModel) {
	t.Helper()
	if tr.pages != len(m.refs) || tr.pinned != m.pinned() {
		t.Fatalf("pages/pinned = %d/%d, model %d/%d", tr.pages, tr.pinned, len(m.refs), m.pinned())
	}
	seen := 0
	var walk func(n *pageNode)
	walk = func(n *pageNode) {
		for _, c := range n.children {
			k := pathKey(c)
			r, ok := m.refs[k]
			if !ok || r != c.refs {
				t.Fatalf("node %q refs %d, model %d (present %v)", k, c.refs, r, ok)
			}
			if c.refs > 0 && n != &tr.root && n.refs == 0 {
				t.Fatalf("pinned node %q under unpinned parent", k)
			}
			seen++
			walk(c)
		}
	}
	walk(&tr.root)
	if seen != len(m.refs) {
		t.Fatalf("tree holds %d nodes, model %d", seen, len(m.refs))
	}
	i := 0
	for n := tr.idle.next; n != &tr.idle; n = n.next {
		if i >= len(m.idle) || pathKey(n) != m.idle[i] {
			t.Fatalf("unpinned ring position %d is %q, model order %q", i, pathKey(n), m.idle)
		}
		i++
	}
	if i != len(m.idle) {
		t.Fatalf("unpinned ring has %d nodes, model %d", i, len(m.idle))
	}
}

// FuzzPrefixTreeMatchesModel drives the prefix tree with a byte-coded run of
// insert / match / pin / unpin / evict over a three-token alphabet, on behalf
// of a few requests that each hold one pinned path, and after every operation
// compares it with treeModel: the page and pinned counts, every node and its
// references, the release order eviction follows, that every ancestor of a
// pinned node is pinned, that match returns the model's longest
// page-aligned path, and that the page pool has out exactly the tree's pages:
// a sealed page becomes the tree's and an evicted one goes back.
func FuzzPrefixTreeMatchesModel(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4})
	f.Add([]byte{0, 0, 1, 2, 0, 0, 4, 2, 1, 0, 1, 3, 0, 1, 2, 1, 0, 3, 1, 4, 4, 4})
	f.Add([]byte{1, 2, 0, 5, 7, 0, 9, 1, 3, 3, 8, 2, 6, 1, 3, 1, 2, 3, 0, 4, 5, 1, 3, 2, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		const pageTokens, slots, alphabet = 2, 3, 3
		idleCap := 1 + int(ops[0]%6)
		pool := kvcache.NewPagePool(kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 2}, pageTokens, 0, 0, false)
		tr := newPrefixTree(pool, pageTokens, idleCap)
		m := &treeModel{pageTokens: pageTokens, idleCap: idleCap, refs: map[string]int{}}
		// Each slot is one request's pinned path: nodes and model keys.
		nodes := make([][]*pageNode, slots)
		keys := make([][]string, slots)
		ops = ops[1:]
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		tokens := func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = next() % alphabet
			}
			return out
		}
		for len(ops) > 0 {
			op, s := next()%5, next()%slots
			switch op {
			case 0: // insert: the slot's request seals its next page
				run := tokens(pageTokens)
				var parent *pageNode
				prefix := ""
				if n := len(nodes[s]); n > 0 {
					parent, prefix = nodes[s][n-1], keys[s][n-1]
				}
				k := prefix + modelKey(run)
				_, exists := m.refs[k]
				c := pool.NewCache()
				c.AppendFlatN(0, pageTokens, make([]float32, 2*pageTokens), make([]float32, 2*pageTokens))
				n := tr.insert(parent, run, c, 0)
				if (n == nil) != exists {
					t.Fatalf("insert %q: got node %v, model has it %v", k, n != nil, exists)
				}
				if n != nil {
					c.Release(1)
				} else {
					c.Release(0)
				}
				if n != nil {
					m.refs[k] = 1
					nodes[s], keys[s] = append(nodes[s], n), append(keys[s], k)
				}
			case 1: // match an arbitrary prompt
				prompt := tokens(next() % 9)
				path, _, shared := tr.match(prompt, len(prompt), false, nil)
				want := m.longest(prompt)
				if len(path)*pageTokens != want {
					t.Fatalf("match %v: %d pages, model %d tokens", prompt, len(path), want)
				}
				for i, n := range path {
					if pathKey(n) != modelKey(prompt[:(i+1)*pageTokens]) {
						t.Fatalf("match %v: page %d is %q", prompt, i, pathKey(n))
					}
				}
				if len(path) == 0 && shared != 0 {
					t.Fatalf("match %v: root tail shares %d tokens with no pre-warmed page", prompt, shared)
				}
			case 2: // pin: an idle slot's request is admitted on its match
				if len(nodes[s]) > 0 {
					continue
				}
				prompt := tokens(next() % 9)
				path, _, _ := tr.match(prompt, len(prompt), false, nil)
				tr.pin(path)
				nodes[s] = path
				keys[s] = keys[s][:0]
				for i := range path {
					keys[s] = append(keys[s], modelKey(prompt[:(i+1)*pageTokens]))
				}
				m.pin(keys[s])
			case 3: // unpin: the slot's request retires
				tr.unpin(nodes[s])
				m.unpin(t, keys[s])
				nodes[s], keys[s] = nil, nil
			case 4: // evict; the comparison below checks which page went
				if got, want := tr.evict(), m.evict(t); got != want {
					t.Fatalf("evict = %v, model %v", got, want)
				}
			}
			checkTreeAgainstModel(t, tr, m)
			if pool.Out() != tr.pages {
				t.Fatalf("page pool has %d pages out, tree holds %d", pool.Out(), tr.pages)
			}
		}
	})
}
