package sfcarray

import (
	"math/rand"

	"sfccover/internal/bits"
)

// Treap is a randomized balanced binary search tree over (key, id) entries:
// a BST in (key, id) order that is simultaneously a max-heap in random
// priorities, giving O(log n) expected depth for every operation.
// The zero value is not usable; construct with NewTreap.
type Treap struct {
	root *treapNode
	rng  *rand.Rand
	size int
}

type treapNode struct {
	key         bits.Key
	id          uint64
	prio        uint64
	left, right *treapNode
}

// NewTreap returns an empty treap whose rebalancing coin flips are driven
// by the given seed (deterministic across runs).
func NewTreap(seed int64) *Treap {
	return &Treap{rng: rand.New(rand.NewSource(seed))}
}

var _ Index = (*Treap)(nil)

// Len implements Index.
func (t *Treap) Len() int { return t.size }

// Insert implements Index.
func (t *Treap) Insert(k bits.Key, id uint64) {
	t.root = t.insert(t.root, &treapNode{key: k, id: id, prio: t.rng.Uint64()})
	t.size++
}

func (t *Treap) insert(n, nw *treapNode) *treapNode {
	if n == nil {
		return nw
	}
	if EntryLess(nw.key, nw.id, n.key, n.id) {
		n.left = t.insert(n.left, nw)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	} else {
		n.right = t.insert(n.right, nw)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	return n
}

func rotateRight(n *treapNode) *treapNode {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *treapNode) *treapNode {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// InsertSorted implements Index: the batch is assembled into a treap of
// its own in O(len) time with the rightmost-spine construction (possible
// only because the batch is sorted), then merged into the held treap with
// a split-based union — O(m log(n/m)) when the batch occupies a key range
// disjoint from most of the tree, which is the bulk-load and slice-
// migration case.
func (t *Treap) InsertSorted(keys []bits.Key, ids []uint64) {
	t.root = unionTreap(t.root, t.buildSorted(keys, ids))
	t.size += len(keys)
}

// buildSorted builds a treap from entries in ascending (key, id) order by
// maintaining the rightmost spine as a stack of decreasing priorities:
// each new node pops the spine's smaller-priority tail, adopts it as a
// left subtree, and becomes the new spine tip. Every node is pushed and
// popped at most once, so the build is O(len).
func (t *Treap) buildSorted(keys []bits.Key, ids []uint64) *treapNode {
	var spine []*treapNode
	for i := range keys {
		n := &treapNode{key: keys[i], id: ids[i], prio: t.rng.Uint64()}
		var popped *treapNode
		for len(spine) > 0 && spine[len(spine)-1].prio < n.prio {
			popped = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
		}
		n.left = popped
		if len(spine) > 0 {
			spine[len(spine)-1].right = n
		}
		spine = append(spine, n)
	}
	if len(spine) == 0 {
		return nil
	}
	return spine[0]
}

// splitTreap splits n into the entries sorting strictly before (k, id) and
// the rest, preserving heap order in both halves.
func splitTreap(n *treapNode, k bits.Key, id uint64) (l, r *treapNode) {
	if n == nil {
		return nil, nil
	}
	if EntryLess(n.key, n.id, k, id) {
		n.right, r = splitTreap(n.right, k, id)
		return n, r
	}
	l, n.left = splitTreap(n.left, k, id)
	return l, n
}

// unionTreap merges two treaps over arbitrary (possibly interleaved) key
// ranges: the higher-priority root wins, the other treap is split around
// it, and the halves merge into its subtrees.
func unionTreap(a, b *treapNode) *treapNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio < b.prio {
		a, b = b, a
	}
	l, r := splitTreap(b, a.key, a.id)
	a.left = unionTreap(a.left, l)
	a.right = unionTreap(a.right, r)
	return a
}

// Delete implements Index.
func (t *Treap) Delete(k bits.Key, id uint64) bool {
	var deleted bool
	t.root, deleted = t.delete(t.root, k, id)
	if deleted {
		t.size--
	}
	return deleted
}

func (t *Treap) delete(n *treapNode, k bits.Key, id uint64) (*treapNode, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case EntryLess(k, id, n.key, n.id):
		n.left, deleted = t.delete(n.left, k, id)
	case EntryLess(n.key, n.id, k, id):
		n.right, deleted = t.delete(n.right, k, id)
	default:
		// Found: rotate down until a child slot frees up.
		switch {
		case n.left == nil:
			return n.right, true
		case n.right == nil:
			return n.left, true
		case n.left.prio > n.right.prio:
			n = rotateRight(n)
			n.right, deleted = t.delete(n.right, k, id)
		default:
			n = rotateLeft(n)
			n.left, deleted = t.delete(n.left, k, id)
		}
	}
	return n, deleted
}

// seek is the one root-to-leaf descent every lookup shares: the node
// holding the smallest (key, id) with key >= lo, nil when there is none.
//
//sfc:hotpath
func (t *Treap) seek(lo bits.Key) *treapNode {
	var best *treapNode
	for n := t.root; n != nil; {
		if n.key.Cmp(lo) >= 0 {
			best = n // candidate; smaller keys may exist on the left
			n = n.left
		} else {
			n = n.right
		}
	}
	return best
}

// Seek implements Index.
//
//sfc:hotpath
func (t *Treap) Seek(lo bits.Key) (bits.Key, uint64, bool) {
	n := t.seek(lo)
	if n == nil {
		return bits.Key{}, 0, false
	}
	return n.key, n.id, true
}

// FirstInRange implements Index.
//
//sfc:hotpath
func (t *Treap) FirstInRange(lo, hi bits.Key) (uint64, bool) {
	n := t.seek(lo)
	if n == nil || n.key.Cmp(hi) > 0 {
		return 0, false
	}
	return n.id, true
}

// VisitRange implements Index by in-order traversal with subtree pruning.
func (t *Treap) VisitRange(lo, hi bits.Key, visit func(bits.Key, uint64) bool) {
	t.visit(t.root, lo, hi, visit)
}

func (t *Treap) visit(n *treapNode, lo, hi bits.Key, visit func(bits.Key, uint64) bool) bool {
	if n == nil {
		return true
	}
	if n.key.Cmp(lo) >= 0 {
		if !t.visit(n.left, lo, hi, visit) {
			return false
		}
	}
	if n.key.Cmp(lo) >= 0 && n.key.Cmp(hi) <= 0 {
		if !visit(n.key, n.id) {
			return false
		}
	}
	if n.key.Cmp(hi) <= 0 {
		if !t.visit(n.right, lo, hi, visit) {
			return false
		}
	}
	return true
}
