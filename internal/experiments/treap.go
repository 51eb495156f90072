package experiments

import (
	"math/rand"

	"sfccover/internal/bits"
	"sfccover/internal/sfcarray"
)

// treap is the SFC array the repository ran on before the blocked array
// (internal/sfcarray) replaced it, kept as E10's baseline: a randomized
// balanced binary search tree over (key, id) entries — a BST in (key, id)
// order that is simultaneously a max-heap in random priorities, giving
// O(log n) expected depth for every operation, one 96-byte node and an
// eight-word key compare per level. Only the operations E10 times remain.
// The zero value is not usable; construct with newTreap.
type treap struct {
	root *treapNode
	rng  *rand.Rand
}

type treapNode struct {
	key         bits.Key
	id          uint64
	prio        uint64
	left, right *treapNode
}

// newTreap returns an empty treap whose rebalancing coin flips are driven
// by the given seed (deterministic across runs).
func newTreap(seed int64) *treap {
	return &treap{rng: rand.New(rand.NewSource(seed))}
}

// Insert adds an entry.
func (t *treap) Insert(k bits.Key, id uint64) {
	t.root = t.insert(t.root, &treapNode{key: k, id: id, prio: t.rng.Uint64()})
}

func (t *treap) insert(n, nw *treapNode) *treapNode {
	if n == nil {
		return nw
	}
	if sfcarray.EntryLess(nw.key, nw.id, n.key, n.id) {
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

// Delete removes one entry matching (key, id) exactly.
func (t *treap) Delete(k bits.Key, id uint64) bool {
	var deleted bool
	t.root, deleted = t.delete(t.root, k, id)
	return deleted
}

func (t *treap) delete(n *treapNode, k bits.Key, id uint64) (*treapNode, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case sfcarray.EntryLess(k, id, n.key, n.id):
		n.left, deleted = t.delete(n.left, k, id)
	case sfcarray.EntryLess(n.key, n.id, k, id):
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
func (t *treap) seek(lo bits.Key) *treapNode {
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

// Seek returns the entry with the smallest key >= lo.
func (t *treap) Seek(lo bits.Key) (bits.Key, uint64, bool) {
	n := t.seek(lo)
	if n == nil {
		return bits.Key{}, 0, false
	}
	return n.key, n.id, true
}

// FirstInRange is Seek(lo), accepted when the key does not pass hi.
func (t *treap) FirstInRange(lo, hi bits.Key) (uint64, bool) {
	n := t.seek(lo)
	if n == nil || n.key.Cmp(hi) > 0 {
		return 0, false
	}
	return n.id, true
}
