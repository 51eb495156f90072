package experiments

import (
	"slices"

	"sfccover/internal/dominance"
	"sfccover/internal/geom"
)

// kdTree is E9's exact dominance baseline: a k-d tree with axis-cycling
// splits and subtree pruning. It represents the practical exact indexes
// the related work uses, standing in for the impractical Willard–Lueker
// structure (see DESIGN.md). Deletion is by tombstone, which suits the
// pub/sub workload where unsubscriptions are rare relative to queries.
type kdTree struct {
	root *kdNode
	dims int
	size int
}

type kdNode struct {
	point       []uint32
	id          uint64
	axis        int
	deleted     bool
	left, right *kdNode
	// liveCount is the number of non-tombstoned nodes in this subtree,
	// letting queries skip fully dead subtrees.
	liveCount int
}

// newKDTree returns an empty tree for points with the given dimensionality.
func newKDTree(dims int) *kdTree { return &kdTree{dims: dims} }

var _ dominance.Searcher = (*kdTree)(nil)

// Len implements dominance.Searcher.
func (t *kdTree) Len() int { return t.size }

// Insert implements dominance.Searcher.
func (t *kdTree) Insert(p []uint32, id uint64) {
	n := &kdNode{point: append([]uint32(nil), p...), id: id, liveCount: 1}
	if t.root == nil {
		t.root = n
		t.size = 1
		return
	}
	cur := t.root
	for {
		cur.liveCount++
		n.axis = (cur.axis + 1) % t.dims
		if p[cur.axis] < cur.point[cur.axis] {
			if cur.left == nil {
				cur.left = n
				break
			}
			cur = cur.left
		} else {
			if cur.right == nil {
				cur.right = n
				break
			}
			cur = cur.right
		}
	}
	t.size++
}

// Delete implements dominance.Searcher (tombstone).
func (t *kdTree) Delete(p []uint32, id uint64) bool {
	// Walk the insert path; equal coordinates always went right.
	var path []*kdNode
	cur := t.root
	for cur != nil {
		path = append(path, cur)
		if !cur.deleted && cur.id == id && slices.Equal(cur.point, p) {
			cur.deleted = true
			t.size--
			for _, n := range path {
				n.liveCount--
			}
			return true
		}
		if p[cur.axis] < cur.point[cur.axis] {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	return false
}

// QueryDominating implements dominance.Searcher: depth-first search of the
// extremal region [q, max]^d, pruning left subtrees whose split already
// fails the query's lower bound and subtrees with no live nodes.
func (t *kdTree) QueryDominating(q []uint32) (uint64, bool) {
	return t.query(t.root, q)
}

func (t *kdTree) query(n *kdNode, q []uint32) (uint64, bool) {
	if n == nil || n.liveCount == 0 {
		return 0, false
	}
	if !n.deleted && geom.Dominates(n.point, q) {
		return n.id, true
	}
	// Right subtree holds points with coordinate >= split on this axis;
	// always eligible. Search it first: larger coordinates dominate more.
	if id, ok := t.query(n.right, q); ok {
		return id, true
	}
	// Left subtree holds strictly smaller coordinates on this axis; it can
	// contain a dominating point only if the query bound lies below the split.
	if q[n.axis] < n.point[n.axis] {
		return t.query(n.left, q)
	}
	return 0, false
}
