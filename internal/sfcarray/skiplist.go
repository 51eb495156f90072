package sfcarray

import (
	"math/rand"

	"sfccover/internal/bits"
)

const (
	maxLevel = 24
	// pBits controls the level distribution: one extra level per two coin
	// flips of a fair bit, i.e. p = 1/2.
	pBits = 1
)

// SkipList is a classic Pugh skip list over (key, id) entries, the second
// "dynamic unidimensional data structure" the paper suggests for the SFC
// array. Construct with NewSkipList.
type SkipList struct {
	head  *slNode
	level int // highest level currently in use, 1-based
	rng   *rand.Rand
	size  int
}

type slNode struct {
	key  bits.Key
	id   uint64
	next []*slNode
}

// NewSkipList returns an empty skip list with deterministic level draws.
func NewSkipList(seed int64) *SkipList {
	return &SkipList{
		head:  &slNode{next: make([]*slNode, maxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

var _ Index = (*SkipList)(nil)

// Len implements Index.
func (s *SkipList) Len() int { return s.size }

func (s *SkipList) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.rng.Int63()&(1<<pBits-1) == 0 {
		lvl++
	}
	return lvl
}

// less reports whether node n sorts strictly before (k, id); nil counts as
// +infinity.
func less(n *slNode, k bits.Key, id uint64) bool {
	if n == nil {
		return false
	}
	return EntryLess(n.key, n.id, k, id)
}

// Insert implements Index.
func (s *SkipList) Insert(k bits.Key, id uint64) {
	update := make([]*slNode, maxLevel)
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for less(x.next[i], k, id) {
			x = x.next[i]
		}
		update[i] = x
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	n := &slNode{key: k, id: id, next: make([]*slNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	s.size++
}

// InsertSorted implements Index with one monotone merge pass: because the
// batch ascends, the per-level insertion frontier only ever moves forward,
// so the search for entry j resumes where entry j-1's ended instead of
// restarting from the head — O(n + m) node hops overall instead of m
// independent O(log n) descents.
func (s *SkipList) InsertSorted(keys []bits.Key, ids []uint64) {
	if len(keys) == 0 {
		return
	}
	update := make([]*slNode, maxLevel)
	for i := range update {
		update[i] = s.head
	}
	for j := range keys {
		k, id := keys[j], ids[j]
		for i := s.level - 1; i >= 0; i-- {
			x := update[i]
			for less(x.next[i], k, id) {
				x = x.next[i]
			}
			update[i] = x
		}
		lvl := s.randomLevel()
		if lvl > s.level {
			// New levels start at the head; nothing precedes the frontier
			// there yet.
			s.level = lvl
		}
		n := &slNode{key: k, id: id, next: make([]*slNode, lvl)}
		for i := 0; i < lvl; i++ {
			n.next[i] = update[i].next[i]
			update[i].next[i] = n
		}
		s.size++
	}
}

// Delete implements Index.
func (s *SkipList) Delete(k bits.Key, id uint64) bool {
	update := make([]*slNode, maxLevel)
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for less(x.next[i], k, id) {
			x = x.next[i]
		}
		update[i] = x
	}
	target := x.next[0]
	if target == nil || !target.key.Equal(k) || target.id != id {
		return false
	}
	for i := 0; i < len(target.next); i++ {
		if update[i].next[i] == target {
			update[i].next[i] = target.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.size--
	return true
}

// seek is the one descent every lookup shares: the first node with
// key >= lo, nil when there is none.
//
//sfc:hotpath
func (s *SkipList) seek(lo bits.Key) *slNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key.Less(lo) {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// Seek implements Index.
//
//sfc:hotpath
func (s *SkipList) Seek(lo bits.Key) (bits.Key, uint64, bool) {
	n := s.seek(lo)
	if n == nil {
		return bits.Key{}, 0, false
	}
	return n.key, n.id, true
}

// FirstInRange implements Index.
//
//sfc:hotpath
func (s *SkipList) FirstInRange(lo, hi bits.Key) (uint64, bool) {
	n := s.seek(lo)
	if n == nil || n.key.Cmp(hi) > 0 {
		return 0, false
	}
	return n.id, true
}

// VisitRange implements Index.
func (s *SkipList) VisitRange(lo, hi bits.Key, visit func(bits.Key, uint64) bool) {
	for n := s.seek(lo); n != nil && n.key.Cmp(hi) <= 0; n = n.next[0] {
		if !visit(n.key, n.id) {
			return
		}
	}
}
