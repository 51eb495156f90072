// Package sfcarray implements the paper's "SFC array": the dynamic ordered
// data structure that stores indexed points sorted by their space-filling-
// curve keys (Section 2). The paper notes it "could be implemented using
// any dynamic unidimensional data structure such as a binary tree or a skip
// list"; both are provided — a randomized treap and a skip list — behind a
// common interface, so the choice can be benchmarked (experiment E10).
//
// Entries are (key, id) pairs; several ids may share one key (distinct
// subscriptions can map to the same cell). Every operation the dominance
// search needs — insert, delete and "is there anything in this key range,
// and if so give me one" — costs O(log n) expected time, which is why a
// run probe is cheap regardless of the run's length.
package sfcarray

import (
	"fmt"

	"sfccover/internal/bits"
)

// Index is a dynamic ordered multiset of (key, id) entries.
type Index interface {
	// Insert adds an entry. Duplicate (key, id) pairs are allowed and
	// stored separately.
	Insert(k bits.Key, id uint64)
	// Delete removes one entry matching (key, id) exactly, reporting
	// whether one was found.
	Delete(k bits.Key, id uint64) bool
	// Seek returns the entry with the smallest key >= lo (ties broken by
	// smallest id). ok is false when no stored key reaches lo. One ordered
	// descent: the unit of cost of both searches.
	Seek(lo bits.Key) (key bits.Key, id uint64, ok bool)
	// FirstInRange returns the id of the entry with the smallest key in
	// [lo, hi] (ties broken by smallest id): Seek(lo), accepted when the
	// key does not pass hi. ok is false when the range is empty. This
	// single probe is the unit of cost in the paper's analysis: one run
	// access.
	FirstInRange(lo, hi bits.Key) (id uint64, ok bool)
	// VisitRange calls visit for every entry with key in [lo, hi] in
	// ascending (key, id) order, stopping early if visit returns false.
	VisitRange(lo, hi bits.Key, visit func(k bits.Key, id uint64) bool)
	// InsertSorted adds a batch of entries that the caller has already
	// sorted in ascending (key, id) order, exploiting the order to beat
	// len(keys) independent Inserts: a cold structure is built bottom-up
	// and a warm one is merged in a single pass instead of one descent per
	// entry. Passing an unsorted batch corrupts the structure. ids aligns
	// with keys.
	InsertSorted(keys []bits.Key, ids []uint64)
	// Len returns the number of entries stored.
	Len() int
}

// New constructs an index implementation by name: "treap" or "skiplist".
// The seed makes the structure's internal randomness reproducible.
func New(impl string, seed int64) (Index, error) {
	switch impl {
	case "treap":
		return NewTreap(seed), nil
	case "skiplist":
		return NewSkipList(seed), nil
	default:
		return nil, fmt.Errorf("sfcarray: unknown implementation %q", impl)
	}
}

// EntryLess orders entries by key, then id, giving a strict total order on
// (key, id) pairs.
func EntryLess(k1 bits.Key, id1 uint64, k2 bits.Key, id2 uint64) bool {
	switch k1.Cmp(k2) {
	case -1:
		return true
	case 1:
		return false
	default:
		return id1 < id2
	}
}
