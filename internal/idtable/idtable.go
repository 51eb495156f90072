// Package idtable holds values by uint64 id in one open-addressed array:
// linear probing at load ≤ 3/4, a multiplicative hash read from its top
// bits, and backward-shift deletion (Knuth's Algorithm R), so a delete
// leaves no tombstone behind. Under FIFO churn — the oldest id retired as
// a new, larger one arrives — a probe therefore never steps past dead
// slots, and the slot count depends only on the peak live count, where a
// Go map's deleted-slot markers pile up until it rehashes.
//
// The top bits matter: engine ids are local*N + stripe, so every id one
// stripe holds has the same residue mod N, and a hash read from the low
// bits would reach only 1/N of the slots.
//
// A Table is not safe for concurrent use; each one lives under the lock
// that guards the structure it belongs to.
package idtable

import (
	"iter"
	"math/bits"
)

// minSlots is the slot count of a table's first allocation.
const minSlots = 8

// Slot is one array entry: an id and its value. Id 0 marks it empty.
type Slot[V any] struct {
	ID  uint64
	Val V
}

// Table maps uint64 ids to values. The zero value is an empty table ready
// for use, and reads on a nil *Table see an empty one, like a nil map.
type Table[V any] struct {
	slots []Slot[V] // len a power of two, or 0 before the first Put
	shift uint      // 64 - log2(len(slots)): home is the hash's top bits
	used  int       // occupied slots
	// Id 0 is the array's empty mark, so its value lives beside the array.
	// It is still a valid key: snapshot bytes from disk can carry it.
	zero    V
	hasZero bool
}

// home returns key's home slot. Call only with slots allocated.
func (t *Table[V]) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// Len returns the number of ids held.
func (t *Table[V]) Len() int {
	if t == nil {
		return 0
	}
	if t.hasZero {
		return t.used + 1
	}
	return t.used
}

// Get returns the value held under key.
//
//sfc:hotpath
func (t *Table[V]) Get(key uint64) (V, bool) {
	var none V
	switch {
	case t == nil:
		return none, false
	case key == 0:
		return t.zero, t.hasZero
	case len(t.slots) == 0:
		return none, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].ID {
		case key:
			return t.slots[i].Val, true
		case 0:
			return none, false
		}
	}
}

// Put holds v under key, replacing any value held there. The array
// doubles only when a new id would take it past 3/4 full.
//
//sfc:hotpath
func (t *Table[V]) Put(key uint64, v V) {
	if key == 0 {
		t.zero, t.hasZero = v, true
		return
	}
	if len(t.slots) > 0 {
		mask := len(t.slots) - 1
		i := t.home(key)
		for ; t.slots[i].ID != 0; i = (i + 1) & mask {
			if t.slots[i].ID == key {
				t.slots[i].Val = v
				return
			}
		}
		if 4*(t.used+1) <= 3*len(t.slots) {
			t.slots[i] = Slot[V]{key, v}
			t.used++
			return
		}
	}
	t.grow()
	t.place(Slot[V]{key, v})
	t.used++
}

// Grow makes room for n more ids: the array is sized once for the table's
// ids and n more, so that putting n new ids then re-places nothing. A bulk
// load calls it with the batch's count; a table already that large is left
// as it is.
func (t *Table[V]) Grow(n int) {
	if n <= 0 {
		return
	}
	need := t.used + n
	size := max(len(t.slots), minSlots)
	for 4*need > 3*size {
		size *= 2
	}
	if size != len(t.slots) {
		t.resize(size)
	}
}

// grow doubles the array and re-places every entry.
func (t *Table[V]) grow() { t.resize(max(2*len(t.slots), minSlots)) }

// resize moves every entry into a fresh array of n slots, a power of two.
func (t *Table[V]) resize(n int) {
	old := t.slots
	t.slots = make([]Slot[V], n)
	t.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.ID != 0 {
			t.place(s)
		}
	}
}

// place puts s, whose key the array does not hold, in the first empty
// slot from its home.
func (t *Table[V]) place(s Slot[V]) {
	mask := len(t.slots) - 1
	i := t.home(s.ID)
	for t.slots[i].ID != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// Delete removes key and returns the value it held. The run of entries
// after the freed slot shifts back over it — each entry that may move to
// the hole without passing its home does — so every id stays reachable
// from its home without a tombstone.
//
//sfc:hotpath
func (t *Table[V]) Delete(key uint64) (V, bool) {
	var none V
	if key == 0 {
		v, ok := t.zero, t.hasZero
		t.zero, t.hasZero = none, false
		return v, ok
	}
	if len(t.slots) == 0 {
		return none, false
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].ID != key {
		if t.slots[i].ID == 0 {
			return none, false
		}
		i = (i + 1) & mask
	}
	v := t.slots[i].Val
	for j := (i + 1) & mask; t.slots[j].ID != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: its probe distance must cover i.
		if (j-t.home(t.slots[j].ID))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = Slot[V]{} // drop the value's reference
	t.used--
	return v, true
}

// AppendTo appends every id the table holds, with its value, to dst, in
// no particular order: the capture a holder makes under its lock when it
// lists the table later, outside it.
func (t *Table[V]) AppendTo(dst []Slot[V]) []Slot[V] {
	if t == nil {
		return dst
	}
	if t.hasZero {
		dst = append(dst, Slot[V]{0, t.zero})
	}
	for _, s := range t.slots {
		if s.ID != 0 {
			dst = append(dst, s)
		}
	}
	return dst
}

// All yields every id and its value, in no particular order. The table
// must not change during the iteration.
func (t *Table[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		if t == nil {
			return
		}
		if t.hasZero && !yield(0, t.zero) {
			return
		}
		for _, s := range t.slots {
			if s.ID != 0 && !yield(s.ID, s.Val) {
				return
			}
		}
	}
}
