package broker

import (
	"math/bits"

	"sfccover/internal/subscription"
)

// rectIndex finds a broker's rectangle handles by rectangle: an
// open-addressed array of handles, the rectangle itself left where the
// broker keeps it (rectTable.keys) — a probe hashes the rectangle and
// compares each candidate with keys[h]. It probes linearly at load ≤ 3/4
// from a home read off the hash's top bits, and deletes by backward
// shift, as idtable does (Knuth's Algorithm R): a delete leaves no
// tombstone, so under FIFO churn no probe steps past dead slots and the
// slot count depends only on the peak live count.
type rectIndex struct {
	slots []int32 // a handle plus one; 0 marks an empty slot. len a power of two, or 0
	shift uint    // 64 - log2(len(slots)): home is the hash's top bits
	used  int
	// hash hashes a rectangle: hashRect in a broker, a function that
	// makes rectangles collide in a test. It takes the rectangle by value:
	// a pointer passed to a function value escapes, and a probe would
	// allocate.
	hash func(subscription.Rect) uint64
}

// hashRect mixes a rectangle's four words, two slots each, into a hash
// whose top bits depend on every bit of the rectangle.
func hashRect(r subscription.Rect) uint64 {
	var h uint64
	for i := 0; i < len(r); i += 2 {
		h = (h ^ uint64(r[i])<<32 ^ uint64(r[i+1])) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h * 0xbf58476d1ce4e5b9
}

// home returns the home slot of a rectangle hashing to hv.
func (x *rectIndex) home(hv uint64) int { return int(hv >> x.shift) }

// find returns the handle whose rectangle in keys is r.
func (x *rectIndex) find(keys []subscription.Rect, r subscription.Rect) (handle, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := x.home(x.hash(r)); x.slots[i] != 0; i = (i + 1) & mask {
		if h := handle(x.slots[i] - 1); keys[h] == r {
			return h, true
		}
	}
	return 0, false
}

// insert indexes h, whose rectangle keys[h] the index does not hold. The
// array doubles only when h would take it past 3/4 full.
func (x *rectIndex) insert(keys []subscription.Rect, h handle) {
	if 4*(x.used+1) > 3*len(x.slots) {
		old := x.slots
		n := max(2*len(old), 8)
		x.slots, x.shift = make([]int32, n), 64-uint(bits.TrailingZeros(uint(n)))
		for _, s := range old {
			if s != 0 {
				x.place(keys, s)
			}
		}
	}
	x.place(keys, int32(h)+1)
	x.used++
}

// place puts slot value s in the first empty slot from its rectangle's
// home.
func (x *rectIndex) place(keys []subscription.Rect, s int32) {
	mask := len(x.slots) - 1
	i := x.home(x.hash(keys[s-1]))
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// remove drops h, whose rectangle is still keys[h]. The run after the
// freed slot shifts back over it — each entry that may move to the hole
// without passing its home does — so every handle stays reachable from
// its home.
func (x *rectIndex) remove(keys []subscription.Rect, h handle) {
	mask := len(x.slots) - 1
	i := x.home(x.hash(keys[h]))
	for x.slots[i] != int32(h)+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: its probe distance must cover i.
		if (j-x.home(x.hash(keys[x.slots[j]-1])))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = 0
	x.used--
}
