package core

import (
	"fmt"
	"iter"
	"sync"

	"sfccover/internal/idtable"
	"sfccover/internal/sfc"
	"sfccover/internal/subscription"
)

// Listing is a held set as its provider captured it under its locks: the
// (id, value) slots of its held sets, copied in table order. A slot holds
// a rectangle, or, where the provider's curve keys fit one word, the
// one-word Z key a HeldSet holds instead. Sorting by id and decoding the
// keys wait for the first read (All, Held), which runs after the
// provider's locks are released: its writers wait only for the copy.
//
// Reads are safe from any goroutine; the first sorts the copy in place.
type Listing struct {
	schema *subscription.Schema // with curve, decodes words
	curve  *sfc.ZCurve          // nil on a listing of rectangles alone
	words  []idtable.Slot[uint64]
	rects  []idtable.Slot[subscription.Rect]
	room   int // the capacity the first copy of either form takes
	n      int // len(words) + len(rects), read without the sort's ordering
	sorted sync.Once
}

// NewListing starts an empty listing with room for n subscriptions, which
// a provider fills from its held sets (HeldSet.CopyTo).
func NewListing(n int) *Listing { return &Listing{room: n} }

// ListRects lists slots, rectangles by id that a holder copied from its
// table under its lock (idtable.Table.AppendTo). The listing takes the
// slice.
func ListRects(slots []idtable.Slot[subscription.Rect]) *Listing {
	return &Listing{rects: slots, n: len(slots)}
}

// Len returns the number of subscriptions listed.
func (l *Listing) Len() int { return l.n }

// All yields every listed subscription by id ascending, a one-word key
// decoded into its rectangle as it is yielded.
func (l *Listing) All() iter.Seq2[uint64, subscription.Rect] {
	l.sorted.Do(func() {
		l.words, l.rects = sortByID(l.words), sortByID(l.rects)
	})
	return func(yield func(uint64, subscription.Rect) bool) {
		for _, s := range l.rects {
			if !yield(s.ID, s.Val) {
				return
			}
		}
		for _, s := range l.words {
			if !yield(s.ID, WordRect(l.schema, l.curve, s.Val)) {
				return
			}
		}
	}
}

// Held returns every listed subscription by id ascending.
func (l *Listing) Held() []Held {
	out := make([]Held, 0, l.Len())
	for id, r := range l.All() {
		out = append(out, Held{ID: id, Rect: r})
	}
	return out
}

// WordRect decodes a one-word key on curve: it inverts KeyWord and
// Point, the rectangle of schema whose key on curve is k. A key no
// subscription of schema has is a broken invariant of its holder.
func WordRect(schema *subscription.Schema, curve *sfc.ZCurve, k uint64) subscription.Rect {
	var buf [2 * subscription.MaxAttrs]uint32
	cell := curve.Gather().DeinterleaveWordInto(buf[:curve.Dims()], k, curve.Bits())
	r, err := subscription.PointRect(schema, cell)
	if err != nil {
		panic(fmt.Sprintf("core: held key %#x is no subscription's: %v", k, err))
	}
	return r
}

// sortByID sorts es by id and returns the sorted slots, in es or in a
// scratch array of its length: a least-significant-byte-first radix
// sort, one counting pass per byte in which the ids differ, so ids below
// 2^24 take three passes and no comparison.
func sortByID[V any](es []idtable.Slot[V]) []idtable.Slot[V] {
	var or, and uint64 = 0, ^uint64(0)
	for _, s := range es {
		or |= s.ID
		and &= s.ID
	}
	var tmp []idtable.Slot[V]
	for shift, varies := 0, or^and; shift < 64 && varies>>shift != 0; shift += 8 {
		if byte(varies>>shift) == 0 {
			continue
		}
		if tmp == nil {
			tmp = make([]idtable.Slot[V], len(es))
		}
		var at [256]int
		for _, s := range es {
			at[byte(s.ID>>shift)]++
		}
		pos := 0
		for b, c := range at {
			at[b], pos = pos, pos+c
		}
		for _, s := range es {
			b := byte(s.ID >> shift)
			tmp[at[b]] = s
			at[b]++
		}
		es, tmp = tmp, es
	}
	return es
}
