package core

import (
	"sfccover/internal/idtable"
	"sfccover/internal/sfc"
	"sfccover/internal/subscription"
)

// HeldSet is a provider's held set: its subscriptions by id, each held as
// a value, never the caller's subscription, so nothing the caller does to
// it afterwards reaches the set. Where the curve's keys fit one word that
// value is the subscription's one-word Z key, the word the index files it
// under: Point is a bijection onto the universe's cells and KeyWord one
// onto the words, so the key is the subscription, an 8-byte value where
// its rectangle takes 32 (a 16-byte id-table slot where it had a 40-byte
// one). Wider universes, and a set built on no curve, hold the packed
// rectangle. The form is chosen once, when the set is built.
//
// A HeldSet is not safe for concurrent use; it lives under the lock of
// the provider that holds it.
type HeldSet struct {
	schema *subscription.Schema
	curve  *sfc.ZCurve                      // non-nil iff the set holds words
	words  idtable.Table[uint64]            // keyed by id, in word form
	rects  idtable.Table[subscription.Rect] // keyed by id, otherwise
}

// NewHeldSet returns an empty set of schema's subscriptions: of one-word
// keys on curve where curve is non-nil and its keys fit one word, of
// rectangles otherwise.
func NewHeldSet(schema *subscription.Schema, curve *sfc.ZCurve) HeldSet {
	if curve != nil && curve.Dims()*curve.Bits() > 64 {
		curve = nil
	}
	return HeldSet{schema: schema, curve: curve}
}

// Words reports whether the set holds one-word keys.
func (h *HeldSet) Words() bool { return h.curve != nil }

// Len returns the number of ids held.
func (h *HeldSet) Len() int { return h.words.Len() + h.rects.Len() }

// Key returns point p's one-word key where the set holds words, and 0
// where it holds rectangles (and reads no key).
func (h *HeldSet) Key(p []uint32) uint64 {
	if h.curve == nil {
		return 0
	}
	return h.curve.KeyWord(p)
}

// RectOf returns s's rectangle where the set holds rectangles and the
// zero one where it holds words, so a set of words never reads s's
// ranges.
func (h *HeldSet) RectOf(s *subscription.Subscription) subscription.Rect {
	if h.curve != nil {
		return subscription.Rect{}
	}
	return s.Rect()
}

// Hold holds id: key, the subscription's one-word key (Key), where the
// set holds words, and r, its rectangle (RectOf), where it holds
// rectangles. The other argument is not read.
func (h *HeldSet) Hold(id, key uint64, r subscription.Rect) {
	if h.curve != nil {
		h.words.Put(id, key)
		return
	}
	h.rects.Put(id, r)
}

// Holds reports whether id is held.
func (h *HeldSet) Holds(id uint64) bool {
	if h.curve != nil {
		_, ok := h.words.Get(id)
		return ok
	}
	_, ok := h.rects.Get(id)
	return ok
}

// Rect returns the rectangle held under id, a held key decoded.
func (h *HeldSet) Rect(id uint64) (subscription.Rect, bool) {
	if h.curve != nil {
		k, ok := h.words.Get(id)
		if !ok {
			return subscription.Rect{}, false
		}
		return WordRect(h.schema, h.curve, k), true
	}
	return h.rects.Get(id)
}

// Release drops id and returns what an index files it under, decoding
// nothing: where the set holds words the held key, p nil; where it holds
// rectangles the held rectangle's point, written into buf, which must
// hold the schema's Dims coordinates, and key 0.
func (h *HeldSet) Release(id uint64, buf []uint32) (key uint64, p []uint32, ok bool) {
	if h.curve != nil {
		key, ok = h.words.Delete(id)
		return key, nil, ok
	}
	r, ok := h.rects.Delete(id)
	if !ok {
		return 0, nil, false
	}
	return 0, r.PointInto(h.schema, buf), true
}

// Grow makes room for n more ids, so a batch is held without rehashing.
func (h *HeldSet) Grow(n int) {
	if h.curve != nil {
		h.words.Grow(n)
		return
	}
	h.rects.Grow(n)
}

// MinCover returns the smallest held id whose subscription covers q; qk
// is q's one-word key (Key of its point) where the set holds words. A
// held key covers q exactly when it dominates qk under every dimension
// mask, the test the SFC array's leaf check makes, so no key is decoded.
func (h *HeldSet) MinCover(q subscription.Rect, qk uint64) (id uint64, ok bool) {
	if h.curve != nil {
		d := h.curve.Dims()
		for cand, k := range h.words.All() {
			if (!ok || cand < id) && sfc.DominatesWord(d, k, qk) {
				id, ok = cand, true
			}
		}
		return id, ok
	}
	for cand, r := range h.rects.All() {
		if (!ok || cand < id) && r.Covers(q) {
			id, ok = cand, true
		}
	}
	return id, ok
}

// CopyTo adds the set's held values to l: the capture a provider makes
// under the lock the set lives under. Keys are decoded only when l is
// read.
func (h *HeldSet) CopyTo(l *Listing) {
	if h.curve != nil {
		if l.words == nil {
			l.words = make([]idtable.Slot[uint64], 0, l.room)
		}
		l.schema, l.curve = h.schema, h.curve
		l.words = h.words.AppendTo(l.words)
	} else {
		if l.rects == nil {
			l.rects = make([]idtable.Slot[subscription.Rect], 0, l.room)
		}
		l.rects = h.rects.AppendTo(l.rects)
	}
	l.n += h.Len()
}
