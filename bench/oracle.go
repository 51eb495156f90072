package main

import "sfccover/internal/subscription"

// The oracle never asks the system under test anything: it resolves ids
// through its own record of what was inserted and decides covering with
// Subscription.Covers over plain slices.

// heldSet is the oracle's id -> subscription record.
type heldSet struct {
	byID map[uint64]*sub
}

func newHeldSet(ids []uint64, subs []*sub) *heldSet {
	h := &heldSet{byID: make(map[uint64]*sub, len(ids))}
	for i, id := range ids {
		h.byID[id] = subs[i]
	}
	return h
}

// genuine reports whether the subscription inserted under id covers q.
func (h *heldSet) genuine(id uint64, q *sub) bool {
	s := h.byID[id]
	return s != nil && s.Covers(q)
}

// judge scores one cover answer for q. exists is the brute-force truth:
// does any live subscription cover q. A claimed cover that is not genuine
// is a failure (the paper's asymmetry: approximation may miss, never
// invent); a genuine one counts towards recall's numerator.
func (h *heldSet) judge(v *verdict, a coverAnswer, q *sub, exists bool) {
	if exists {
		v.recallDen++
	}
	if !a.found {
		return
	}
	if h.genuine(a.id, q) {
		v.recallNum++
	} else {
		v.failed++
	}
}

// anyCovers is the exact linear scan.
func anyCovers(set []*sub, q *sub) bool {
	for _, s := range set {
		if s.Covers(q) {
			return true
		}
	}
	return false
}

// overlayModel is who-holds-what in the overlay: per client, its live
// subscriptions. An event must reach exactly the clients with a match.
type overlayModel struct {
	pool []*sub
	held [overlayClients][]*sub
}

// newOverlayModel holds the window that was live at cursor c.
func newOverlayModel(pool []*sub, c overlayCursor) *overlayModel {
	m := &overlayModel{pool: pool}
	for i := c.oldest; i < c.nextSub; i++ {
		m.add(i)
	}
	return m
}

// add and remove take the unwrapped pool index the overlay driver uses.
func (m *overlayModel) add(i int) {
	c := i % overlayClients
	m.held[c] = append(m.held[c], m.pool[i%len(m.pool)])
}

func (m *overlayModel) remove(i int) {
	c, s := i%overlayClients, m.pool[i%len(m.pool)]
	for k, h := range m.held[c] {
		if h == s {
			m.held[c] = append(m.held[c][:k], m.held[c][k+1:]...)
			return
		}
	}
}

// match returns the delivery mask a brute-force match gives for e.
func (m *overlayModel) match(e subscription.Event) uint32 {
	var mask uint32
	for c := range m.held {
		for _, s := range m.held[c] {
			if s.Matches(e) {
				mask |= 1 << c
				break
			}
		}
	}
	return mask
}
