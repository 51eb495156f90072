// Package broker simulates a distributed content-based publish/subscribe
// network of the kind the paper targets (Siena, Gryphon, REBECA): brokers
// form an acyclic overlay, subscriptions propagate through the overlay so
// that events published anywhere reach every matching subscriber, and each
// broker suppresses the forwarding of subscriptions that are covered by
// ones it already forwarded — using a core.Provider (a single Detector or
// a sharded engine, per Config.Backend) in any of the paper's modes
// (off / exact / ε-approximate). Every suppressed subscription remembers
// the forwarded id that covers it, so an unsubscription re-screens exactly
// what the retracted cover was holding back and re-forwards where no
// other cover remains; what another cover holds back is never looked at.
//
// The simulation is deterministic: messages are processed from a single
// FIFO queue, and all iteration orders are fixed. The safety property the
// tests pin down is the paper's central premise: covering (exact or
// approximate) changes how many subscriptions are propagated, never which
// events are delivered.
package broker

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/idtable"
	"sfccover/internal/obs"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// Config parameterizes every broker's covering providers.
type Config struct {
	// Schema is the pub/sub attribute schema (required).
	Schema *subscription.Schema
	// Mode is the covering-detection mode each broker runs; ModeOff floods.
	Mode core.Mode
	// Epsilon is the approximation parameter for core.ModeApprox.
	Epsilon float64
	// Strategy selects the exact-search backend; empty means SFC.
	Strategy core.Strategy
	// MaxCubes caps per-query work in SFC searches (0 = unlimited).
	MaxCubes int
	// Seed is ignored: the SFC arrays it seeded are no longer randomized.
	// Callers that predate that still set it.
	Seed int64
	// Backend selects the per-link covering provider: a single Detector
	// (default), a curve-prefix engine, or link namespaces on a shared
	// sfcd daemon. Remote-backed networks own a daemon connection, and
	// durable ones (DataDir) their log; call Close when done.
	Backend Backend
	// DaemonAddr is the shared sfcd daemon's TCP address (required for
	// BackendRemote unless DaemonAddrs is set, ignored otherwise). All
	// links of all brokers multiplex one pipelined connection to it.
	DaemonAddr string
	// DaemonAddrs lists a replicated daemon cluster's addresses
	// (BackendRemote). Setting it puts the shared connection in failover
	// mode: a lost daemon is redialed across the list — DaemonAddr first,
	// if also set — until a primary answers, and link namespaces
	// re-resolve server-side on the next request (daemon links are
	// materialized lazily by name, so a promoted follower rebuilds them
	// from its replicated WAL). Ops in flight at the failure still fail
	// typed with ErrDaemonConnectionLost; the routing layer decides what
	// is safe to reissue.
	DaemonAddrs []string
	// DaemonTimeout is the per-operation deadline on daemon calls
	// (BackendRemote; 0 = none).
	DaemonTimeout time.Duration
	// LinkPrefix namespaces this network's links on the shared daemon, so
	// several networks (or several runs) can share one daemon without
	// colliding (BackendRemote; empty is fine for a dedicated daemon).
	LinkPrefix string
	// BatchSize chunks the covered-set re-forward probes issued at
	// unsubscription time through the provider's batch interface
	// (0 = the whole covered set in one batch).
	BatchSize int
	// DataDir makes every in-process link provider durable: forwarded and
	// suppressed sets ride one persist.Store (WAL + snapshots) under this
	// directory, and a network rebuilt over the same dir recovers them —
	// including the per-link forwarded ids, restored from the recovered
	// providers — so a broker restart does not re-flood the overlay.
	// In-process backends only; with BackendRemote the daemon's own
	// -data-dir is the durability seam, and combining the two is refused.
	// Snapshot compaction is explicit: call Network.Snapshot.
	DataDir string
}

// Metrics aggregates network-wide counters. Subscription/unsubscription
// message counts are the quantity the paper's optimization reduces.
type Metrics struct {
	// SubscribeMsgs counts broker-to-broker subscribe messages.
	SubscribeMsgs int
	// UnsubscribeMsgs counts broker-to-broker unsubscribe messages.
	UnsubscribeMsgs int
	// EventMsgs counts broker-to-broker event messages.
	EventMsgs int
	// Deliveries counts events handed to clients.
	Deliveries int
	// SuppressedForwards counts covering decisions that kept a subscription
	// off a link: every subscribe-path suppression and every member an
	// unsubscription re-screened that stayed suppressed. A member recorded
	// under another cover is not re-screened, so not counted again; which
	// cover a provider names when several qualify is the backend's choice,
	// so the counter compares runs of one backend, not backends.
	SuppressedForwards int
	// DuplicateForwards counts forwards avoided because the identical
	// subscription was already forwarded on that link.
	DuplicateForwards int
	// ProtocolErrors counts internal inconsistencies (always zero unless
	// the simulation itself is buggy).
	ProtocolErrors int
}

// ifaceKind distinguishes the two sides a broker talks to.
type ifaceKind int

const (
	ifNeighbor ifaceKind = iota + 1
	ifClient
)

// iface identifies a message source/sink at a broker: a neighboring broker
// or an attached client.
type iface struct {
	kind ifaceKind
	id   int
}

// message is a queued simulation step. Payloads are shared read-only
// between hops — no handler mutates one (rows keep packed bounds,
// providers their own copy, suppressed entries the shared pointer): a
// subscription is copied once, at Subscribe, and that copy is both the
// client's record and every hop's payload (Unsubscribe sends the record
// it removes); an event is copied once at Publish and once more into each
// receiving Client, never per link.
type message struct {
	to    int // destination broker
	from  iface
	sub   *subscription.Subscription // subscribe/unsubscribe payload
	event subscription.Event         // event payload
	kind  msgKind
	// at is the event's origin timestamp, stamped at Publish on one
	// publish in latencySample and propagated unchanged through every
	// forwarding hop, so delivery latency measures publish-to-client end
	// to end. Zero on every other event and on subscribe/unsubscribe
	// messages.
	at time.Time
}

type msgKind int

const (
	msgSubscribe msgKind = iota + 1
	msgUnsubscribe
	msgEvent
)

// Client is an endpoint attached to one broker.
type Client struct {
	// ID is the network-unique client id.
	ID int
	// Broker is the id of the broker the client is attached to.
	Broker int
	// Received records delivered events in delivery order.
	Received []subscription.Event

	subs []*subscription.Subscription
}

// Subscriptions returns the client's live subscriptions.
func (c *Client) Subscriptions() []*subscription.Subscription {
	out := make([]*subscription.Subscription, len(c.subs))
	for i, s := range c.subs {
		out[i] = s.Clone()
	}
	return out
}

// Network is a deterministic simulation of a broker overlay.
type Network struct {
	cfg     Config
	src     *providerSource
	brokers []*Broker
	clients map[int]*Client
	nextCli int
	queue   []message
	metrics Metrics
	lat     *linkLatency
}

// linkLatency holds the overlay's latency histograms, shared by every
// broker. delivery measures publish to client hand-off, end to end across
// hops; forward measures the covering query a subscription forward waits
// on (the paper's per-link detection cost, as latency). Both are samples,
// one in latencySample, elected by the network's own tick counts.
type linkLatency struct {
	delivery *obs.Histogram
	forward  *obs.Histogram
	// published and queried count publishes and forward-path cover
	// queries; a count that is a multiple of latencySample elects.
	published, queried uint64
}

// latencySample is the latency histograms' sampling rate: publish 16, 32,
// … is stamped, so only its deliveries read the clock, and forward-path
// cover query 16, 32, … is timed. A power of two, so election is a mask.
// Routing ignores latency, so the histograms are unbiased samples; the
// Metrics counters stay exact.
const latencySample = 16

// elect advances a tick count and reports whether the new count is
// sampled.
func elect(tick *uint64) bool {
	*tick++
	return *tick&(latencySample-1) == 0
}

// Broker is one routing node. Its state machine acts on the network it
// belongs to: it queues messages, delivers events and counts metrics there.
type Broker struct {
	id        int
	net       *Network
	neighbors []int // sorted
	// table is the routing table, one group of rows per interface:
	// neighbors in id order (group k is neighbors[k]'s), then clients in
	// attachment order. Events walk it in that order, so forwarding order
	// is fixed.
	table []ifaceRows
	rects rectTable
	out   []*neighborState // per neighbor, aligned with neighbors
}

// handle names one of a broker's interned rectangles.
type handle int32

// rectTable interns a broker's rectangles. A subscribe or unsubscribe
// message hashes its rectangle once, here; every per-rectangle fact the
// broker keeps then hangs off the handle — the rows below, and each link's
// forwarded id and suppressed entry (neighborState.ids, suppressedTable.at,
// slices indexed by handle). A handle lives while some group holds a row
// for its rectangle or some link holds state for it; a freed handle goes on
// the free list and is reused first, so handle values depend only on the
// op sequence. The rectangle is stored once, in keys: index holds only
// handles.
type rectTable struct {
	index rectIndex
	keys  []subscription.Rect // per handle, its rectangle
	// rows lists, per handle, where each group holding a row for the
	// rectangle keeps it: its length is the rectangle's source count, and
	// the lists together take memory in rows, not in handles × groups.
	rows [][]rowRef
	free []handle
}

// rowRef places a rectangle's row: table[group], row position row.
type rowRef struct{ group, row int32 }

// lookup returns key's handle, if the broker holds one.
func (t *rectTable) lookup(key subscription.Rect) (handle, bool) {
	return t.index.find(t.keys, key)
}

// intern returns key's handle, minting one — the most recently freed
// first — when the broker holds nothing for the rectangle.
func (b *Broker) intern(key subscription.Rect) handle {
	t := &b.rects
	if h, ok := t.lookup(key); ok {
		return h
	}
	var h handle
	if n := len(t.free); n > 0 {
		h, t.free = t.free[n-1], t.free[:n-1]
		t.keys[h] = key
	} else {
		h = handle(len(t.keys))
		t.keys, t.rows = append(t.keys, key), append(t.rows, nil)
		for _, st := range b.out {
			st.ids, st.sups.at = append(st.ids, 0), append(st.sups.at, 0)
		}
	}
	t.index.insert(t.keys, h)
	return h
}

// release frees h once nothing refers to it: no group holds a row for its
// rectangle and no link holds state for it.
func (b *Broker) release(h handle) {
	t := &b.rects
	if len(t.rows[h]) > 0 {
		return
	}
	for _, st := range b.out {
		if st.ids[h] != 0 || st.sups.at[h] != 0 {
			return
		}
	}
	t.index.remove(t.keys, h)
	t.free = append(t.free, h)
}

// placement returns the index in rows[h] of h's row in group gi, or -1
// when the group holds none.
func (t *rectTable) placement(h handle, gi int) int {
	for k, r := range t.rows[h] {
		if int(r.group) == gi {
			return k
		}
	}
	return -1
}

// A group's rows keep their bounds packed three attributes to a uint64,
// one 21-bit lane each: lane bits 0–15 hold a value (at most MaxBits
// bits) and bit 20 is the lane's guard, clear in stored words. Attribute
// a sits in word a/3, lane a%3; lanes past the schema's attributes hold
// zero on both sides, which every event matches.
//
// An event E is packed the same way with every guard bit set. Per lane,
// x = E − lo keeps its guard bit iff v ≥ lo, leaving v − lo below it; and
// span|G − x&^G keeps its guard bit iff v − lo ≤ span = hi − lo. Neither
// subtraction borrows across a lane (a guard outweighs any 16-bit value),
// so one word tests three attributes with no branch per attribute:
//
//	x := E - lo; x & (span|G - x&^G) & G == G
const (
	laneBits     = 21
	lanesPerWord = 3
	laneValue    = 1<<subscription.MaxBits - 1 // a stored bound
	laneClamp    = 1<<(laneBits-1) - 1         // the largest event value a lane holds below its guard
	guards       = 1<<(laneBits-1) | 1<<(2*laneBits-1) | 1<<(3*laneBits-1)
	maxWords     = (subscription.MaxAttrs + lanesPerWord - 1) / lanesPerWord
)

// packedEvent is an event in the rows' lane layout, guard bits set.
type packedEvent [maxWords]uint64

// lane returns the word and bit offset holding attribute a.
func lane(a int) (word int, shift uint) {
	return a / lanesPerWord, uint(a%lanesPerWord) * laneBits
}

// packEvent lays the event out in lanes. A value wider than MaxBits
// matches no row; clamped below the guard, it cannot spill into the next
// lane and still fails every row's span.
//
//sfc:hotpath
func packEvent(e subscription.Event) packedEvent {
	var p packedEvent
	for w := range p {
		p[w] = guards
	}
	for a, v := range e {
		w, sh := lane(a)
		p[w] |= uint64(min(v, laneClamp)) << sh
	}
	return p
}

// ifaceRows holds the routing-table rows that arrived from one interface.
// An event only asks a group whether any of its rows matches, so the rows
// are unordered and a removal swaps the last row into the hole. Row i's
// packed bounds are lo[i*words:][:words] and span[i*words:][:words]; the
// rectangle itself is the broker's, under the row's handle.
type ifaceRows struct {
	from    iface
	client  *Client  // the receiving client of a client group; nil for a neighbor
	words   int      // packed words a row: ⌈attributes/3⌉
	refs    []int    // per row, references by repeated identical subscribes
	handles []handle // per row, its rectangle
	lo      []uint64
	span    []uint64
}

// matches reports whether any row of the group holds the packed event.
// Schemas of up to three attributes test a row in one word.
//
//sfc:hotpath
func (g *ifaceRows) matches(ev *packedEvent) bool {
	span := g.span[:len(g.lo)]
	if g.words == 1 {
		e := ev[0]
		for i, lo := range g.lo {
			if x := e - lo; x&(span[i]|guards-x&^guards)&guards == guards {
				return true
			}
		}
		return false
	}
rows:
	for r := 0; r < len(g.lo); r += g.words {
		for w, e := range ev[:g.words] {
			if x := e - g.lo[r+w]; x&(span[r+w]|guards-x&^guards)&guards != guards {
				continue rows
			}
		}
		return true
	}
	return false
}

// push appends the row for rectangle key, handle h.
func (g *ifaceRows) push(key subscription.Rect, h handle) {
	n := len(g.lo)
	for range g.words {
		g.lo, g.span = append(g.lo, 0), append(g.span, 0)
	}
	for a := range min(g.words*lanesPerWord, len(key)) {
		w, sh := lane(a)
		lo, hi := uint64(key[a]>>subscription.MaxBits), uint64(key[a]&laneValue)
		g.lo[n+w] |= lo << sh
		g.span[n+w] |= (hi - lo) << sh
	}
	g.refs, g.handles = append(g.refs, 1), append(g.handles, h)
}

// swapRemove deletes row i, moving the last row into its place.
func (g *ifaceRows) swapRemove(i int) {
	last, w := len(g.refs)-1, g.words
	if i != last {
		g.refs[i], g.handles[i] = g.refs[last], g.handles[last]
		copy(g.lo[i*w:(i+1)*w], g.lo[last*w:])
		copy(g.span[i*w:(i+1)*w], g.span[last*w:])
	}
	g.refs, g.handles = g.refs[:last], g.handles[:last]
	g.lo, g.span = g.lo[:last*w], g.span[:last*w]
}

// group returns the index of the given interface's group. Groups exist
// from the moment the interface does (NewNetwork, AttachClient).
func (b *Broker) group(from iface) int {
	for i := range b.table {
		if b.table[i].from == from {
			return i
		}
	}
	return -1
}

// addIface opens the group of a neighbor (c nil) or of client c.
func (b *Broker) addIface(from iface, c *Client) {
	words := (b.net.cfg.Schema.NumAttrs() + lanesPerWord - 1) / lanesPerWord
	b.table = append(b.table, ifaceRows{from: from, client: c, words: words})
}

// addRow takes one reference on h's row in group gi and reports whether
// that created it.
func (b *Broker) addRow(gi int, h handle) bool {
	t, g := &b.rects, &b.table[gi]
	if k := t.placement(h, gi); k >= 0 {
		g.refs[t.rows[h][k].row]++
		return false
	}
	t.rows[h] = append(t.rows[h], rowRef{group: int32(gi), row: int32(len(g.refs))})
	g.push(t.keys[h], h)
	return true
}

// dropRow releases one reference on h's row in group gi and reports
// whether that removed it; found is false when there is no such row.
func (b *Broker) dropRow(gi int, h handle) (removed, found bool) {
	t, g := &b.rects, &b.table[gi]
	k := t.placement(h, gi)
	if k < 0 {
		return false, false
	}
	refs := t.rows[h]
	i := int(refs[k].row)
	if g.refs[i]--; g.refs[i] > 0 {
		return false, true
	}
	refs[k] = refs[len(refs)-1]
	t.rows[h] = refs[:len(refs)-1]
	g.swapRemove(i)
	if i < len(g.handles) { // the last row moved into i
		m := g.handles[i]
		t.rows[m][t.placement(m, gi)].row = int32(i)
	}
	return true, true
}

// suppressedSet is the durable log behind a link's suppressed table
// (providerSource.suppressed); the crash tests wrap it.
type suppressedSet interface {
	Insert(s *subscription.Subscription) (uint64, error)
	Remove(id uint64) error
	Enumerate() (*core.Listing, error)
	Close()
}

// suppressedEntry is one subscription withheld from a link.
type suppressedEntry struct {
	sub        *subscription.Subscription
	sid        uint64 // id in the durable log, if there is one
	by         uint64 // the forwarded id recorded as its cover
	h          handle
	prev, next int32 // neighbors on by's list; -1 past either end
}

// suppressedTable is a link's suppressed entries and, per forwarded id,
// the list of entries recorded under it, threaded through the entries
// from the head heldBy keeps. Entries are unordered: a removal swaps the
// last entry into the hole. Moving an entry between lists touches its
// neighbors and at most one head, and allocates nothing.
type suppressedTable struct {
	rows   []suppressedEntry
	at     []int32              // per rectangle handle, position in rows plus one; 0 = none
	heldBy idtable.Table[int32] // forwarded id -> first entry recorded under it
}

// find returns the position of h's entry, if it has one.
func (t *suppressedTable) find(h handle) (int, bool) {
	return int(t.at[h]) - 1, t.at[h] != 0
}

// add appends an entry recorded under by.
func (t *suppressedTable) add(h handle, s *subscription.Subscription, sid, by uint64) {
	t.rows = append(t.rows, suppressedEntry{h: h, sub: s, sid: sid})
	t.at[h] = int32(len(t.rows))
	t.hold(len(t.rows)-1, by)
}

// hold puts entry i at the head of by's list.
func (t *suppressedTable) hold(i int, by uint64) {
	e := &t.rows[i]
	e.by, e.prev, e.next = by, -1, -1
	if head, ok := t.heldBy.Get(by); ok {
		e.next, t.rows[head].prev = head, int32(i)
	}
	t.heldBy.Put(by, int32(i))
}

// release takes entry i off its coverer's list.
func (t *suppressedTable) release(i int) {
	e := &t.rows[i]
	switch {
	case e.prev >= 0:
		t.rows[e.prev].next = e.next
	case e.next >= 0:
		t.heldBy.Put(e.by, e.next)
	default:
		t.heldBy.Delete(e.by)
	}
	if e.next >= 0 {
		t.rows[e.next].prev = e.prev
	}
}

// remove deletes entry i.
func (t *suppressedTable) remove(i int) {
	t.release(i)
	t.at[t.rows[i].h] = 0
	last := len(t.rows) - 1
	if i != last {
		m := t.rows[last]
		t.rows[i] = m
		t.at[m.h] = int32(i + 1)
		if m.prev >= 0 {
			t.rows[m.prev].next = int32(i)
		} else {
			t.heldBy.Put(m.by, int32(i))
		}
		if m.next >= 0 {
			t.rows[m.next].prev = int32(i)
		}
	}
	t.rows[last] = suppressedEntry{} // drop the subscription reference
	t.rows = t.rows[:last]
}

// neighborState tracks the link state toward one neighbor. fwd holds the
// forwarded set — the covering queries that suppress redundant forwards
// run against it, in the configured mode. sups holds the suppressed set —
// every subscription withheld from this link because a forwarded one
// covered it — and says which: every suppressed entry's recorded coverer is
// a live forwarded-set id whose subscription covers it. A claimed cover is
// genuine in every mode, so the record is exact even when the search is
// approximate, and an unsubscription re-screens exactly the entries
// recorded under the id it retracts (a miss there would lose events; a
// covering miss only costs traffic). Nothing queries the suppressed set,
// so it has no provider: supp is its durable log, nil without
// Config.DataDir — losing the set across a restart would strand every
// suppressed subscription when its cover is later retracted. The coverer
// is not persisted: restoreLinks derives it.
type neighborState struct {
	fwd core.Provider
	// ids holds, per rectangle handle, its fwd provider id plus one, and 0
	// while the rectangle is not forwarded on the link: a Restore can hand
	// a provider id 0, so 0 alone cannot mark "none". Providers mint ids
	// from 1 upward; only an id of 2^64−1, which none reaches, would read
	// as not forwarded, and cost a duplicate forward, never a lost event.
	ids  []uint64
	supp suppressedSet
	sups suppressedTable
	// order and members are resubscribeCovered's scratch: the retracted
	// cover's members, in rectangle order.
	order   []handle
	members []*subscription.Subscription
	// degraded marks a link whose forwarded-set provider may have
	// diverged from the wire — a Remove failed, so the provider (a remote
	// daemon, typically) may still hold a cover whose retraction was
	// already sent. Covering answers from a diverged set cannot be
	// trusted for suppression (a stale cover would suppress subscriptions
	// the neighbor no longer covers — silent event loss), so a degraded
	// link floods: every subscription is forwarded unconditionally.
	degraded bool
}

// fwdID returns the forwarded-set id the link holds for h; ok is false
// while h's rectangle is not forwarded on the link.
func (st *neighborState) fwdID(h handle) (id uint64, ok bool) {
	return st.ids[h] - 1, st.ids[h] != 0
}

// NewNetwork builds the overlay and its per-link covering detectors.
func NewNetwork(topo Topology, cfg Config) (*Network, error) {
	if err := topo.validate(); err != nil {
		return nil, err
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("broker: config needs a schema")
	}
	src, err := newProviderSource(cfg)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg: cfg, src: src, clients: make(map[int]*Client),
		lat: &linkLatency{delivery: obs.NewHistogram(), forward: obs.NewHistogram()},
	}
	n.brokers = make([]*Broker, topo.N)
	for i := range n.brokers {
		n.brokers[i] = &Broker{id: i, net: n, rects: rectTable{index: rectIndex{hash: hashRect}}}
	}
	for _, e := range topo.Edges {
		n.brokers[e[0]].neighbors = append(n.brokers[e[0]].neighbors, e[1])
		n.brokers[e[1]].neighbors = append(n.brokers[e[1]].neighbors, e[0])
	}
	for _, b := range n.brokers {
		slices.Sort(b.neighbors)
		for _, j := range b.neighbors {
			b.addIface(iface{kind: ifNeighbor, id: j}, nil)
			fwd, err := src.forwarded(b.id, j)
			if err != nil {
				n.Close()
				return nil, fmt.Errorf("broker: building provider %d->%d: %w", b.id, j, err)
			}
			supp, err := src.suppressed(b.id, j)
			if err != nil {
				fwd.Close()
				n.Close()
				return nil, fmt.Errorf("broker: building suppressed-set provider %d->%d: %w", b.id, j, err)
			}
			b.out = append(b.out, &neighborState{
				fwd: fwd, supp: supp,
			})
		}
	}
	n.restoreLinks()
	return n, nil
}

// restoreLinks rebuilds what a link derives from its recovered durable
// sets (fresh in-memory providers enumerate empty and remote namespaces
// cannot enumerate, so both leave the link empty). From the forwarded
// set: which rectangle maps to which provider id — otherwise re-arriving
// subscriptions would be re-forwarded (duplicate traffic) and retractions
// could not find their entries — and the rows broker j holds for neighbor
// b, which are, by construction, exactly the forwarded set of the link
// b->j: every subscribe message b ever sent j that was not retracted.
// Client rows are not restored; clients re-attach and re-subscribe after a
// restart, and the recovered forwarded ids absorb those re-subscriptions
// without new forwards — so a rectangle's handle can hold link state and
// no row until they do. From the suppressed log: which forwarded id covers
// each entry, one query each against the recovered forwarded set. An entry
// nothing covers was caught by a crash between its cover's retraction and
// its own re-forward and is forwarded now — after the link's rows were
// derived, so the neighbor meets the subscribe message as a new row and
// screens it onward.
//
// A restored row is screened onward too, once every link is back: a crash
// between b's forwarded-set insert and j's handling of the subscribe
// leaves the row with no state on j's other links, where a re-subscribing
// client would be absorbed upstream as a duplicate and never reach past j.
// Each of j's other links holding nothing for the rectangle screens it as
// handleSubscribe would have; a row j did handle finds state on all of
// them and costs one lookup each. The messages are drained last.
func (n *Network) restoreLinks() {
	type restoredRow struct {
		at *Broker
		gi int
		h  handle
		s  *subscription.Subscription
	}
	var rows []restoredRow
	// held lists a recovered set, forwarded or suppressed; a set that
	// cannot enumerate lists nothing.
	held := func(set suppressedSet) []core.Held {
		out, err := set.Enumerate()
		if err != nil {
			if !errors.Is(err, core.ErrUnsupported) {
				n.metrics.ProtocolErrors++
			}
			return nil
		}
		return out.Held()
	}
	for _, b := range n.brokers {
		for k, j := range b.neighbors {
			st := b.out[k]
			peer := n.brokers[j]
			gi := peer.group(iface{kind: ifNeighbor, id: b.id})
			for _, it := range held(st.fwd) {
				st.ids[b.intern(it.Rect)] = it.ID + 1
				if h := peer.intern(it.Rect); peer.rects.placement(h, gi) < 0 {
					peer.addRow(gi, h)
					rows = append(rows, restoredRow{peer, gi, h, it.Rect.Subscription(n.cfg.Schema)})
				}
			}
			if st.supp == nil {
				continue
			}
			for _, it := range held(st.supp) {
				h := b.intern(it.Rect)
				// A crash between forward's two writes left the rectangle in
				// both sets; forwarding wins here as it does there.
				if st.ids[h] == 0 {
					sub := it.Rect.Subscription(n.cfg.Schema)
					if by, covered, _, err := st.fwd.FindCover(sub); err == nil && covered {
						st.sups.add(h, sub, it.ID, by)
						continue
					}
					b.forward(k, st, h, sub)
				}
				if err := st.supp.Remove(it.ID); err != nil {
					n.metrics.ProtocolErrors++
				}
			}
		}
	}
	for _, r := range rows {
		for k, st := range r.at.out {
			if k != r.gi && st.ids[r.h] == 0 && st.sups.at[r.h] == 0 {
				r.at.forwardIfUncovered(k, r.h, r.s)
			}
		}
	}
	n.Drain()
}

// Snapshot writes a point-in-time snapshot of the network's durable link
// state and compacts the WAL behind it. It is a no-op error on networks
// built without Config.DataDir.
func (n *Network) Snapshot() error {
	if n.src == nil || n.src.store == nil {
		return fmt.Errorf("broker: network has no durable store (Config.DataDir unset)")
	}
	return n.src.store.Snapshot()
}

// DaemonFailoverStats reports the shared daemon connection's lifecycle
// counters (connections lost, reconnects, failovers to another replica).
// The second return is false on networks whose backend is not
// BackendRemote. Harnesses killing a primary mid-run watch Reconnects to
// know when the overlay has re-established its connection and traffic can
// resume without tripping over the corpse of the old one.
func (n *Network) DaemonFailoverStats() (sfcd.FailoverStats, bool) {
	if n.src == nil || n.src.client == nil {
		return sfcd.FailoverStats{}, false
	}
	return n.src.client.FailoverStats(), true
}

// Close releases every per-link provider and, for BackendRemote, the
// shared daemon connection (per-link namespaces are unlinked first, so a
// long-lived shared daemon does not accumulate dead namespaces). With an
// in-process backend and no DataDir, Close holds nothing to release. The
// network must not be used afterwards.
func (n *Network) Close() {
	for _, b := range n.brokers {
		for _, st := range b.out {
			st.fwd.Close()
			if st.supp != nil {
				st.supp.Close()
			}
		}
	}
	if n.src != nil {
		n.src.Close()
	}
}

// MustNetwork is NewNetwork for known-good arguments.
func MustNetwork(topo Topology, cfg Config) *Network {
	n, err := NewNetwork(topo, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// NumBrokers returns the overlay size.
func (n *Network) NumBrokers() int { return len(n.brokers) }

// Metrics returns a snapshot of the aggregate counters.
func (n *Network) Metrics() Metrics { return n.metrics }

// TableRows returns the total number of routing-table entries across all
// brokers — the paper's "size of routing tables".
func (n *Network) TableRows() int {
	total := 0
	for _, b := range n.brokers {
		for i := range b.table {
			total += len(b.table[i].refs)
		}
	}
	return total
}

// ForwardedEntries returns the total size of all per-link forwarded sets.
func (n *Network) ForwardedEntries() int {
	total := 0
	for _, b := range n.brokers {
		for _, st := range b.out {
			total += st.fwd.Len()
		}
	}
	return total
}

// SuppressedEntries returns the total size of all per-link suppressed
// sets — the subscriptions the covering optimization is currently keeping
// off the wire.
func (n *Network) SuppressedEntries() int {
	total := 0
	for _, b := range n.brokers {
		for _, st := range b.out {
			total += len(st.sups.rows)
		}
	}
	return total
}

// CoverTotals sums query counters across every per-link forwarded-set
// provider — every covering query the overlay asks: the suppressed set is
// a table and, with Config.DataDir, a log, and nothing queries it.
func (n *Network) CoverTotals() core.Totals {
	var tot core.Totals
	for _, b := range n.brokers {
		for _, st := range b.out {
			ps := st.fwd.Stats()
			tot.Queries += ps.Queries
			tot.Hits += ps.Hits
			tot.RunsProbed += ps.RunsProbed
			tot.CubesGenerated += ps.CubesGenerated
			for p, n := range ps.PathQueries {
				tot.PathQueries[p] += n
			}
		}
	}
	return tot
}

// AttachClient creates a client on the given broker and returns it.
func (n *Network) AttachClient(brokerID int) (*Client, error) {
	if brokerID < 0 || brokerID >= len(n.brokers) {
		return nil, fmt.Errorf("broker: no broker %d", brokerID)
	}
	c := &Client{ID: n.nextCli, Broker: brokerID}
	n.nextCli++
	n.clients[c.ID] = c
	n.brokers[brokerID].addIface(iface{kind: ifClient, id: c.ID}, c)
	return c, nil
}

// Subscribe registers a subscription for the client and propagates it.
// Call Drain to let the propagation settle.
func (n *Network) Subscribe(clientID int, s *subscription.Subscription) error {
	c, ok := n.clients[clientID]
	if !ok {
		return fmt.Errorf("broker: no client %d", clientID)
	}
	if s.Schema() != n.cfg.Schema {
		return fmt.Errorf("broker: subscription schema differs from network schema")
	}
	s = s.Clone() // the client's record and the payload: read-only from here
	c.subs = append(c.subs, s)
	n.queue = append(n.queue, message{
		to: c.Broker, from: iface{kind: ifClient, id: clientID}, sub: s, kind: msgSubscribe,
	})
	return nil
}

// Unsubscribe withdraws one previously registered identical subscription.
func (n *Network) Unsubscribe(clientID int, s *subscription.Subscription) error {
	c, ok := n.clients[clientID]
	if !ok {
		return fmt.Errorf("broker: no client %d", clientID)
	}
	for i, held := range c.subs {
		if held.Equal(s) {
			c.subs = slices.Delete(c.subs, i, i+1)
			n.queue = append(n.queue, message{
				to: c.Broker, from: iface{kind: ifClient, id: clientID}, sub: held, kind: msgUnsubscribe,
			})
			return nil
		}
	}
	return fmt.Errorf("broker: client %d holds no such subscription", clientID)
}

// Publish injects an event at the client's broker. Matching subscribers —
// including the publisher itself, if subscribed — receive it during Drain.
func (n *Network) Publish(clientID int, e subscription.Event) error {
	c, ok := n.clients[clientID]
	if !ok {
		return fmt.Errorf("broker: no client %d", clientID)
	}
	if len(e) != n.cfg.Schema.NumAttrs() {
		return fmt.Errorf("broker: event has %d attributes, schema needs %d", len(e), n.cfg.Schema.NumAttrs())
	}
	m := message{
		to: c.Broker, from: iface{kind: ifClient, id: clientID},
		event: append(subscription.Event(nil), e...), kind: msgEvent,
	}
	if elect(&n.lat.published) {
		m.at = time.Now()
	}
	n.queue = append(n.queue, m)
	return nil
}

// Drain processes queued messages until the network is quiescent,
// returning the number of messages processed.
func (n *Network) Drain() int {
	// Handlers append while the loop runs; consuming by index and resetting
	// at quiescence keeps one backing array for the network's lifetime.
	for i := 0; i < len(n.queue); i++ {
		m := n.queue[i]
		b := n.brokers[m.to]
		switch m.kind {
		case msgSubscribe:
			b.handleSubscribe(m.from, m.sub)
		case msgUnsubscribe:
			b.handleUnsubscribe(m.from, m.sub)
		case msgEvent:
			b.handleEvent(m.from, m.event, m.at)
		}
	}
	processed := len(n.queue)
	clear(n.queue) // drop the payload references
	n.queue = n.queue[:0]
	return processed
}

// handleSubscribe and handleUnsubscribe hash the message's rectangle once,
// into the broker's handle; everything after works on the handle. A
// neighbor's group index is its link's index, so "every link but the one
// it came from" is every k but gi.
func (b *Broker) handleSubscribe(from iface, s *subscription.Subscription) {
	h, gi := b.intern(s.Rect()), b.group(from)
	if !b.addRow(gi, h) {
		return // forwarding state already reflects this subscription
	}
	for k := range b.out {
		if k != gi {
			b.forwardIfUncovered(k, h, s)
		}
	}
}

// forwardIfUncovered implements the covering optimization on one link: the
// subscription is forwarded unless an already-forwarded subscription covers
// it (or the identical subscription is already forwarded). A suppressed
// subscription is recorded under the cover the query named, so that
// cover's unsubscription finds it again.
func (b *Broker) forwardIfUncovered(k int, h handle, s *subscription.Subscription) {
	st := b.out[k]
	if st.ids[h] != 0 {
		b.net.metrics.DuplicateForwards++
		return
	}
	if st.degraded {
		b.forward(k, st, h, s)
		return
	}
	var t0 time.Time
	timed := elect(&b.net.lat.queried)
	if timed {
		t0 = time.Now()
	}
	by, covered, _, err := st.fwd.FindCover(s)
	if timed {
		b.net.lat.forward.Observe(time.Since(t0))
	}
	if err != nil {
		// Covering detection is unavailable (a remote provider's daemon
		// may be unreachable): degrade to flooding. Forwarding costs only
		// redundant traffic; a subscription that is neither forwarded nor
		// suppressed would silently lose events.
		b.net.metrics.ProtocolErrors++
		b.forward(k, st, h, s)
		return
	}
	if covered {
		b.net.metrics.SuppressedForwards++
		b.suppress(st, h, s, by)
		return
	}
	b.forward(k, st, h, s)
}

// forward inserts s into the link's forwarded set and sends it. Any
// suppressed-set entry for the rectangle is retired with it: in approximate
// mode a later probe can miss the cover that suppressed an earlier
// identical row, and forwarding must win over suppression or a future
// cover removal would re-forward an already-forwarded rectangle. Insert
// first, retire second: a crash between the two writes then leaves the
// rectangle in both durable sets (restoreLinks lets forwarding win again)
// and never in neither.
//
// The subscribe message goes on the wire even if the forwarded-set
// insert fails (again: a remote provider's daemon may be down). The
// failure costs link-state bookkeeping — the eventual unsubscribe will
// find no forwarded id and leave a stale row at the neighbor, harmless
// extra traffic — but never a lost delivery. A re-forward with no table
// row behind it (a re-screened member restored without its client) then
// holds nothing at this broker, and its handle is freed.
func (b *Broker) forward(k int, st *neighborState, h handle, s *subscription.Subscription) {
	id, err := st.fwd.Insert(s)
	if err != nil {
		b.net.metrics.ProtocolErrors++
	} else {
		st.ids[h] = id + 1
	}
	b.dropSuppressed(st, h)
	if err != nil {
		b.release(h)
	}
	b.net.metrics.SubscribeMsgs++
	b.net.enqueue(message{
		to: b.neighbors[k], from: iface{kind: ifNeighbor, id: b.id}, sub: s, kind: msgSubscribe,
	})
}

// suppress records s in the link's suppressed set under by, the forwarded
// id covering it (once per rectangle: identical rows from different
// interfaces share the entry and its first coverer, which is still live).
func (b *Broker) suppress(st *neighborState, h handle, s *subscription.Subscription, by uint64) {
	if st.sups.at[h] != 0 {
		return
	}
	var sid uint64
	if st.supp != nil {
		var err error
		if sid, err = st.supp.Insert(s); err != nil {
			b.net.metrics.ProtocolErrors++
			return
		}
	}
	st.sups.add(h, s, sid, by)
}

// dropSuppressed retires the suppressed-set entry for h, if present. The
// entry goes even when the log write fails — kept, it would sit under a
// coverer that may be dead by now, where no retraction finds it; the log's
// leftover is restoreLinks' to reconcile.
func (b *Broker) dropSuppressed(st *neighborState, h handle) {
	i, ok := st.sups.find(h)
	if !ok {
		return
	}
	if st.supp != nil && st.supp.Remove(st.sups.rows[i].sid) != nil {
		b.net.metrics.ProtocolErrors++
	}
	st.sups.remove(i)
}

func (b *Broker) handleUnsubscribe(from iface, s *subscription.Subscription) {
	h, held := b.rects.lookup(s.Rect())
	if !held {
		b.net.metrics.ProtocolErrors++
		return
	}
	gi := b.group(from)
	removed, found := b.dropRow(gi, h)
	if !found {
		b.net.metrics.ProtocolErrors++
	}
	if !removed {
		return
	}
	for k, st := range b.out {
		// Some other live table row carrying the same rectangle toward
		// this link keeps its state — forwarded or suppressed — justified.
		if k == gi || b.hasOtherSource(h, k) {
			continue
		}
		id, forwarded := st.fwdID(h)
		if !forwarded {
			// The subscription was suppressed on this link: nothing to
			// retract on the wire, but its suppressed-set entry dies with
			// the last table row.
			b.dropSuppressed(st, h)
			continue
		}
		if err := st.fwd.Remove(id); err != nil {
			// The forwarded-set entry may be unreachable (a remote
			// provider's daemon down) or the removal may have been lost
			// in flight; the retraction and the covered-set resubscription
			// below must proceed anyway — skipping them would strand every
			// suppressed subscription this cover was holding back. But the
			// provider may now hold state the wire has retracted, so its
			// covering answers can no longer justify suppression on this
			// link: degrade it to flooding.
			b.net.metrics.ProtocolErrors++
			st.degraded = true
		}
		st.ids[h] = 0
		b.net.metrics.UnsubscribeMsgs++
		b.net.enqueue(message{
			to: b.neighbors[k], from: iface{kind: ifNeighbor, id: b.id}, sub: s, kind: msgUnsubscribe,
		})
		b.resubscribeCovered(k, st, id)
	}
	b.release(h)
}

// resubscribeCovered implements the paper's unsubscription protocol: the
// suppressed subscriptions recorded under the retracted forwarded id are
// re-screened against the remaining forwarded set and re-forwarded
// wherever no other cover remains; one that stays suppressed moves to its
// new cover's list. Only a re-forward writes (forward retires the
// suppressed entry), so a crash anywhere in the pass leaves every
// not-yet-re-forwarded member on record. The probes go through
// CoverQueryBatch in BatchSize chunks, so engine backends answer them on
// their parallel batch path.
//
// The lists are unordered; the re-screen runs in rectangle order —
// numeric on (lo, hi) attribute by attribute, subscription.Rect's word
// order — a total order on rectangles, so the re-forward sequence is
// deterministic across runs and backends.
func (b *Broker) resubscribeCovered(k int, st *neighborState, retracted uint64) {
	head, ok := st.sups.heldBy.Get(retracted)
	if !ok {
		return
	}
	order, members, keys := st.order[:0], st.members[:0], b.rects.keys
	for at := head; at >= 0; at = st.sups.rows[at].next {
		order = append(order, st.sups.rows[at].h)
	}
	slices.SortFunc(order, func(x, y handle) int { return slices.Compare(keys[x][:], keys[y][:]) })
	for _, h := range order {
		at, _ := st.sups.find(h)
		members = append(members, st.sups.rows[at].sub)
	}
	st.order, st.members = order, members
	defer clear(members) // the scratch keeps no subscription alive
	// A degraded link cannot trust the forwarded set's covering answers
	// (a stale cover — possibly the very one being retracted — would
	// re-suppress subscriptions the neighbor no longer covers): flood the
	// members instead of re-screening them.
	if st.degraded {
		for i, h := range order {
			b.forward(k, st, h, members[i])
		}
		return
	}
	batch := b.net.cfg.BatchSize
	if batch <= 0 {
		batch = len(members)
	}
	// Subscriptions re-forwarded earlier in this pass can themselves cover
	// later ones; batch probes cannot see them (they are screened against
	// the forwarded set as of the chunk's start), so re-check directly —
	// exactly, which keeps the suppression justified. A re-forward whose
	// insert failed has no id to record a member under and covers nothing.
	var reforwarded []core.Held
	reforward := func(h handle, sub *subscription.Subscription) {
		b.forward(k, st, h, sub)
		if id, ok := st.fwdID(h); ok {
			reforwarded = append(reforwarded, core.Held{ID: id, Rect: b.rects.keys[h]})
		}
	}
	for lo := 0; lo < len(members); lo += batch {
		chunk := members[lo:min(lo+batch, len(members))]
		for i, res := range st.fwd.CoverQueryBatch(chunk) {
			sub, h := chunk[i], order[lo+i]
			if res.Err != nil {
				// The subscription just lost a cover; leaving it suppressed
				// on an unanswered probe could lose its events forever.
				// With covering state unavailable, forward it — the
				// flooding fallback is always safe.
				b.net.metrics.ProtocolErrors++
				reforward(h, sub)
				continue
			}
			by, covered := res.CoveredBy, res.Covered
			for r := 0; !covered && r < len(reforwarded); r++ {
				by, covered = reforwarded[r].ID, reforwarded[r].Rect.Covers(b.rects.keys[h])
			}
			if !covered {
				reforward(h, sub)
				continue
			}
			b.net.metrics.SuppressedForwards++ // still suppressed, under its new cover
			at, _ := st.sups.find(h)
			st.sups.release(at)
			st.sups.hold(at, by)
		}
	}
}

// hasOtherSource reports whether some other live table row carries the
// rectangle toward link k: any group but k's own.
func (b *Broker) hasOtherSource(h handle, k int) bool {
	n := len(b.rects.rows[h])
	if b.rects.placement(h, k) >= 0 {
		n--
	}
	return n > 0
}

// handleEvent routes an event: every interface with a matching row gets it
// once — the first match per group settles it — except the neighbor it
// came from. The event is packed once, for every group.
//
//sfc:hotpath
func (b *Broker) handleEvent(from iface, e subscription.Event, at time.Time) {
	ev := packEvent(e)
	for gi := range b.table {
		g := &b.table[gi]
		if g.from == from && from.kind == ifNeighbor {
			continue
		}
		if !g.matches(&ev) {
			continue
		}
		if g.client != nil {
			if !at.IsZero() {
				//sfc:allowclock at is stamped on 1 publish in 16 (latencySample): the other deliveries read no clock
				b.net.lat.delivery.Observe(time.Since(at))
			}
			b.net.deliver(g.client, e)
			continue
		}
		b.net.metrics.EventMsgs++
		b.net.enqueue(message{
			to: g.from.id, from: iface{kind: ifNeighbor, id: b.id}, event: e, kind: msgEvent, at: at,
		})
	}
}

// DeliveryLatency returns a snapshot of the overlay's end-to-end event
// delivery latency histogram (publish to client hand-off, across hops).
// It is a sample: only the deliveries of one publish in 16 are observed,
// so its Count is not the delivery count (read Metrics().Deliveries).
// Use obs.Snapshot.Quantile for percentiles and Sub for interval deltas.
func (n *Network) DeliveryLatency() obs.Snapshot { return n.lat.delivery.Snapshot() }

// ForwardLatency returns a snapshot of the per-link covering-query
// latency histogram: the time subscription forwards spend waiting on
// FindCover against the link's forwarded set. It is a sample of one
// forward-path query in 16.
func (n *Network) ForwardLatency() obs.Snapshot { return n.lat.forward.Snapshot() }

// enqueue queues a message for Drain.
func (n *Network) enqueue(m message) { n.queue = append(n.queue, m) }

// deliver hands an event to a client.
func (n *Network) deliver(c *Client, e subscription.Event) {
	c.Received = append(c.Received, append(subscription.Event(nil), e...)) // the client's own copy
	n.metrics.Deliveries++
}
