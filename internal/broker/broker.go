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
	// sfcd daemon. Networks with engine backends own worker pools and
	// remote-backed networks own a daemon connection; call Close when
	// done.
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
	// including the per-link id maps, restored from the recovered
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
// subscription is copied once at Subscribe/Unsubscribe, an event once at
// Publish and once more into each receiving Client, never per link.
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
	// neighbors in id order, then clients in attachment order. Events walk
	// it in that order, so forwarding order is fixed.
	table []ifaceRows
	// sources counts, per rectangle, the interfaces holding a row for it.
	sources map[rectKey]int
	out     map[int]*neighborState // per neighbor
}

// rectKey is a subscription's constraint rectangle as a comparable value:
// attribute i's bounds packed lo<<MaxBits | hi (a schema admits at most
// MaxAttrs attributes of at most MaxBits bits, so nothing is lost); slots
// past the schema's attributes stay zero.
type rectKey [subscription.MaxAttrs]uint32

func keyOf(s *subscription.Subscription) rectKey {
	var k rectKey
	for i := 0; i < s.Schema().NumAttrs(); i++ {
		r := s.Range(i)
		k[i] = r.Lo<<subscription.MaxBits | r.Hi
	}
	return k
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
// rectangle itself is not stored again, keyAt decodes it.
type ifaceRows struct {
	from   iface
	client *Client // the receiving client of a client group; nil for a neighbor
	words  int     // packed words a row: ⌈attributes/3⌉
	refs   []int   // per row, references by repeated identical subscribes
	lo     []uint64
	span   []uint64
	at     map[rectKey]int // rectangle -> row position
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

// push appends the row for key.
func (g *ifaceRows) push(key rectKey) {
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
	g.refs = append(g.refs, 1)
}

// keyAt decodes row i's rectangle from its packed bounds.
func (g *ifaceRows) keyAt(i int) rectKey {
	var k rectKey
	for a := range min(g.words*lanesPerWord, len(k)) {
		w, sh := lane(a)
		lo := uint32(g.lo[i*g.words+w]>>sh) & laneValue
		hi := lo + uint32(g.span[i*g.words+w]>>sh)&laneValue
		k[a] = lo<<subscription.MaxBits | hi
	}
	return k
}

// swapRemove deletes row i, moving the last row into its place.
func (g *ifaceRows) swapRemove(i int) {
	last, w := len(g.refs)-1, g.words
	if i != last {
		g.refs[i] = g.refs[last]
		copy(g.lo[i*w:(i+1)*w], g.lo[last*w:])
		copy(g.span[i*w:(i+1)*w], g.span[last*w:])
		g.at[g.keyAt(i)] = i
	}
	g.refs, g.lo, g.span = g.refs[:last], g.lo[:last*w], g.span[:last*w]
}

// rowsFrom returns the group of the given interface. Groups exist from
// the moment the interface does (NewNetwork, AttachClient).
func (b *Broker) rowsFrom(from iface) *ifaceRows {
	for i := range b.table {
		if b.table[i].from == from {
			return &b.table[i]
		}
	}
	return nil
}

// addIface opens the group of a neighbor (c nil) or of client c.
func (b *Broker) addIface(from iface, c *Client) {
	words := (b.net.cfg.Schema.NumAttrs() + lanesPerWord - 1) / lanesPerWord
	b.table = append(b.table, ifaceRows{from: from, client: c, words: words, at: make(map[rectKey]int)})
}

// addRow takes one reference on the row (key, from) and reports whether
// that created it.
func (b *Broker) addRow(from iface, key rectKey) bool {
	g := b.rowsFrom(from)
	if i, ok := g.at[key]; ok {
		g.refs[i]++
		return false
	}
	g.at[key] = len(g.refs)
	g.push(key)
	b.sources[key]++
	return true
}

// dropRow releases one reference on the row (key, from) and reports
// whether that removed it; found is false when there is no such row.
func (b *Broker) dropRow(from iface, key rectKey) (removed, found bool) {
	g := b.rowsFrom(from)
	i, found := g.at[key]
	if !found {
		return false, false
	}
	if g.refs[i]--; g.refs[i] > 0 {
		return false, true
	}
	delete(g.at, key)
	g.swapRemove(i)
	if b.sources[key]--; b.sources[key] == 0 {
		delete(b.sources, key)
	}
	return true, true
}

// suppressedSet is the durable log behind a link's suppressed table
// (providerSource.suppressed); the crash tests wrap it.
type suppressedSet interface {
	Insert(s *subscription.Subscription) (uint64, error)
	Remove(id uint64) error
	Enumerate() ([]core.Held, error)
	Close()
}

// suppressedEntry is one subscription withheld from a link.
type suppressedEntry struct {
	key rectKey
	sub *subscription.Subscription
	sid uint64 // id in the durable log, if there is one
	by  uint64 // the forwarded id recorded as its cover
	pos int    // position in heldBy[by]
}

// suppressedTable is a link's suppressed entries and, per forwarded id,
// the entries recorded under it. Both are unordered: a removal swaps the
// last element into the hole.
type suppressedTable struct {
	rows   []suppressedEntry
	at     map[rectKey]int  // rectangle -> position in rows
	heldBy map[uint64][]int // forwarded id -> positions in rows
}

// add appends an entry recorded under by.
func (t *suppressedTable) add(key rectKey, s *subscription.Subscription, sid, by uint64) {
	t.at[key] = len(t.rows)
	t.rows = append(t.rows, suppressedEntry{key: key, sub: s, sid: sid})
	t.hold(len(t.rows)-1, by)
}

// hold puts entry i on by's list.
func (t *suppressedTable) hold(i int, by uint64) {
	list := t.heldBy[by]
	t.rows[i].by, t.rows[i].pos = by, len(list)
	t.heldBy[by] = append(list, i)
}

// release takes entry i off its coverer's list.
func (t *suppressedTable) release(i int) {
	e := &t.rows[i]
	list := t.heldBy[e.by]
	last := len(list) - 1
	list[e.pos] = list[last]
	t.rows[list[e.pos]].pos = e.pos
	if last == 0 {
		delete(t.heldBy, e.by)
		return
	}
	t.heldBy[e.by] = list[:last]
}

// remove deletes entry i.
func (t *suppressedTable) remove(i int) {
	t.release(i)
	delete(t.at, t.rows[i].key)
	last := len(t.rows) - 1
	if i != last {
		m := t.rows[last]
		t.rows[i] = m
		t.at[m.key] = i
		t.heldBy[m.by][m.pos] = i
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
	fwd  core.Provider
	ids  map[rectKey]uint64 // rectangle -> fwd provider id
	supp suppressedSet
	sups suppressedTable
	// degraded marks a link whose forwarded-set provider may have
	// diverged from the wire — a Remove failed, so the provider (a remote
	// daemon, typically) may still hold a cover whose retraction was
	// already sent. Covering answers from a diverged set cannot be
	// trusted for suppression (a stale cover would suppress subscriptions
	// the neighbor no longer covers — silent event loss), so a degraded
	// link floods: every subscription is forwarded unconditionally.
	degraded bool
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
		n.brokers[i] = &Broker{
			id:      i,
			net:     n,
			sources: make(map[rectKey]int),
			out:     make(map[int]*neighborState),
		}
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
			st := &neighborState{
				fwd: fwd, ids: make(map[rectKey]uint64), supp: supp,
				sups: suppressedTable{at: make(map[rectKey]int), heldBy: make(map[uint64][]int)},
			}
			b.out[j] = st
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
// restart, and the recovered id maps absorb those re-subscriptions without
// new forwards. From the suppressed log: which forwarded id covers each
// entry, one query each against the recovered forwarded set. An entry
// nothing covers was caught by a crash between its cover's retraction and
// its own re-forward and is forwarded now — after the link's rows were
// derived, so the neighbor meets the subscribe message as a new row and
// screens it onward — and the messages are drained once every link is
// back.
func (n *Network) restoreLinks() {
	// held lists a recovered set, forwarded or suppressed; a set that
	// cannot enumerate lists nothing.
	held := func(set suppressedSet) []core.Held {
		out, err := set.Enumerate()
		if err != nil && !errors.Is(err, core.ErrUnsupported) {
			n.metrics.ProtocolErrors++
		}
		return out
	}
	for _, b := range n.brokers {
		for _, j := range b.neighbors {
			st := b.out[j]
			from := iface{kind: ifNeighbor, id: b.id}
			for _, it := range held(st.fwd) {
				key := keyOf(it.Sub)
				st.ids[key] = it.ID
				if _, exists := n.brokers[j].rowsFrom(from).at[key]; !exists {
					n.brokers[j].addRow(from, key)
				}
			}
			if st.supp == nil {
				continue
			}
			for _, it := range held(st.supp) {
				key := keyOf(it.Sub)
				// A crash between forward's two writes left the rectangle in
				// both sets; forwarding wins here as it does there.
				if _, forwarded := st.ids[key]; !forwarded {
					if by, covered, _, err := st.fwd.FindCover(it.Sub); err == nil && covered {
						st.sups.add(key, it.Sub, it.ID, by)
						continue
					}
					b.forward(j, st, key, it.Sub)
				}
				if err := st.supp.Remove(it.ID); err != nil {
					n.metrics.ProtocolErrors++
				}
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
// long-lived shared daemon does not accumulate dead namespaces). Engine
// backends own worker pools, so networks built with them must be closed;
// with the default detector backend Close is a cheap no-op. The network
// must not be used afterwards.
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
// provider (the suppressed-set providers' exact bookkeeping queries are
// not included).
func (n *Network) CoverTotals() core.Totals {
	var tot core.Totals
	for _, b := range n.brokers {
		for _, j := range b.neighbors {
			ps := b.out[j].fwd.Stats()
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
	c.subs = append(c.subs, s.Clone())
	n.queue = append(n.queue, message{
		to: c.Broker, from: iface{kind: ifClient, id: clientID}, sub: s.Clone(), kind: msgSubscribe,
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
			c.subs = append(c.subs[:i], c.subs[i+1:]...)
			n.queue = append(n.queue, message{
				to: c.Broker, from: iface{kind: ifClient, id: clientID}, sub: s.Clone(), kind: msgUnsubscribe,
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

func (b *Broker) handleSubscribe(from iface, s *subscription.Subscription) {
	key := keyOf(s)
	if !b.addRow(from, key) {
		return // forwarding state already reflects this subscription
	}
	for _, j := range b.neighbors {
		if from.kind == ifNeighbor && from.id == j {
			continue
		}
		b.forwardIfUncovered(j, key, s)
	}
}

// forwardIfUncovered implements the covering optimization on one link: the
// subscription is forwarded unless an already-forwarded subscription covers
// it (or the identical subscription is already forwarded). A suppressed
// subscription is recorded under the cover the query named, so that
// cover's unsubscription finds it again.
func (b *Broker) forwardIfUncovered(j int, key rectKey, s *subscription.Subscription) {
	st := b.out[j]
	if _, dup := st.ids[key]; dup {
		b.net.metrics.DuplicateForwards++
		return
	}
	if st.degraded {
		b.forward(j, st, key, s)
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
		b.forward(j, st, key, s)
		return
	}
	if covered {
		b.net.metrics.SuppressedForwards++
		b.suppress(st, key, s, by)
		return
	}
	b.forward(j, st, key, s)
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
// extra traffic — but never a lost delivery.
func (b *Broker) forward(j int, st *neighborState, key rectKey, s *subscription.Subscription) {
	id, err := st.fwd.Insert(s)
	if err != nil {
		b.net.metrics.ProtocolErrors++
	} else {
		st.ids[key] = id
	}
	b.dropSuppressed(st, key)
	b.net.metrics.SubscribeMsgs++
	b.net.enqueue(message{
		to: j, from: iface{kind: ifNeighbor, id: b.id}, sub: s, kind: msgSubscribe,
	})
}

// suppress records s in the link's suppressed set under by, the forwarded
// id covering it (once per rectangle: identical rows from different
// interfaces share the entry and its first coverer, which is still live).
func (b *Broker) suppress(st *neighborState, key rectKey, s *subscription.Subscription, by uint64) {
	if _, ok := st.sups.at[key]; ok {
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
	st.sups.add(key, s, sid, by)
}

// dropSuppressed retires the suppressed-set entry for key, if present. The
// entry goes even when the log write fails — kept, it would sit under a
// coverer that may be dead by now, where no retraction finds it; the log's
// leftover is restoreLinks' to reconcile.
func (b *Broker) dropSuppressed(st *neighborState, key rectKey) {
	i, ok := st.sups.at[key]
	if !ok {
		return
	}
	if st.supp != nil && st.supp.Remove(st.sups.rows[i].sid) != nil {
		b.net.metrics.ProtocolErrors++
	}
	st.sups.remove(i)
}

func (b *Broker) handleUnsubscribe(from iface, s *subscription.Subscription) {
	key := keyOf(s)
	removed, found := b.dropRow(from, key)
	if !found {
		b.net.metrics.ProtocolErrors++
	}
	if !removed {
		return
	}
	for _, j := range b.neighbors {
		if from.kind == ifNeighbor && from.id == j {
			continue
		}
		// Some other live table row carrying the same rectangle toward j
		// keeps the link state — forwarded or suppressed — justified.
		if b.hasOtherSource(key, j) {
			continue
		}
		st := b.out[j]
		id, forwarded := st.ids[key]
		if !forwarded {
			// The subscription was suppressed on this link: nothing to
			// retract on the wire, but its suppressed-set entry dies with
			// the last table row.
			b.dropSuppressed(st, key)
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
		delete(st.ids, key)
		b.net.metrics.UnsubscribeMsgs++
		b.net.enqueue(message{
			to: j, from: iface{kind: ifNeighbor, id: b.id}, sub: s, kind: msgUnsubscribe,
		})
		b.resubscribeCovered(j, st, id)
	}
}

// resubscribeCovered implements the paper's unsubscription protocol: the
// suppressed subscriptions recorded under the retracted forwarded id are
// re-screened against the remaining forwarded set and re-forwarded
// wherever no other cover remains; one that stays suppressed moves to its
// new cover's list. Only a re-forward writes (forward retires the
// suppressed entry), so a crash anywhere in the pass leaves every
// not-yet-re-forwarded member on record. The probes go through
// CoverQueryBatch in BatchSize chunks, so engine backends answer them on
// their batch path.
//
// The lists are unordered; the re-screen runs in rectangle order — numeric
// on (lo, hi) attribute by attribute, rectKey's word order — a total order
// on rectangles, so the re-forward sequence is deterministic across runs
// and backends.
func (b *Broker) resubscribeCovered(j int, st *neighborState, retracted uint64) {
	held := st.sups.heldBy[retracted]
	if len(held) == 0 {
		return
	}
	keys := make([]rectKey, len(held))
	for i, at := range held {
		keys[i] = st.sups.rows[at].key
	}
	slices.SortFunc(keys, func(x, y rectKey) int { return slices.Compare(x[:], y[:]) })
	members := make([]*subscription.Subscription, len(keys))
	for i, key := range keys {
		members[i] = st.sups.rows[st.sups.at[key]].sub
	}
	// A degraded link cannot trust the forwarded set's covering answers
	// (a stale cover — possibly the very one being retracted — would
	// re-suppress subscriptions the neighbor no longer covers): flood the
	// members instead of re-screening them.
	if st.degraded {
		for i, key := range keys {
			b.forward(j, st, key, members[i])
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
	reforward := func(key rectKey, sub *subscription.Subscription) {
		b.forward(j, st, key, sub)
		if id, ok := st.ids[key]; ok {
			reforwarded = append(reforwarded, core.Held{ID: id, Sub: sub})
		}
	}
	for lo := 0; lo < len(members); lo += batch {
		chunk := members[lo:min(lo+batch, len(members))]
		for i, res := range st.fwd.CoverQueryBatch(chunk) {
			sub, key := chunk[i], keys[lo+i]
			if res.Err != nil {
				// The subscription just lost a cover; leaving it suppressed
				// on an unanswered probe could lose its events forever.
				// With covering state unavailable, forward it — the
				// flooding fallback is always safe.
				b.net.metrics.ProtocolErrors++
				reforward(key, sub)
				continue
			}
			by, covered := res.CoveredBy, res.Covered
			for k := 0; !covered && k < len(reforwarded); k++ {
				by, covered = reforwarded[k].ID, reforwarded[k].Sub.Covers(sub)
			}
			if !covered {
				reforward(key, sub)
				continue
			}
			b.net.metrics.SuppressedForwards++ // still suppressed, under its new cover
			at := st.sups.at[key]
			st.sups.release(at)
			st.sups.hold(at, by)
		}
	}
}

// hasOtherSource reports whether some other live table row carries the same
// subscription rectangle toward neighbor j: any interface but j itself.
func (b *Broker) hasOtherSource(key rectKey, j int) bool {
	n := b.sources[key]
	if _, own := b.rowsFrom(iface{kind: ifNeighbor, id: j}).at[key]; own {
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
