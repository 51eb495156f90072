package persist

import (
	"cmp"
	"fmt"
	"sync"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/idtable"
	"sfccover/internal/subscription"
)

// DurableProvider makes any core.Provider durable: every write is logged
// to the store's WAL before the wrapped provider applies it, and
// Store.Durable rebuilds the wrapped provider from the recovered dump
// through its Restore. The wrapper mints every id, past every id the
// dir's history ever held (the store's id mark), and applies an add as a
// Restore under the id it logged: one id space in every incarnation,
// recovered, snapshot-installed or promoted.
//
// The wrapped provider alone holds the link's state, and nothing else
// writes to it. Each write is claim → log → apply inside the wrapper's
// write section, the claim ruling out whatever Restore could refuse: a
// write the log refuses was never visible, one it takes applies, and
// Enumerate, snapshots and resets, which read the provider holding
// the section, see exactly the logged state. Close closes the wrapped
// provider and releases the link, handing its state back to the store.
type DurableProvider struct {
	inner core.Provider
	store *Store
	link  string

	// mu is the write section; see Store for the lock order. released
	// is set under it by Release, after which every write is refused.
	mu       sync.Mutex
	released bool
	// next is the id the next write mints, past every id held so far.
	next uint64
	// payload and one are a single add's marshal buffer and Restore
	// argument, reused under mu: neither the log nor the provider keeps
	// them.
	payload []byte
	one     [1]core.Held
}

var _ core.Provider = (*DurableProvider)(nil)

// Durable wraps inner with durability for one link namespace, restoring
// the link's recovered subscriptions into it first and dropping them from
// the store's mirror; it mints past the store's id mark. inner must be
// empty (recovery owns its content), share the store's schema, and not
// already be wrapped for the same link.
func (st *Store) Durable(link string, inner core.Provider) (*DurableProvider, error) {
	if inner.Schema() != st.schema {
		return nil, fmt.Errorf("persist: provider schema differs from store schema")
	}
	if n := inner.Len(); n != 0 {
		return nil, fmt.Errorf("persist: provider holds %d subscriptions the log never recorded", n)
	}
	st.reg.Lock()
	defer st.reg.Unlock()
	d := &DurableProvider{inner: inner, store: st, link: link, next: 1}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrClosed
	}
	if st.wrapped[link] != nil {
		st.mu.Unlock()
		return nil, fmt.Errorf("persist: link %q is already wrapped", link)
	}
	// Registered before the load, so no replicated record can land in the
	// mirror table the load reads; reg keeps every cut reader out until
	// the table has moved into inner.
	st.wrapped[link] = d
	recovered := sortedHeld(st.state[link])
	d.next = st.mark + 1
	st.mu.Unlock()
	if n := len(recovered); n > 0 {
		d.next = max(d.next, recovered[n-1].ID+1)
	}

	//sfc:walok recovery replays records already on disk; appending them again would double the log every boot
	err := inner.Restore(recovered)
	st.mu.Lock()
	if err != nil {
		delete(st.wrapped, link)
	} else {
		delete(st.state, link)
	}
	st.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("persist: restoring link %q: %w", link, err)
	}
	return d, nil
}

// list captures the wrapped provider's held set. Called with d.mu held.
func (d *DurableProvider) list() (*core.Listing, error) {
	l, err := d.inner.Enumerate()
	if err != nil {
		return nil, fmt.Errorf("persist: enumerating link %q: %w", d.link, err)
	}
	return l, nil
}

// usable refuses a write once the link is released. Called with d.mu held.
func (d *DurableProvider) usable() error {
	if d.released {
		return fmt.Errorf("%w: durable link %q was released", core.ErrProviderClosed, d.link)
	}
	return nil
}

// apply is every write's logged load, its claim made: held's ids are
// minted (next moves past them, logged or not), its add records land
// through one append, and the wrapped provider Restores it. Called with
// d.mu held.
func (d *DurableProvider) apply(held []core.Held) error {
	if len(held) == 0 {
		return nil
	}
	var rec [1]record
	var end [1]int
	rs, arena, ends := rec[:], d.payload[:0], end[:]
	if len(held) > 1 {
		rs, arena, ends = make([]record, len(held)), make([]byte, 0, 16*len(held)), make([]int, len(held))
	}
	for i := range held {
		arena = held[i].Rect.AppendBinary(arena, d.Schema())
		ends[i] = len(arena)
		d.next = max(d.next, held[i].ID+1)
	}
	if len(held) == 1 {
		d.payload = arena
	}
	start := 0
	for i := range held { // sliced only now: the arena moves as it grows
		rs[i] = record{op: opAdd, link: d.link, sid: held[i].ID, payload: arena[start:ends[i]:ends[i]]}
		start = ends[i]
	}
	if err := d.store.appendBatch(rs); err != nil {
		return err
	}
	return d.inner.Restore(held)
}

// Add is the arrival path: the covering query on the wrapped provider
// (which refuses a foreign schema), then a minted id, logged and applied.
func (d *DurableProvider) Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return 0, false, 0, err
	}
	if coveredBy, covered, _, err = d.inner.FindCover(s); err != nil {
		return 0, false, 0, err
	}
	d.one[0] = core.Held{ID: d.next, Rect: s.Rect()}
	if err := d.apply(d.one[:]); err != nil {
		return 0, false, 0, err
	}
	return d.one[0].ID, covered, coveredBy, nil
}

// Insert stores s unconditionally: InsertBatch of one.
func (d *DurableProvider) Insert(s *subscription.Subscription) (uint64, error) {
	ids, err := d.InsertBatch([]*subscription.Subscription{s})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Remove deletes a subscription by id, claim → log → apply: the wrapped
// provider must hold the id, so racing removes have one winner, and a
// failed log write leaves the subscription held. (A crash between log and
// apply loses only an unacknowledged removal, which recovery completes.)
func (d *DurableProvider) Remove(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return err
	}
	if !d.inner.Holds(id) {
		return fmt.Errorf("persist: no subscription with id %d", id)
	}
	if err := d.store.appendRemove(d.link, id); err != nil {
		return err
	}
	return d.inner.Remove(id)
}

// FindCover searches the wrapped provider.
func (d *DurableProvider) FindCover(s *subscription.Subscription) (uint64, bool, dominance.Stats, error) {
	return d.inner.FindCover(s)
}

// CoverQueryBatch runs the batch on the wrapped provider.
func (d *DurableProvider) CoverQueryBatch(subs []*subscription.Subscription) []core.QueryResult {
	return d.inner.CoverQueryBatch(subs)
}

// AddBatch is Add for a batch: the covering queries run as one batch on
// the wrapped provider, then the answered items' minted ids land through
// one log write and one Restore. The log write is all-or-nothing: a
// failure applies nothing and occupies every answered slot.
func (d *DurableProvider) AddBatch(subs []*subscription.Subscription) []core.AddResult {
	out := make([]core.AddResult, len(subs))
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	held := make([]core.Held, 0, len(subs))
	for i, r := range d.inner.CoverQueryBatch(subs) {
		if out[i].QueryResult = r; r.Err == nil {
			out[i].ID = d.next + uint64(len(held))
			held = append(held, core.Held{ID: out[i].ID, Rect: subs[i].Rect()})
		}
	}
	if err := d.apply(held); err != nil {
		for i := range out {
			if out[i].Err == nil {
				out[i] = core.AddResult{QueryResult: core.QueryResult{Err: err}}
			}
		}
	}
	return out
}

// InsertBatch is the durable bulk load: the whole batch, under minted
// ids, lands through one log write and then one Restore of the wrapped
// provider. All-or-nothing: a foreign schema or a failed log write leaves
// the wrapped provider as it was.
func (d *DurableProvider) InsertBatch(subs []*subscription.Subscription) ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return nil, err
	}
	held, ids := make([]core.Held, len(subs)), make([]uint64, len(subs))
	for i, s := range subs {
		if s.Schema() != d.Schema() {
			return nil, fmt.Errorf("persist: subscription schema differs from the provider's")
		}
		ids[i] = d.next + uint64(i)
		held[i] = core.Held{ID: ids[i], Rect: s.Rect()}
	}
	if err := d.apply(held); err != nil {
		return nil, err
	}
	return ids, nil
}

// Restore loads held under the ids it names beside what the link holds,
// logged first like every write; later writes mint past its ids. The
// claim refuses a released link, an id named twice or a rectangle outside
// the schema (core.CheckHeld), and an id the wrapped provider holds, which
// only an id below next can be.
func (d *DurableProvider) Restore(held []core.Held) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := cmp.Or(d.usable(), core.CheckHeld(d.Schema(), held)); err != nil {
		return err
	}
	for _, h := range held {
		if h.ID < d.next && d.inner.Holds(h.ID) {
			return fmt.Errorf("persist: Restore names id %d, which link %q holds", h.ID, d.link)
		}
	}
	return d.apply(held)
}

// RemoveBatch is Remove for a batch, errors aligned with ids: inside the
// write section every id the wrapped provider holds is claimed — once,
// however often the batch names it — and the claimed removals land
// through one log write before the provider drops anything; an unheld
// id, or a failed write, occupies its slots and applies nothing.
func (d *DurableProvider) RemoveBatch(ids []uint64) []error {
	out := make([]error, len(ids))
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		for i := range out {
			out[i] = err
		}
		return out
	}
	batch, logged := make([]record, 0, len(ids)), make([]uint64, 0, len(ids))
	slots := make([]int, 0, len(ids))
	var claimed idtable.Table[struct{}]
	for i, id := range ids {
		if _, dup := claimed.Get(id); dup || !d.inner.Holds(id) {
			out[i] = fmt.Errorf("persist: no subscription with id %d", id)
			continue
		}
		claimed.Put(id, struct{}{})
		batch = append(batch, record{op: opRem, link: d.link, sid: id})
		logged, slots = append(logged, id), append(slots, i)
	}
	if err := d.store.appendBatch(batch); err != nil {
		for _, i := range slots {
			out[i] = err
		}
		return out
	}
	for k, err := range d.inner.RemoveBatch(logged) {
		out[slots[k]] = err
	}
	return out
}

// Snapshot snapshots the whole store (all links — the log is shared, so
// compaction is all-or-nothing).
func (d *DurableProvider) Snapshot() error { return d.store.Snapshot() }

// Enumerate implements core.Provider: the wrapped provider's held set,
// captured inside the write section so it is exactly the logged set.
func (d *DurableProvider) Enumerate() (*core.Listing, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inner.Enumerate()
}

// Subscribed is one held subscription, built out, with its id.
type Subscribed struct {
	ID  uint64
	Sub *subscription.Subscription
}

// Subscriptions is Enumerate without the error, each rectangle built into
// a subscription, for wrapped providers whose Enumerate cannot fail (the
// Detector and the Engine).
func (d *DurableProvider) Subscriptions() []Subscribed {
	l, err := d.Enumerate()
	if err != nil {
		return nil
	}
	out := make([]Subscribed, 0, l.Len())
	for id, r := range l.All() {
		out = append(out, Subscribed{ID: id, Sub: r.Subscription(d.Schema())})
	}
	return out
}

// Subscription resolves an id to its held subscription.
func (d *DurableProvider) Subscription(id uint64) (*subscription.Subscription, bool) {
	return d.inner.Subscription(id)
}

// Holds reports whether the wrapped provider holds id.
func (d *DurableProvider) Holds(id uint64) bool { return d.inner.Holds(id) }

// Len returns the number of held subscriptions.
func (d *DurableProvider) Len() int { return d.inner.Len() }

// Schema returns the wrapped provider's schema.
func (d *DurableProvider) Schema() *subscription.Schema { return d.inner.Schema() }

// Stats returns the wrapped provider's snapshot with the store's
// durability counters folded in. The counters are store-wide — the log
// and its snapshots are shared by every link in the data dir.
func (d *DurableProvider) Stats() core.ProviderStats {
	ps := d.inner.Stats()
	ss := d.store.logStats()
	ps.Snapshots, ps.WALRecords, ps.WALBytes = ss.Snapshots, ss.WALRecords, ss.WALBytes
	ps.SnapshotHold, ps.SnapshotTime = ss.SnapshotHold, ss.SnapshotTime
	return ps
}

// Close releases the link, then closes the wrapped provider. The store
// stays open; close it separately.
func (d *DurableProvider) Close() {
	d.Release()
	d.inner.Close()
}

// Release detaches the wrapper from its store link without closing the
// wrapped provider — for owners whose provider outlives the wrapper (the
// daemon server does not own its engine). The provider's held set goes
// back into the store's mirror, so later snapshots still carry the link
// and a later Durable restores it; writes through the wrapper are refused
// from then on. Idempotent. A wrapped provider whose Enumerate fails (one
// across a wire) keeps the link wrapped: its state is nowhere else, and
// the store's snapshots report the failure rather than drop the link.
func (d *DurableProvider) Release() {
	st := d.store
	st.reg.Lock()
	defer st.reg.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.released {
		return
	}
	d.released = true
	l, err := d.list()
	if err != nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.wrapped, d.link)
	for sid, r := range l.All() {
		st.state.put(d.link, sid, r)
	}
}
