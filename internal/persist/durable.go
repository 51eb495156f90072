package persist

import (
	"fmt"
	"sync"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/idtable"
	"sfccover/internal/subscription"
)

// DurableProvider makes any core.Provider durable: every add and remove
// is logged to the store's WAL before the call returns, and construction
// (Store.Durable) rebuilds the wrapped provider from the recovered
// subscription dump through its Restore. There is one id space: a
// subscription is logged under the id the wrapped provider holds it
// under, in this incarnation and in every recovered, snapshot-installed
// or promoted one, so queries and Subscription pass straight through.
//
// The wrapped provider holds the link's state; the store keeps no copy
// while the link is wrapped. Each write runs its provider op and its log
// append inside the wrapper's write section, so Enumerate, and the
// store's snapshots and reset dumps, which read the provider holding the
// section, see exactly the logged state. Close closes the wrapped
// provider and releases the link, handing its state back to the store;
// the Store is closed separately by its owner.
type DurableProvider struct {
	inner core.Provider
	store *Store
	link  string

	// mu is the write section; see Store for the lock order. released
	// is set under it by Release, after which every write is refused.
	mu       sync.Mutex
	released bool
	// payload is logAdd's marshal buffer, reused under mu: the log copies
	// the record's bytes and keeps no payload of a wrapped link.
	payload []byte
}

var _ core.Provider = (*DurableProvider)(nil)

// Durable wraps inner with durability for one link namespace, restoring
// the link's recovered subscriptions into it first and dropping them from
// the store's mirror. inner must be empty (recovery owns its content),
// share the store's schema, and not already be wrapped for the same link.
func (st *Store) Durable(link string, inner core.Provider) (*DurableProvider, error) {
	if inner.Schema() != st.schema {
		return nil, fmt.Errorf("persist: provider schema differs from store schema")
	}
	st.reg.Lock()
	defer st.reg.Unlock()
	d := &DurableProvider{inner: inner, store: st, link: link}
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
	recovered := st.state[link]
	st.mu.Unlock()

	// Restore holds every recovered subscription under its durable id —
	// and, run even with nothing to recover, is what refuses a non-empty
	// inner, whose pre-existing subscriptions would never be persisted.
	//sfc:walok recovery replays records already on disk; appending them again would double the log every boot
	err := inner.Restore(sortedHeld(recovered))
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

// usable refuses a write once the link is released. Called with d.mu
// held.
func (d *DurableProvider) usable() error {
	if d.released {
		return fmt.Errorf("%w: durable link %q was released", core.ErrProviderClosed, d.link)
	}
	return nil
}

// logAdd persists one arrival, rolling the insert back out of the inner
// provider when the log rejects it so memory never runs ahead of disk.
// Called with d.mu held.
func (d *DurableProvider) logAdd(id uint64, s *subscription.Subscription) error {
	var err error
	d.payload, err = s.AppendBinary(d.payload[:0])
	if err == nil {
		err = d.store.appendAdd(d.link, id, d.payload)
	}
	if err != nil {
		d.inner.Remove(id) //nolint:errcheck // best-effort rollback of our own insert
	}
	return err
}

// Add runs the arrival path on the wrapped provider and logs the insert.
func (d *DurableProvider) Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return 0, false, 0, err
	}
	id, covered, coveredBy, err = d.inner.Add(s)
	if err == nil {
		err = d.logAdd(id, s)
	}
	if err != nil {
		return 0, false, 0, err
	}
	return id, covered, coveredBy, nil
}

// Insert stores s unconditionally and logs it.
func (d *DurableProvider) Insert(s *subscription.Subscription) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return 0, err
	}
	id, err := d.inner.Insert(s)
	if err == nil {
		err = d.logAdd(id, s)
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Remove deletes a subscription by id, claim → log → apply, all inside the
// write section: the wrapped provider must hold the id, the removal is
// logged, and only then does the provider drop it. So racing removes have
// one winner, and a failed log write (disk full, closed store) leaves
// memory and durable state agreeing that the subscription is held. (A
// crash between log and apply loses only an unacknowledged removal, which
// recovery completes.)
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

// AddBatch runs the arrival path as one batch on the wrapped provider,
// then the whole batch's add records
// land through one log write (one lock acquisition, one copy — the
// same amortization the engine's shard-grouped insert buys in memory).
// The log write is all-or-nothing: a failure rolls every batch insert
// back out of the wrapped provider and occupies every slot.
func (d *DurableProvider) AddBatch(subs []*subscription.Subscription) []core.AddResult {
	// One arena for the batch's payloads, encoded before the provider is
	// touched so a failure has nothing to roll back; the few slots the
	// provider then refuses were encoded for nothing and are never logged.
	payloads, err := subscription.MarshalBatch(subs)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		err = d.usable()
	}
	if err != nil {
		out := make([]core.AddResult, len(subs))
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	out := d.inner.AddBatch(subs)
	batch := make([]record, 0, len(out))
	for i := range out {
		if out[i].Err == nil {
			batch = append(batch, record{op: opAdd, link: d.link, sid: out[i].ID, payload: payloads[i]})
		}
	}
	if err := d.store.appendBatch(batch); err != nil {
		for i := range out {
			if out[i].Err == nil {
				d.inner.Remove(out[i].ID) //nolint:errcheck // best-effort rollback of our own insert
				out[i] = core.AddResult{QueryResult: core.QueryResult{Err: err}}
			}
		}
	}
	return out
}

// InsertBatch is the durable bulk load: the whole batch lands in the
// wrapped provider through its own InsertBatch and then through one log
// write, the same amortization AddBatch buys. All-or-nothing: a marshal,
// insert, or log failure leaves the wrapped provider as it was.
func (d *DurableProvider) InsertBatch(subs []*subscription.Subscription) ([]uint64, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	payloads, err := subscription.MarshalBatch(subs)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return nil, err
	}
	ids, err := d.inner.InsertBatch(subs)
	if err != nil {
		return nil, err
	}
	batch := make([]record, len(subs))
	for i, id := range ids {
		batch[i] = record{op: opAdd, link: d.link, sid: id, payload: payloads[i]}
	}
	if err := d.store.appendBatch(batch); err != nil {
		for _, id := range ids {
			d.inner.Remove(id) //nolint:errcheck // best-effort rollback of our own insert
		}
		return nil, err
	}
	return ids, nil
}

// Restore is refused: a durable provider's content is its log's, loaded
// when Store.Durable wraps it; an unlogged way in would put memory ahead
// of disk.
func (d *DurableProvider) Restore([]core.Held) error {
	return fmt.Errorf("%w: a durable provider is restored from its own log by Store.Durable", core.ErrUnsupported)
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
	batch := make([]record, 0, len(ids))
	slots := make([]int, 0, len(ids))
	var claimed idtable.Table[struct{}]
	for i, id := range ids {
		if _, dup := claimed.Get(id); dup || !d.inner.Holds(id) {
			out[i] = fmt.Errorf("persist: no subscription with id %d", id)
			continue
		}
		claimed.Put(id, struct{}{})
		batch = append(batch, record{op: opRem, link: d.link, sid: id})
		slots = append(slots, i)
	}
	if err := d.store.appendBatch(batch); err != nil {
		for _, i := range slots {
			out[i] = err
		}
		return out
	}
	logged := make([]uint64, len(batch))
	for k, r := range batch {
		logged[k] = r.sid
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
	ps.Snapshots = ss.Snapshots
	ps.WALRecords = ss.WALRecords
	ps.WALBytes = ss.WALBytes
	ps.SnapshotHold = ss.SnapshotHold
	ps.SnapshotTime = ss.SnapshotTime
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
