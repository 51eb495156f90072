package persist

import (
	"fmt"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
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
// Snapshot and Enumerate (the durable dump) are answered from the store.
// Close closes the wrapped provider and releases the link for
// re-wrapping; the Store is closed separately by its owner.
type DurableProvider struct {
	inner core.Provider
	store *Store
	link  string
}

var _ core.Provider = (*DurableProvider)(nil)

// Durable wraps inner with durability for one link namespace, restoring
// the link's recovered subscriptions into it first. inner must be empty
// (recovery owns its content), share the store's schema, and not already
// be wrapped for the same link.
func (st *Store) Durable(link string, inner core.Provider) (*DurableProvider, error) {
	if inner.Schema() != st.schema {
		return nil, fmt.Errorf("persist: provider schema differs from store schema")
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrClosed
	}
	if st.wrapped[link] {
		st.mu.Unlock()
		return nil, fmt.Errorf("persist: link %q is already wrapped", link)
	}
	st.wrapped[link] = true
	st.mu.Unlock()

	d := &DurableProvider{inner: inner, store: st, link: link}
	if err := d.load(); err != nil {
		d.Release()
		return nil, err
	}
	return d, nil
}

// load rebuilds inner from the link's durable dump through its Restore,
// which holds every subscription under its durable id — and, run even
// with nothing to recover, is what refuses a non-empty inner, whose
// pre-existing subscriptions would never be persisted.
//
//sfc:walok recovery replays records already on disk; appending them again would double the log every boot
func (d *DurableProvider) load() error {
	held, err := d.Enumerate()
	if err != nil {
		return err
	}
	if err := d.inner.Restore(held); err != nil {
		return fmt.Errorf("persist: restoring link %q: %w", d.link, err)
	}
	return nil
}

// logAdd persists one arrival, rolling the insert back out of the inner
// provider when the log rejects it so memory never runs ahead of disk.
func (d *DurableProvider) logAdd(id uint64, s *subscription.Subscription) error {
	payload, err := s.MarshalBinary()
	if err == nil {
		err = d.store.appendAdd(d.link, id, payload)
	}
	if err != nil {
		d.inner.Remove(id) //nolint:errcheck // best-effort rollback of our own insert
	}
	return err
}

// Add runs the arrival path on the wrapped provider and logs the insert.
func (d *DurableProvider) Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error) {
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
	id, err := d.inner.Insert(s)
	if err == nil {
		err = d.logAdd(id, s)
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Remove deletes a subscription by id, claim → log → apply: the store
// refuses an id the link's durable set does not hold and logs the removal
// in one critical section, so racing removes have one winner and a failed
// log write (disk full, closed store) leaves memory and durable state
// agreeing that the subscription is held; only then does the wrapped
// provider drop it. (A crash between log and apply loses only an
// unacknowledged removal, which recovery completes.)
func (d *DurableProvider) Remove(id uint64) error {
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

// RemoveBatch is Remove for a batch: the store claims every id the link
// holds and lands their records through one log write before the wrapped
// provider drops anything; an unheld id, or a failed write, occupies its
// slots and applies nothing.
func (d *DurableProvider) RemoveBatch(ids []uint64) []error {
	out := d.store.appendRemoves(d.link, ids)
	logged := make([]uint64, 0, len(ids))
	slots := make([]int, 0, len(ids))
	for i, err := range out {
		if err == nil {
			logged = append(logged, ids[i])
			slots = append(slots, i)
		}
	}
	for k, err := range d.inner.RemoveBatch(logged) {
		out[slots[k]] = err
	}
	return out
}

// Snapshot snapshots the whole store (all links — the log is shared, so
// compaction is all-or-nothing).
func (d *DurableProvider) Snapshot() error { return d.store.Snapshot() }

// Enumerate implements core.Provider: the link's durable set from the
// store's mirror, sorted by id.
func (d *DurableProvider) Enumerate() ([]core.Held, error) {
	entries := d.store.Entries(d.link) // already sid-sorted
	out := make([]core.Held, len(entries))
	for i, e := range entries {
		s, err := subscription.UnmarshalSubscription(d.inner.Schema(), e.Payload)
		if err != nil {
			return nil, fmt.Errorf("%w: link %q sid %d payload does not decode: %v", ErrCorrupt, d.link, e.SID, err)
		}
		out[i] = core.Held{ID: e.SID, Sub: s}
	}
	return out, nil
}

// Subscriptions is Enumerate without the error: every payload decoded
// when the link was loaded.
func (d *DurableProvider) Subscriptions() []core.Held {
	out, _ := d.Enumerate()
	return out
}

// Subscription resolves an id to its held subscription.
func (d *DurableProvider) Subscription(id uint64) (*subscription.Subscription, bool) {
	return d.inner.Subscription(id)
}

// Len returns the number of held subscriptions.
func (d *DurableProvider) Len() int { return d.inner.Len() }

// Mode returns the wrapped provider's detection mode.
func (d *DurableProvider) Mode() core.Mode { return d.inner.Mode() }

// Schema returns the wrapped provider's schema.
func (d *DurableProvider) Schema() *subscription.Schema { return d.inner.Schema() }

// Stats returns the wrapped provider's snapshot with the store's
// durability counters folded in. The counters are store-wide — the log
// and its snapshots are shared by every link in the data dir.
func (d *DurableProvider) Stats() core.ProviderStats {
	ps := d.inner.Stats()
	ss := d.store.Stats()
	ps.Snapshots = ss.Snapshots
	ps.WALRecords = ss.WALRecords
	ps.WALBytes = ss.WALBytes
	return ps
}

// Close closes the wrapped provider and releases the link name for
// re-wrapping. The store stays open; close it separately.
func (d *DurableProvider) Close() {
	d.inner.Close()
	d.Release()
}

// Release detaches the wrapper from its store link without closing the
// wrapped provider — for owners whose provider outlives the wrapper (the
// daemon server does not own its engine).
func (d *DurableProvider) Release() {
	d.store.mu.Lock()
	delete(d.store.wrapped, d.link)
	d.store.mu.Unlock()
}
