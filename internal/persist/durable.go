package persist

import (
	"fmt"
	"sync"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
)

// DurableProvider makes any core.Provider durable: every add and remove
// is logged to the store's WAL before the call returns, and construction
// (Store.Durable) rebuilds the wrapped provider from the recovered
// subscription dump via the bulk-load path. The wrapper owns the id
// space callers see — durable sids, stable across restarts — and maps
// them to whatever ids the wrapped provider assigns in this incarnation,
// so a recovered provider answers FindCover/FindCovered with the same
// sids the pre-crash one did.
//
// A DurableProvider forwards the wrapped provider's batch queries and
// writes with id translation at the boundary, and answers Snapshot and
// Enumerate (the recovered dump) from the store. Close closes the wrapped
// provider and releases the link for re-wrapping; the Store is closed
// separately by its owner.
type DurableProvider struct {
	inner core.Provider
	store *Store
	link  string

	mu      sync.Mutex
	toInner map[uint64]uint64 // durable sid -> inner id
	toOuter map[uint64]uint64 // inner id -> durable sid
	nextSID uint64
}

var _ core.Provider = (*DurableProvider)(nil)

// Durable wraps inner with durability for one link namespace, bulk-loading
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

	d := &DurableProvider{
		inner:   inner,
		store:   st,
		link:    link,
		toInner: make(map[uint64]uint64),
		toOuter: make(map[uint64]uint64),
		nextSID: 1,
	}
	if err := d.load(); err != nil {
		st.mu.Lock()
		delete(st.wrapped, link)
		st.mu.Unlock()
		return nil, err
	}
	return d, nil
}

// load rebuilds inner from the link's recovered entries: payloads decode
// against the schema, the sorted dump feeds the provider's bulk-load
// path, and the sid maps are seeded.
//
//sfc:walok recovery replays records already on disk; appending them again would double the log every boot
func (d *DurableProvider) load() error {
	if d.inner.Len() != 0 {
		// Enforced even with nothing to recover: pre-existing
		// subscriptions would have no sid mappings (covers silently
		// suppressed) and would never be persisted.
		return fmt.Errorf("persist: wrapping link %q needs an empty provider, got %d held subscriptions", d.link, d.inner.Len())
	}
	entries := d.store.Entries(d.link)
	if len(entries) == 0 {
		return nil
	}
	subs := make([]*subscription.Subscription, len(entries))
	for i, e := range entries {
		s, err := subscription.UnmarshalSubscription(d.inner.Schema(), e.Payload)
		if err != nil {
			return fmt.Errorf("%w: link %q sid %d payload does not decode: %v", ErrCorrupt, d.link, e.SID, err)
		}
		subs[i] = s
	}
	ids, err := d.inner.InsertBatch(subs)
	if err != nil {
		return fmt.Errorf("persist: bulk-loading link %q: %w", d.link, err)
	}
	for i, e := range entries {
		d.toInner[e.SID] = ids[i]
		d.toOuter[ids[i]] = e.SID
		if e.SID >= d.nextSID {
			d.nextSID = e.SID + 1
		}
	}
	return nil
}

// Link returns the provider's namespace in the store.
func (d *DurableProvider) Link() string { return d.link }

// Store returns the backing store.
func (d *DurableProvider) Store() *Store { return d.store }

// assign claims the next durable sid for an inner id.
func (d *DurableProvider) assign(innerID uint64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	sid := d.nextSID
	d.nextSID++
	d.toInner[sid] = innerID
	d.toOuter[innerID] = sid
	return sid
}

// unmap drops a sid's translation entries.
func (d *DurableProvider) unmap(sid uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if innerID, ok := d.toInner[sid]; ok {
		delete(d.toInner, sid)
		delete(d.toOuter, innerID)
	}
}

// outer translates an inner id to its durable sid. A hit that raced a
// concurrent removal translates to a miss — the serialization where the
// removal came first.
func (d *DurableProvider) outer(innerID uint64, found bool) (uint64, bool) {
	if !found {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sid, ok := d.toOuter[innerID]
	return sid, ok
}

// logAdd persists one arrival, rolling the insert back out of the inner
// provider when the log rejects it so memory never runs ahead of disk.
func (d *DurableProvider) logAdd(sid, innerID uint64, s *subscription.Subscription) error {
	payload, err := s.MarshalBinary()
	if err == nil {
		err = d.store.appendAdd(d.link, sid, payload)
	}
	if err != nil {
		d.unmap(sid)
		d.inner.Remove(innerID) //nolint:errcheck // best-effort rollback of our own insert
		return err
	}
	return nil
}

// Add runs the arrival path on the wrapped provider and logs the insert.
func (d *DurableProvider) Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error) {
	innerID, covered, coveredByInner, err := d.inner.Add(s)
	if err != nil {
		return 0, false, 0, err
	}
	sid := d.assign(innerID)
	if err := d.logAdd(sid, innerID, s); err != nil {
		return 0, false, 0, err
	}
	coveredSID, ok := d.outer(coveredByInner, covered)
	return sid, ok, coveredSID, nil
}

// Insert stores s unconditionally and logs it.
func (d *DurableProvider) Insert(s *subscription.Subscription) (uint64, error) {
	innerID, err := d.inner.Insert(s)
	if err != nil {
		return 0, err
	}
	sid := d.assign(innerID)
	if err := d.logAdd(sid, innerID, s); err != nil {
		return 0, err
	}
	return sid, nil
}

// Remove deletes a subscription by durable sid: the sid is claimed out
// of the id maps, the removal is logged, and only then does the wrapped
// provider drop it — so a failed log write (disk full, closed store)
// restores the claim and leaves memory and durable state agreeing that
// the subscription is still held. (A crash between log and apply loses
// only an unacknowledged removal, which recovery completes.)
func (d *DurableProvider) Remove(sid uint64) error {
	d.mu.Lock()
	innerID, ok := d.toInner[sid]
	if ok {
		delete(d.toInner, sid)
		delete(d.toOuter, innerID)
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("persist: no subscription with id %d", sid)
	}
	if err := d.store.appendRemove(d.link, sid); err != nil {
		d.mu.Lock()
		d.toInner[sid] = innerID
		d.toOuter[innerID] = sid
		d.mu.Unlock()
		return err
	}
	return d.inner.Remove(innerID)
}

// FindCover searches the wrapped provider, translating the answer to its
// durable sid.
func (d *DurableProvider) FindCover(s *subscription.Subscription) (id uint64, found bool, stats dominance.Stats, err error) {
	innerID, found, stats, err := d.inner.FindCover(s)
	if err != nil {
		return 0, false, stats, err
	}
	sid, ok := d.outer(innerID, found)
	return sid, ok, stats, nil
}

// FindCovered searches the wrapped provider for a subscription s covers.
func (d *DurableProvider) FindCovered(s *subscription.Subscription) (id uint64, found bool, stats dominance.Stats, err error) {
	innerID, found, stats, err := d.inner.FindCovered(s)
	if err != nil {
		return 0, false, stats, err
	}
	sid, ok := d.outer(innerID, found)
	return sid, ok, stats, nil
}

// CoverQueryBatch runs the batch on the wrapped provider, translating ids.
func (d *DurableProvider) CoverQueryBatch(subs []*subscription.Subscription) []core.QueryResult {
	out := d.inner.CoverQueryBatch(subs)
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		out[i].CoveredBy, out[i].Covered = d.outer(out[i].CoveredBy, out[i].Covered)
	}
	return out
}

// AddBatch runs the arrival path as one batch on the wrapped provider,
// then the whole batch's add records
// land through one log write (one lock acquisition, one syscall — the
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
	type pending struct {
		slot    int
		sid     uint64
		innerID uint64
	}
	var pendings []pending
	var batch []record
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		sid := d.assign(out[i].ID)
		pendings = append(pendings, pending{slot: i, sid: sid, innerID: out[i].ID})
		batch = append(batch, record{op: opAdd, link: d.link, sid: sid, payload: payloads[i]})
	}
	if err := d.store.appendBatch(batch); err != nil {
		for _, p := range pendings {
			d.unmap(p.sid)
			d.inner.Remove(p.innerID) //nolint:errcheck // best-effort rollback of our own insert
			out[p.slot] = core.AddResult{QueryResult: core.QueryResult{Err: err}}
		}
		return out
	}
	for _, p := range pendings {
		out[p.slot].ID = p.sid
		out[p.slot].CoveredBy, out[p.slot].Covered = d.outer(out[p.slot].CoveredBy, out[p.slot].Covered)
	}
	return out
}

// InsertBatch is the bulk load over durable sids: the whole batch lands
// in the wrapped provider through its own InsertBatch and then through
// one log write, the same amortization AddBatch buys. All-or-nothing: a
// marshal, insert, or log failure leaves the wrapped provider as it was.
func (d *DurableProvider) InsertBatch(subs []*subscription.Subscription) ([]uint64, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	payloads, err := subscription.MarshalBatch(subs)
	if err != nil {
		return nil, err
	}
	innerIDs, err := d.inner.InsertBatch(subs)
	if err != nil {
		return nil, err
	}
	sids := make([]uint64, len(subs))
	batch := make([]record, len(subs))
	for i, innerID := range innerIDs {
		sids[i] = d.assign(innerID)
		batch[i] = record{op: opAdd, link: d.link, sid: sids[i], payload: payloads[i]}
	}
	if err := d.store.appendBatch(batch); err != nil {
		for i, sid := range sids {
			d.unmap(sid)
			d.inner.Remove(innerIDs[i]) //nolint:errcheck // best-effort rollback of our own insert
		}
		return nil, err
	}
	return sids, nil
}

// RemoveBatch deletes a batch of durable sids with the
// same claim → log → apply ordering as Remove: the batch's remove
// records land through one log write before the wrapped provider drops
// anything, and a failed log write restores every claim.
func (d *DurableProvider) RemoveBatch(sids []uint64) []error {
	out := make([]error, len(sids))
	innerIDs := make([]uint64, 0, len(sids))
	slots := make([]int, 0, len(sids))
	batch := make([]record, 0, len(sids))
	d.mu.Lock()
	for i, sid := range sids {
		if innerID, ok := d.toInner[sid]; ok {
			delete(d.toInner, sid)
			delete(d.toOuter, innerID)
			innerIDs = append(innerIDs, innerID)
			slots = append(slots, i)
			batch = append(batch, record{op: opRem, link: d.link, sid: sid})
		} else {
			out[i] = fmt.Errorf("persist: no subscription with id %d", sid)
		}
	}
	d.mu.Unlock()
	if err := d.store.appendBatch(batch); err != nil {
		d.mu.Lock()
		for k, i := range slots {
			d.toInner[sids[i]] = innerIDs[k]
			d.toOuter[innerIDs[k]] = sids[i]
			out[i] = err
		}
		d.mu.Unlock()
		return out
	}
	errs := d.inner.RemoveBatch(innerIDs)
	for k, i := range slots {
		if errs[k] != nil {
			out[i] = errs[k]
		}
	}
	return out
}

// Snapshot snapshots the whole store (all links — the log is shared, so
// compaction is all-or-nothing).
func (d *DurableProvider) Snapshot() error { return d.store.Snapshot() }

// Enumerate implements core.Provider with Subscriptions.
func (d *DurableProvider) Enumerate() ([]core.Held, error) { return d.Subscriptions(), nil }

// Subscriptions lists the link's durable set from the store's mirror,
// sorted by sid — Enumerate without the error, which a store-backed dump
// cannot produce.
func (d *DurableProvider) Subscriptions() []core.Held {
	entries := d.store.Entries(d.link)
	out := make([]core.Held, 0, len(entries))
	for _, e := range entries { // Entries is already sid-sorted
		s, err := subscription.UnmarshalSubscription(d.inner.Schema(), e.Payload)
		if err != nil {
			continue // the payload decoded at load time; cannot happen
		}
		out = append(out, core.Held{ID: e.SID, Sub: s})
	}
	return out
}

// Subscription resolves a durable sid to its held subscription.
func (d *DurableProvider) Subscription(sid uint64) (*subscription.Subscription, bool) {
	d.mu.Lock()
	innerID, ok := d.toInner[sid]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return d.inner.Subscription(innerID)
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

// Purge logs the removal of every subscription the link holds — the
// durable side of a namespace teardown, so a purged namespace does not
// resurrect on the next boot. The whole purge lands through one log
// write, all-or-nothing. The wrapped provider is not touched.
func (d *DurableProvider) Purge() error {
	entries := d.store.Entries(d.link)
	batch := make([]record, len(entries))
	for i, e := range entries {
		batch[i] = record{op: opRem, link: d.link, sid: e.SID}
	}
	if err := d.store.appendBatch(batch); err != nil {
		return err
	}
	for _, e := range entries {
		d.unmap(e.SID)
	}
	return nil
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
