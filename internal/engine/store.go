package engine

import (
	"fmt"
	"sync"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/obs"
	"sfccover/internal/subscription"
)

// stripe is one slice of the subscription store: a subscription goes to
// the stripe of the index slice that owns its key when it arrives. Its
// held set keeps each subscription by value under its engine id: where
// the curve's keys fit one word, the Z key the index files it under, and
// the packed rectangle on wider universes (core.HeldSet).
type stripe struct {
	mu   sync.Mutex
	held core.HeldSet
	next uint64 // next local id, starting at 1
}

// initStore builds the index and the store stripes from the normalized
// detector template (whose MaxCubes already uses the dominance convention:
// 0 = unlimited).
func (e *Engine) initStore(det core.Config) error {
	schema, shards := det.Schema, e.cfg.Shards
	cfg := dominance.Config{Dims: schema.Dims(), Bits: schema.Bits(), MaxCubes: det.MaxCubes}
	var err error
	if e.idx, err = dominance.NewSharded(cfg, shards); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	e.linear = det.Strategy == core.StrategyLinear
	e.stores = make([]stripe, shards)
	e.sizes = make([]int, shards)
	for i := range e.stores {
		e.stores[i].held = core.NewHeldSet(schema, e.idx.Curve())
		e.stores[i].next = 1
	}
	return nil
}

// Len returns the total number of held subscriptions.
func (e *Engine) Len() int {
	n := 0
	for i := range e.stores {
		st := &e.stores[i]
		st.mu.Lock()
		n += st.held.Len()
		st.mu.Unlock()
	}
	return n
}

// Enumerate implements core.Provider: a copy of every stripe's held keys
// (or rectangles) with their ids, taken with every stripe lock held (in
// stripe order, as Restore takes them) so the listing is one instant's
// held set. Sorting and decoding wait for the listing's reads, outside
// the locks.
func (e *Engine) Enumerate() (*core.Listing, error) {
	e.lockStripes(nil)
	defer e.unlockStripes(nil)
	n := 0
	for i := range e.stores {
		n += e.stores[i].held.Len()
	}
	l := core.NewListing(n)
	for i := range e.stores {
		e.stores[i].held.CopyTo(l)
	}
	return l, nil
}

// Snapshot implements core.Provider: an engine has no durable store (wrap
// it in a persist.DurableProvider for one).
func (e *Engine) Snapshot() error {
	return fmt.Errorf("%w: engine has no durable store", core.ErrUnsupported)
}

// ShardSizes returns the per-shard subscription counts, for balance
// diagnostics. These are the INDEX slice occupancies, not the store
// stripe sizes: the index slices are what queries probe and what
// rebalancing moves, so they are the layout skew diagnostics must
// observe. (Store stripes are assigned at insert time and never migrate —
// an id encodes its stripe — so after a rebalance the two layouts diverge
// by design.)
func (e *Engine) ShardSizes() []int { return e.idx.ShardSizes() }

// insert mints an id in the stripe of the slice s's key routes to, then
// places s under it: the key is encoded and routed once for both.
func (e *Engine) insert(s *subscription.Subscription) uint64 {
	loc := e.idx.Locate(s.Point())
	st := &e.stores[loc.Slice]
	st.mu.Lock()
	id := encodeID(len(e.stores), loc.Slice, st.next)
	e.place(st, id, st.next, loc, st.held.RectOf(s))
	st.mu.Unlock()
	e.inserted(1)
	return id
}

// place is the one-item write insert and a one-item Restore share: r is
// held in st, whose lock is held, under id, whose local part is local, id
// is indexed at loc, its key routed, and st mints past local from then on.
func (e *Engine) place(st *stripe, id, local uint64, loc dominance.Location, r subscription.Rect) {
	st.held.Hold(id, loc.Key.LowWord(), r)
	st.next = max(st.next, local+1)
	e.idx.InsertAt(loc, id)
}

// load mints ids for subs and bulk-loads them under those ids: the seam
// InsertBatch and AddBatch share. Each key is computed once, and the
// batch is sorted by (key, position) and cut at the slice boundaries
// before any lock is taken. Each slice's share is then minted, held and
// indexed under its own stripe's lock alone, the shares in parallel (run);
// the lock order (stripe, then slice) is insert's, so the paths cannot
// deadlock. A stripe mints its share's ids in input order, as
// single inserts would have, so the ids of equal keys ascend along the
// sorted run and the share is in the (key, id) order the index loads. The
// returned ids align with subs.
//
// A batch entering an empty engine is what decides the slice layout: the
// index places its boundaries at the quantiles of the batch's keys before
// the batch is cut, so the batch — and every later insert — finds an even
// table. Restore loads the same way under the ids it is given.
func (e *Engine) load(subs []*subscription.Subscription) []uint64 {
	w, shards := e.idx.KeyStride(), len(e.stores)
	keys := make([]uint64, 0, len(subs)*w)
	for _, s := range subs {
		keys = e.idx.AppendKey(keys, s.Point())
	}
	e.idx.ChooseBoundaries(keys)
	order := make([]uint64, len(subs))
	for i := range order {
		order[i] = uint64(i)
	}
	sorted, order := dominance.SortBatch(keys, w, order)
	cut := e.idx.Cut(sorted)
	// rank[i] is first the stripe of subs[i], then its place in input
	// order among the stripe's share.
	rank := make([]uint64, len(subs))
	for s := range shards {
		for _, i := range order[cut[s]:cut[s+1]] {
			rank[i] = uint64(s)
		}
	}
	seen := make([]uint64, shards)
	for i, s := range rank {
		rank[i] = seen[s]
		seen[s]++
	}
	ids := make([]uint64, len(subs))
	run(shards, func(s int) {
		lo, hi := cut[s], cut[s+1]
		if lo == hi {
			return
		}
		st := &e.stores[s]
		st.mu.Lock()
		defer st.mu.Unlock()
		st.held.Grow(hi - lo)
		base := st.next
		st.next += uint64(hi - lo)
		for j := lo; j < hi; j++ {
			i := order[j]
			id := encodeID(shards, s, base+rank[i])
			ids[i], order[j] = id, id
			st.held.Hold(id, sorted[j*w], st.held.RectOf(subs[i]))
		}
		e.idx.InsertSorted(sorted[lo*w:hi*w], order[lo:hi])
	})
	e.inserted(len(subs))
	return ids
}

// lockStripes locks every stripe, or with share non-nil those with a
// share, in stripe order: the order every holder of several stripes takes
// them in. unlockStripes releases the same.
func (e *Engine) lockStripes(share []int) {
	for i := range e.stores {
		if share == nil || share[i] > 0 {
			e.stores[i].mu.Lock()
		}
	}
}

func (e *Engine) unlockStripes(share []int) {
	for i := range e.stores {
		if share == nil || share[i] > 0 {
			e.stores[i].mu.Unlock()
		}
	}
}

// Restore implements core.Provider, loading as load does under the ids
// it is given: each key is computed once from its rectangle and the batch
// sorted before any lock is taken. A given id is held in the stripe it
// decodes to, whatever slice owns its key. Only those stripes are locked,
// from the check that they hold none of the ids to the last insert: a
// write minting in one of them waits and then mints past the given ids,
// and one in any other stripe mints ids no given one decodes to. A
// one-item load is insert's place under the given id (restoreOne).
func (e *Engine) Restore(held []core.Held) error {
	if len(held) != 1 && e.insertBatchLat.elect(len(held)) {
		defer e.insertBatchLat.since(time.Now())
	}
	if err := core.CheckHeld(e.schema, held); err != nil {
		return err
	}
	if e.closed.Load() {
		return core.ErrProviderClosed
	}
	if len(held) == 1 {
		return e.restoreOne(&held[0])
	}
	w, shards := e.idx.KeyStride(), len(e.stores)
	keys := make([]uint64, 0, len(held)*w)
	ids := make([]uint64, len(held))
	share := make([]int, shards)
	var buf [2 * subscription.MaxAttrs]uint32
	for i, h := range held {
		keys = e.idx.AppendKey(keys, h.Rect.PointInto(e.schema, buf[:]))
		ids[i] = h.ID
		s, _ := decodeID(shards, h.ID)
		share[s]++
	}
	sorted, sortedIDs := dominance.SortBatch(keys, w, ids)
	e.lockStripes(share)
	defer e.unlockStripes(share)
	occupied := false // a bulk load into empty stripes checks no id
	for s, n := range share {
		occupied = occupied || n > 0 && e.stores[s].held.Len() > 0
	}
	for i := 0; occupied && i < len(ids); i++ {
		if s, _ := decodeID(shards, ids[i]); e.stores[s].held.Holds(ids[i]) {
			return fmt.Errorf("engine: Restore names id %d, which the engine holds", ids[i])
		}
	}
	e.idx.ChooseBoundaries(keys)
	for s, n := range share {
		if n > 0 { // a stripe with no share is not locked
			e.stores[s].held.Grow(n)
		}
	}
	for i, id := range ids {
		s, local := decodeID(shards, id)
		st := &e.stores[s]
		st.held.Hold(id, keys[i*w], held[i].Rect)
		st.next = max(st.next, local+1)
	}
	cut := e.idx.Cut(sorted)
	run(shards, func(s int) {
		e.idx.InsertSorted(sorted[cut[s]*w:cut[s+1]*w], sortedIDs[cut[s]:cut[s+1]])
	})
	e.inserted(len(ids))
	return nil
}

// restoreOne is a one-item Restore: insert's place under the given id, in
// the stripe it decodes to. It takes that stripe's lock alone, allocates
// nothing, starts no goroutine and, like the insert of an Add, is not
// timed and leaves the slice layout to the rebalancer.
func (e *Engine) restoreOne(h *core.Held) error {
	var buf [2 * subscription.MaxAttrs]uint32
	loc := e.idx.Locate(h.Rect.PointInto(e.schema, buf[:]))
	s, local := decodeID(len(e.stores), h.ID)
	st := &e.stores[s]
	st.mu.Lock()
	if local < st.next && st.held.Holds(h.ID) { // the stripe holds no local past next
		st.mu.Unlock()
		return fmt.Errorf("engine: Restore names id %d, which the engine holds", h.ID)
	}
	e.place(st, h.ID, local, loc, h.Rect)
	st.mu.Unlock()
	e.inserted(1)
	return nil
}

// remove drops id from its stripe and deletes it from the index at the
// key the stripe held it under: the held word itself routed on one-word
// universes, the held rectangle's point encoded on wider ones.
func (e *Engine) remove(id uint64) error {
	shard, _ := decodeID(len(e.stores), id)
	st := &e.stores[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	var buf [2 * subscription.MaxAttrs]uint32
	k, p, ok := st.held.Release(id, buf[:])
	if !ok {
		return fmt.Errorf("engine: no subscription with id %d", id)
	}
	var loc dominance.Location
	if p == nil {
		loc = e.idx.LocateWord(k)
	} else {
		loc = e.idx.Locate(p)
	}
	if !e.idx.DeleteAt(loc, id) {
		return fmt.Errorf("engine: index out of sync for id %d", id)
	}
	return nil
}

// Subscription returns the held subscription with the given engine id.
func (e *Engine) Subscription(id uint64) (*subscription.Subscription, bool) {
	shard, _ := decodeID(len(e.stores), id)
	st := &e.stores[shard]
	st.mu.Lock()
	r, ok := st.held.Rect(id)
	st.mu.Unlock()
	if !ok {
		return nil, false
	}
	return r.Subscription(e.schema), true
}

// Holds reports whether id names a held subscription: one probe of its
// stripe's slot, which a Remove of the same id finds warm.
func (e *Engine) Holds(id uint64) bool {
	shard, _ := decodeID(len(e.stores), id)
	st := &e.stores[shard]
	st.mu.Lock()
	ok := st.held.Holds(id)
	st.mu.Unlock()
	return ok
}

// searchCover runs one covering search into res, which the caller hands
// over zeroed, and returns the number of per-shard searches issued; the
// ids it writes are engine ids because that is what the index stores. A
// non-nil trace collects the decomposition/probe stage timings and
// per-slice probe counts inside the sharded index.
//
//sfc:hotpath
func (e *Engine) searchCover(s *subscription.Subscription, tr *obs.QueryTrace, res *QueryResult) int {
	det := &e.cfg.Detector
	switch {
	case det.Mode == core.ModeOff:
		return 0
	case e.linear:
		return e.scan(s, res)
	case det.Mode == core.ModeExact:
		return e.query(s.Point(), 0, tr, res)
	default: // ModeApprox
		return e.query(s.Point(), det.Epsilon, tr, res)
	}
}

// scan answers an exact query without the index by walking the store
// stripes one lock at a time: the smallest id of a held subscription that
// covers s. Ids interleave across the stripes, so every stripe is walked
// and counted. Every stripe's held set has the one form, so the first
// encodes s's key for all of them.
func (e *Engine) scan(s *subscription.Subscription, res *QueryResult) int {
	q, qk := s.Rect(), e.stores[0].held.Key(s.Point())
	for i := range e.stores {
		st := &e.stores[i]
		st.mu.Lock()
		if id, ok := st.held.MinCover(q, qk); ok && (!res.Covered || id < res.CoveredBy) {
			res.Covered, res.CoveredBy = true, id
		}
		st.mu.Unlock()
	}
	return len(e.stores)
}

// query runs the index search into res, whose Stats the search writes in
// place.
//
//sfc:hotpath
func (e *Engine) query(p []uint32, eps float64, tr *obs.QueryTrace, res *QueryResult) int {
	res.CoveredBy, res.Covered, res.Err = e.idx.QueryInto(p, eps, tr, &res.Stats)
	if res.Err != nil {
		return 0
	}
	return 1
}
