package engine

import (
	"fmt"
	"sync"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/idtable"
	"sfccover/internal/obs"
	"sfccover/internal/sfc"
	"sfccover/internal/subscription"
)

// stripe is one slice of the subscription store: a subscription goes to
// the stripe of the index slice that owns its key when it arrives. It
// holds a value, never the caller's subscription, so nothing the caller
// does to it afterwards reaches the store. Where the curve's keys fit one
// word that value is the subscription's Z key, the word the index files
// it under: Point is a bijection onto the universe's cells and KeyWord
// one onto the words, so the key is the subscription, 8 bytes where its
// rectangle takes 32. Wider universes hold the packed rectangle. An
// engine fills one of the two tables, chosen once by its universe.
type stripe struct {
	mu    sync.Mutex
	keys  idtable.Table[uint64]            // keyed by engine id, on one-word universes
	rects idtable.Table[subscription.Rect] // keyed by engine id, on wider ones
	next  uint64                           // next local id, starting at 1
}

// len returns the number of subscriptions the stripe holds.
func (st *stripe) len() int { return st.keys.Len() + st.rects.Len() }

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
	if cfg.WordKeys() {
		e.wordCurve = e.idx.Curve()
	}
	e.linear = det.Strategy == core.StrategyLinear
	e.stores = make([]stripe, shards)
	e.sizes = make([]int, shards)
	for i := range e.stores {
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
		n += st.len()
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
	e.lockStripes()
	defer e.unlockStripes()
	n := 0
	for i := range e.stores {
		n += e.stores[i].len()
	}
	l := core.NewListing(e.schema, e.wordCurve, n)
	for i := range e.stores {
		l.CopyWords(&e.stores[i].keys)
		l.CopyRects(&e.stores[i].rects)
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

// hold puts what a stripe keeps of s under id: key, s's one-word Z key,
// on one-word universes, and s's rectangle on wider ones (key unused).
// The stripe's lock is held.
func (e *Engine) hold(st *stripe, id uint64, s *subscription.Subscription, key uint64) {
	if e.wordCurve != nil {
		st.keys.Put(id, key)
		return
	}
	st.rects.Put(id, s.Rect())
}

// keyOf returns s's one-word key, 0 on wider universes.
func (e *Engine) keyOf(s *subscription.Subscription) uint64 {
	if e.wordCurve == nil {
		return 0
	}
	return e.wordCurve.KeyWord(s.Point())
}

// keySubscription builds a fresh subscription from a held one-word key.
func keySubscription(schema *subscription.Schema, curve *sfc.ZCurve, k uint64) *subscription.Subscription {
	return core.WordRect(schema, curve, k).Subscription(schema)
}

// heldRect resolves id to the rectangle its stripe holds, whose lock the
// caller holds.
func (e *Engine) heldRect(id uint64) (subscription.Rect, bool) {
	shard, _ := decodeID(len(e.stores), id)
	st := &e.stores[shard]
	if k, ok := st.keys.Get(id); ok {
		return core.WordRect(e.schema, e.wordCurve, k), true
	}
	return st.rects.Get(id)
}

// insert stores s in the stripe of the slice its key routes to and indexes
// it under the same key, encoded and routed once for both.
func (e *Engine) insert(s *subscription.Subscription) uint64 {
	loc := e.idx.Locate(s.Point())
	st := &e.stores[loc.Slice]
	st.mu.Lock()
	id := encodeID(len(e.stores), loc.Slice, st.next)
	st.next++
	e.hold(st, id, s, loc.Key.LowWord())
	e.idx.InsertAt(loc, id)
	st.mu.Unlock()
	e.inserted(1)
	return id
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
		e.reserve(st, hi-lo)
		base := st.next
		st.next += uint64(hi - lo)
		for j := lo; j < hi; j++ {
			i := order[j]
			id := encodeID(shards, s, base+rank[i])
			ids[i], order[j] = id, id
			e.hold(st, id, subs[i], sorted[j*w])
		}
		e.idx.InsertSorted(sorted[lo*w:hi*w], order[lo:hi])
	})
	e.inserted(len(subs))
	return ids
}

// reserve sizes a stripe's table for n more subscriptions, so a batch is
// held without rehashing. The stripe's lock is held.
func (e *Engine) reserve(st *stripe, n int) {
	if e.wordCurve != nil {
		st.keys.Grow(n)
	} else {
		st.rects.Grow(n)
	}
}

// lockStripes locks every stripe in stripe order, the order every holder
// of the whole store takes them in; unlockStripes releases them.
func (e *Engine) lockStripes() {
	for i := range e.stores {
		e.stores[i].mu.Lock()
	}
}

func (e *Engine) unlockStripes() {
	for i := range e.stores {
		e.stores[i].mu.Unlock()
	}
}

// Restore implements core.Provider, loading as load does under the ids
// it is given: each held subscription's key is computed once from its
// rectangle, no subscription is built, and the batch is sorted before any
// lock is taken. A given id is held in the stripe it decodes to, whatever
// slice owns its key (the index routes by key), and the slices' shares
// load in parallel (run). No write lands while it runs, so no id minted
// beside it collides with a given one: every stripe lock, held from the
// emptiness check to the last insert, keeps single and batch writes alike
// waiting, and a write that took its stripe first makes the check fail.
func (e *Engine) Restore(held []core.Held) error {
	if e.insertBatchLat.elect(len(held)) {
		defer e.insertBatchLat.since(time.Now())
	}
	if err := core.CheckHeld(e.schema, held); err != nil {
		return err
	}
	w, shards := e.idx.KeyStride(), len(e.stores)
	keys := make([]uint64, 0, len(held)*w)
	ids := make([]uint64, len(held))
	var buf [2 * subscription.MaxAttrs]uint32
	for i, h := range held {
		keys = e.idx.AppendKey(keys, h.Rect.PointInto(e.schema, buf[:]))
		ids[i] = h.ID
	}
	sorted, sortedIDs := dominance.SortBatch(keys, w, ids)
	if e.closed.Load() {
		return core.ErrProviderClosed
	}
	e.lockStripes()
	defer e.unlockStripes()
	for i := range e.stores {
		if n := e.stores[i].len(); n != 0 {
			return fmt.Errorf("engine: Restore needs an empty provider, stripe %d holds %d subscriptions", i, n)
		}
	}
	e.idx.ChooseBoundaries(keys)
	share := make([]int, shards)
	for _, id := range ids {
		s, _ := decodeID(shards, id)
		share[s]++
	}
	for s, n := range share {
		e.reserve(&e.stores[s], n)
	}
	for i, id := range ids {
		s, local := decodeID(shards, id)
		st := &e.stores[s]
		if e.wordCurve != nil {
			st.keys.Put(id, keys[i])
		} else {
			st.rects.Put(id, held[i].Rect)
		}
		if local >= st.next {
			st.next = local + 1 // mint from past the largest id given
		}
	}
	cut := e.idx.Cut(sorted)
	run(shards, func(s int) {
		e.idx.InsertSorted(sorted[cut[s]*w:cut[s+1]*w], sortedIDs[cut[s]:cut[s+1]])
	})
	e.inserted(len(ids))
	return nil
}

// remove drops id from its stripe and deletes it from the index at the
// key the stripe held it under.
func (e *Engine) remove(id uint64) error {
	shard, _ := decodeID(len(e.stores), id)
	st := &e.stores[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	loc, ok := e.release(st, id)
	if !ok {
		return fmt.Errorf("engine: no subscription with id %d", id)
	}
	if !e.idx.DeleteAt(loc, id) {
		return fmt.Errorf("engine: index out of sync for id %d", id)
	}
	return nil
}

// release drops id from its stripe, whose lock is held, and routes the
// key the index holds it under: the held word itself on one-word
// universes, the held rectangle's point encoded on wider ones.
func (e *Engine) release(st *stripe, id uint64) (dominance.Location, bool) {
	if e.wordCurve != nil {
		k, ok := st.keys.Delete(id)
		if !ok {
			return dominance.Location{}, false
		}
		return e.idx.LocateWord(k), true
	}
	r, ok := st.rects.Delete(id)
	if !ok {
		return dominance.Location{}, false
	}
	var buf [2 * subscription.MaxAttrs]uint32
	return e.idx.Locate(r.PointInto(e.schema, buf[:])), true
}

// Subscription returns the held subscription with the given engine id.
func (e *Engine) Subscription(id uint64) (*subscription.Subscription, bool) {
	shard, _ := decodeID(len(e.stores), id)
	st := &e.stores[shard]
	st.mu.Lock()
	r, ok := e.heldRect(id)
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
	_, ok := st.keys.Get(id)
	if !ok {
		_, ok = st.rects.Get(id)
	}
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
// and counted. A held key covers s exactly when it dominates s's key
// under every dimension mask, the test the SFC array's leaf check makes.
func (e *Engine) scan(s *subscription.Subscription, res *QueryResult) int {
	q, qk, d := s.Rect(), e.keyOf(s), e.schema.Dims()
	for i := range e.stores {
		st := &e.stores[i]
		st.mu.Lock()
		for id, k := range st.keys.All() {
			if (!res.Covered || id < res.CoveredBy) && sfc.DominatesWord(d, k, qk) {
				res.Covered, res.CoveredBy = true, id
			}
		}
		for id, cand := range st.rects.All() {
			if (!res.Covered || id < res.CoveredBy) && cand.Covers(q) {
				res.Covered, res.CoveredBy = true, id
			}
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
