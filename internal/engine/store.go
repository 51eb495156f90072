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

// Enumerate implements core.Provider: every stripe's held set as packed
// rectangles, sorted by engine id, read with every stripe lock held (in
// stripe order, as Restore takes them) so the ids listed are the ids
// resolved.
func (e *Engine) Enumerate() ([]core.Held, error) {
	n := 0
	for i := range e.stores {
		e.stores[i].mu.Lock()
		n += e.stores[i].len()
	}
	defer func() {
		for i := range e.stores {
			e.stores[i].mu.Unlock()
		}
	}()
	ids := make([]uint64, 0, n)
	for i := range e.stores {
		st := &e.stores[i]
		for id := range st.keys.All() {
			ids = append(ids, id)
		}
		for id := range st.rects.All() {
			ids = append(ids, id)
		}
	}
	return core.SortedHeld(ids, func(id uint64) subscription.Rect {
		r, _ := e.heldRect(id)
		return r
	}), nil
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

// keyRect decodes a held one-word key: it inverts KeyWord and Point, the
// rectangle of schema whose key on curve is k.
func keyRect(schema *subscription.Schema, curve *sfc.ZCurve, k uint64) subscription.Rect {
	var buf [2 * subscription.MaxAttrs]uint32
	r, err := subscription.PointRect(schema, curve.CellWordInto(buf[:], k))
	if err != nil {
		panic(fmt.Sprintf("engine: held key %#x is no subscription's: %v", k, err))
	}
	return r
}

// keySubscription builds a fresh subscription from a held one-word key.
func keySubscription(schema *subscription.Schema, curve *sfc.ZCurve, k uint64) *subscription.Subscription {
	return keyRect(schema, curve, k).Subscription(schema)
}

// heldRect resolves id to the rectangle its stripe holds, whose lock the
// caller holds.
func (e *Engine) heldRect(id uint64) (subscription.Rect, bool) {
	shard, _ := decodeID(len(e.stores), id)
	st := &e.stores[shard]
	if k, ok := st.keys.Get(id); ok {
		return keyRect(e.schema, e.wordCurve, k), true
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

// insertBatch groups the batch by destination key slice and bulk-loads
// each slice: the stripe mutex and the index slice lock are each taken
// once per shard group instead of once per item. Groups load in parallel
// on the worker pool; the lock order within a group (stripe, then slice)
// matches insert's, so the paths cannot deadlock. The returned ids align
// with subs.
//
// given nil mints the ids and stores subs under them. Restore passes the
// ids it has already stored subs under, with every stripe lock held, and
// only the index load is left: a given id's stripe is the one it decodes
// to, whatever slice owns its key (the index routes by key).
//
// A batch entering an empty engine is what decides the slice layout: the
// index places its boundaries at the quantiles of the batch's points before
// anything is grouped, so the groups — and every later insert — find an
// even table. This is the one seam boot recovery, snapshot install,
// promotion, InsertBatch and AddBatch all pass through.
func (e *Engine) insertBatch(subs []*subscription.Subscription, given []uint64) []uint64 {
	ids := given
	if given == nil {
		ids = make([]uint64, len(subs))
	}
	points := make([][]uint32, len(subs))
	for i, s := range subs {
		points[i] = s.Point()
	}
	e.idx.ChooseBoundaries(len(points), func(i int) []uint32 { return points[i] })
	groups := make([][]int, len(e.stores))
	keys := make([]uint64, len(subs)) // what hold takes on one-word universes
	for i := range subs {
		loc := e.idx.Locate(points[i])
		keys[i] = loc.Key.LowWord()
		groups[loc.Slice] = append(groups[loc.Slice], i)
	}
	active := make([]int, 0, len(groups))
	for shard, g := range groups {
		if len(g) > 0 {
			active = append(active, shard)
		}
	}
	e.run(len(active), func(gi int) {
		shard := active[gi]
		group := groups[shard]
		ps := make([][]uint32, len(group))
		groupIDs := make([]uint64, len(group))
		st := &e.stores[shard]
		if given == nil {
			st.mu.Lock()
			defer st.mu.Unlock()
		}
		for k, i := range group {
			if given == nil {
				ids[i] = encodeID(len(e.stores), shard, st.next)
				st.next++
				e.hold(st, ids[i], subs[i], keys[i])
			}
			ps[k] = points[i]
			groupIDs[k] = ids[i]
		}
		e.idx.InsertBatch(ps, groupIDs)
	})
	e.inserted(len(subs))
	return ids
}

// Restore implements core.Provider through insertBatch. Nothing else
// writes while it runs, so no id minted beside it collides with a given
// one: the write side of closeMu keeps the batch operations out (their
// pool tasks would wait on the stripe locks held here and starve the load
// of workers), and every stripe lock, held from the emptiness check to the
// last insert, keeps the single-item writes out.
func (e *Engine) Restore(held []core.Held) error {
	defer observeSince(e.hInsertBatch, time.Now())
	subs, ids, err := core.SplitHeld(e.schema, held)
	if err != nil {
		return err
	}
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return core.ErrProviderClosed
	}
	for i := range e.stores {
		st := &e.stores[i]
		st.mu.Lock()
		defer st.mu.Unlock()
		if n := st.len(); n != 0 {
			return fmt.Errorf("engine: Restore needs an empty provider, stripe %d holds %d subscriptions", i, n)
		}
	}
	for i, id := range ids {
		stripe, local := decodeID(len(e.stores), id)
		st := &e.stores[stripe]
		e.hold(st, id, subs[i], e.keyOf(subs[i]))
		if local >= st.next {
			st.next = local + 1 // mint from past the largest id given
		}
	}
	e.insertBatch(subs, ids)
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

// query runs the index search, copying its Stats once, into res.
//
//sfc:hotpath
func (e *Engine) query(p []uint32, eps float64, tr *obs.QueryTrace, res *QueryResult) int {
	res.CoveredBy, res.Covered, res.Stats, res.Err = e.idx.QueryTraced(p, eps, tr)
	if res.Err != nil {
		return 0
	}
	return 1
}
