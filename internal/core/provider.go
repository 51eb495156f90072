package core

import (
	"errors"
	"fmt"
	"slices"

	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
)

// Provider is the covering-detection abstraction: one interface over the
// single-lock Detector and the sharded engine (and, through them, anything
// else that can answer covering questions about a dynamic subscription
// set). Routers, brokers and services program against it so the choice of
// backing index — one detector, the key-range-sliced engine, a daemon
// across a wire, any of them behind a write-ahead log — is which
// constructor ran, not a code path.
//
// Every implementation preserves the paper's asymmetry: a reported cover
// is always genuine; approximate modes may miss.
//
// The interface is the whole surface: an implementation that cannot serve
// InsertBatch, Restore, Snapshot or Enumerate returns an error wrapping
// ErrUnsupported from it.
type Provider interface {
	// Add is the router arrival path: search for a cover of s, then insert
	// s either way. covered reports whether a cover was found, coveredBy
	// its id.
	Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error)
	// Insert stores s unconditionally (no covering query) and returns its id.
	Insert(s *subscription.Subscription) (uint64, error)
	// Remove deletes a previously inserted subscription by id.
	Remove(id uint64) error
	// FindCover searches the held set for a subscription covering s.
	FindCover(s *subscription.Subscription) (id uint64, found bool, stats dominance.Stats, err error)
	// Subscription resolves an id to its held subscription.
	Subscription(id uint64) (*subscription.Subscription, bool)
	// Holds reports whether id names a held subscription, without
	// building it: the claim a durable remove makes before it logs.
	Holds(id uint64) bool
	// Len returns the number of held subscriptions.
	Len() int
	// Schema returns the provider's attribute schema.
	Schema() *subscription.Schema
	// Stats returns a uniform snapshot of counters and occupancy.
	Stats() ProviderStats
	// CoverQueryBatch runs FindCover for every subscription, returning
	// results aligned with the input slice. Backends that can amortize
	// per-query dispatch (the engine's worker pool, one wire frame) do.
	CoverQueryBatch(subs []*subscription.Subscription) []QueryResult
	// AddBatch runs the arrival path (covering query + insert) for every
	// subscription. Results align with the input slice; per-item failures
	// occupy their slots. Batch items are mutually unordered: no item's
	// covering query is guaranteed to observe another batch item's insert.
	AddBatch(subs []*subscription.Subscription) []AddResult
	// RemoveBatch deletes the given ids. The returned slice aligns with
	// the input; entries are nil on success.
	RemoveBatch(ids []uint64) []error
	// InsertBatch stores every subscription unconditionally — no covering
	// queries, one lock acquisition per destination shard — and returns
	// the ids it minted, aligned with the input.
	InsertBatch(subs []*subscription.Subscription) ([]uint64, error)
	// Restore is the inverse of Enumerate: it bulk-loads an EMPTY provider
	// with every subscription under the id it is given — ids this provider
	// would never mint included — and no id minted later collides with one
	// of them. All-or-nothing: a provider that holds anything, a foreign
	// schema or an id named twice refuses the call and changes nothing.
	// Recovery paths use it to rebuild an index from a persisted dump.
	Restore(held []Held) error
	// Snapshot forces a point-in-time snapshot of the durable subscription
	// state and compacts the write-ahead log behind it. The persisted form
	// is the subscription set, not the derived index; answers are
	// unaffected and concurrent writes keep logging into fresh segments.
	Snapshot() error
	// Enumerate returns every held subscription with its id, sorted by id
	// ascending. Routers use it after a restart to rebuild derived link
	// state from recovered providers.
	Enumerate() ([]Held, error)
	// Close releases resources (worker pools, goroutines). A closed
	// provider must not be used; Close is idempotent.
	Close()
}

// AddResult is one AddBatch outcome: the id assigned to the inserted
// subscription plus the result of the pre-insert covering query.
type AddResult struct {
	// ID is the id assigned to the inserted subscription (0 if the insert
	// failed).
	ID uint64
	QueryResult
}

// ErrUnsupported reports an operation this provider (or provider
// configuration) cannot serve: Snapshot with no durable store, Enumerate
// or InsertBatch across a wire with no such op, Restore under a write-ahead
// log. Implementers wrap it with the reason; a refusal changes nothing.
var ErrUnsupported = errors.New("core: operation not supported by this provider")

// ErrProviderClosed reports an operation issued after Close. Close itself
// stays idempotent; the typed error is how the batch paths reject use of a
// torn-down worker pool instead of panicking on a closed channel.
var ErrProviderClosed = errors.New("core: provider is closed")

// Held is one subscription a provider holds, with the id it is held
// under: its packed rectangle, a value of the provider's schema, so a
// dump of a large set builds no subscription.
type Held struct {
	ID   uint64
	Rect subscription.Rect
}

// CheckHeld checks a Restore argument: every rectangle inside schema's
// domain, no id twice. Ids listed ascending — the order a snapshot and
// SortedHeld give — are checked by their order in one pass; a list in any
// other order is checked on a sorted copy of its ids.
func CheckHeld(schema *subscription.Schema, held []Held) error {
	ascending := true
	for i, h := range held {
		if err := h.Rect.Check(schema); err != nil {
			return fmt.Errorf("core: restored subscription %d is no rectangle of the provider's schema: %w", h.ID, err)
		}
		if i > 0 && h.ID <= held[i-1].ID {
			ascending = false
		}
	}
	if ascending {
		return nil
	}
	ids := make([]uint64, len(held))
	for i, h := range held {
		ids[i] = h.ID
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("core: restore names id %d twice", ids[i])
		}
	}
	return nil
}

// SortedHeld lists held subscriptions by id ascending: ids are every held
// id, in any order, and rect resolves one. The ids are sorted in place as
// plain words and resolved after, several times cheaper than sorting the
// records.
func SortedHeld(ids []uint64, rect func(id uint64) subscription.Rect) []Held {
	slices.Sort(ids)
	out := make([]Held, len(ids))
	for i, id := range ids {
		out[i] = Held{ID: id, Rect: rect(id)}
	}
	return out
}

// QueryResult is one covering-query outcome, the per-item currency of the
// batch methods.
type QueryResult struct {
	// Covered reports whether a stored subscription covers the query.
	Covered bool
	// CoveredBy is the id of the covering subscription.
	CoveredBy uint64
	// Stats aggregates the search cost in the paper's cost units.
	Stats dominance.Stats
	// Err is the per-item failure, nil on success.
	Err error
}

// ProviderStats is the uniform counter-and-occupancy snapshot every
// Provider serves: lifetime query totals plus the shard layout, including
// the max/min slice-occupancy ratio a sliced provider rebalances itself
// on.
type ProviderStats struct {
	// Subscriptions is the number of currently held subscriptions.
	Subscriptions int
	// Queries, Hits, RunsProbed and CubesGenerated are the lifetime query
	// totals; RunsProbed counts ordered-structure descents (walk probes
	// and seeks, cube range probes), CubesGenerated the paper's cubes.
	Queries        int
	Hits           int
	RunsProbed     int
	CubesGenerated int
	// PathQueries counts those queries by the cut that ended the search,
	// indexed by dominance.Path: successor walk, cube search (index 0:
	// queries no SFC search answered).
	PathQueries [dominance.NumPaths]int
	// ShardSearches counts per-shard searches issued (equals Queries for a
	// single detector and for the shared-decomposition engine plan).
	ShardSearches int
	// Shards is the number of partitions (1 for a single detector).
	Shards int
	// ShardSizes is the per-shard subscription count.
	ShardSizes []int
	// MaxShardSize and MinShardSize are the extremes of ShardSizes.
	MaxShardSize int
	MinShardSize int
	// SkewRatio is MaxShardSize over MinShardSize with the denominator
	// clamped to 1, so an empty slice under a hot one reads as the hot
	// slice's absolute size. 1.0 means perfectly balanced.
	SkewRatio float64
	// Rebalances counts rebalance passes that moved at least one
	// boundary; BoundaryMoves and MigratedEntries sum the per-pass moves
	// and migrated index entries — how a sliced provider's own passes
	// are observed. All three stay zero on providers with one slice.
	Rebalances      int
	BoundaryMoves   int
	MigratedEntries int
	// Snapshots counts point-in-time snapshots taken; WALRecords and
	// WALBytes sum the write-ahead-log records and bytes appended over the
	// provider's lifetime (compaction never decrements them). All three
	// stay zero on providers with no durable store.
	Snapshots  int
	WALRecords int
	WALBytes   int64
}

// SetShardSizes records the occupancy layout and derives Subscriptions,
// Shards, the extremes and SkewRatio from it.
func (ps *ProviderStats) SetShardSizes(sizes []int) {
	ps.Shards = len(sizes)
	ps.ShardSizes = sizes
	ps.Subscriptions = 0
	ps.MaxShardSize, ps.MinShardSize = 0, 0
	for i, n := range sizes {
		ps.Subscriptions += n
		if i == 0 || n > ps.MaxShardSize {
			ps.MaxShardSize = n
		}
		if i == 0 || n < ps.MinShardSize {
			ps.MinShardSize = n
		}
	}
	ps.SkewRatio = SkewOf(sizes)
}

// SkewOf is THE SkewRatio formula: max over min occupancy with the
// denominator clamped to 1 (an empty slice under a hot one reads as the
// hot slice's absolute size), 1 for an empty layout. Everything that
// reasons about skew — stats reporting, the engine's rebalance trigger
// and its hysteresis — derives the number from here, so operators and
// the rebalancer always observe the same value.
func SkewOf(sizes []int) float64 {
	if len(sizes) == 0 {
		return 1
	}
	max, min := sizes[0], sizes[0]
	for _, n := range sizes[1:] {
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if min < 1 {
		min = 1
	}
	return float64(max) / float64(min)
}

var _ Provider = (*Detector)(nil)

// Stats implements Provider for the single detector: one shard holding
// everything, so the occupancy fields are trivial and ShardSearches
// equals Queries.
func (d *Detector) Stats() ProviderStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	ps := ProviderStats{
		Queries:        d.totals.Queries,
		Hits:           d.totals.Hits,
		RunsProbed:     d.totals.RunsProbed,
		CubesGenerated: d.totals.CubesGenerated,
		PathQueries:    d.totals.PathQueries,
		ShardSearches:  d.totals.Queries,
	}
	ps.SetShardSizes([]int{d.subs.Len()})
	return ps
}

// CoverQueryBatch implements Provider one FindCover at a time: a Detector
// has no dispatch to amortize.
func (d *Detector) CoverQueryBatch(subs []*subscription.Subscription) []QueryResult {
	out := make([]QueryResult, len(subs))
	for i, s := range subs {
		id, found, stats, err := d.FindCover(s)
		out[i] = QueryResult{Covered: found, CoveredBy: id, Stats: stats, Err: err}
	}
	return out
}

// AddBatch implements Provider one Add at a time.
func (d *Detector) AddBatch(subs []*subscription.Subscription) []AddResult {
	out := make([]AddResult, len(subs))
	for i, s := range subs {
		id, covered, coveredBy, err := d.Add(s)
		out[i] = AddResult{ID: id, QueryResult: QueryResult{Covered: covered, CoveredBy: coveredBy, Err: err}}
	}
	return out
}

// RemoveBatch implements Provider one Remove at a time.
func (d *Detector) RemoveBatch(ids []uint64) []error {
	out := make([]error, len(ids))
	for i, id := range ids {
		out[i] = d.Remove(id)
	}
	return out
}

// Enumerate implements Provider: the held set built into fresh
// subscriptions, sorted by id.
func (d *Detector) Enumerate() ([]Held, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]uint64, 0, d.subs.Len())
	for id := range d.subs.All() {
		ids = append(ids, id)
	}
	return SortedHeld(ids, func(id uint64) subscription.Rect {
		r, _ := d.subs.Get(id)
		return r
	}), nil
}

// Restore implements Provider through InsertBatch's load, under the given
// ids.
func (d *Detector) Restore(held []Held) error {
	if err := CheckHeld(d.cfg.Schema, held); err != nil {
		return err
	}
	subs, ids := make([]*subscription.Subscription, len(held)), make([]uint64, len(held))
	for i, h := range held {
		subs[i], ids[i] = h.Rect.Subscription(d.cfg.Schema), h.ID
	}
	_, err := d.load(subs, ids)
	return err
}

// Snapshot implements Provider: a Detector has no durable store.
func (d *Detector) Snapshot() error {
	return fmt.Errorf("%w: detector has no durable store", ErrUnsupported)
}

// Close implements Provider. A Detector holds no goroutines or external
// resources, so this is a no-op.
func (d *Detector) Close() {}
