// Package dominance implements the paper's two query problems over a set
// of points in d-dimensional space:
//
//   - Problem 1 (Point Dominance): report any indexed point inside the
//     extremal region [x_1,∞] × ... × [x_d,∞].
//   - Problem 2 (ε-Approximate Point Dominance): search a subset of that
//     region covering at least a (1−ε) fraction of its volume and report a
//     point if the searched part contains one.
//
// The SFC-based Index follows Section 5: points live in an SFC array
// sorted by curve key; a query greedily partitions (a truncation of) the
// query region into standard cubes, largest first, and probes each cube's
// key range with one ordered-search until a point is found or the target
// volume has been covered.
//
// Linear and KDTree are the exact baselines used for correctness oracles
// and for the scaling experiments.
package dominance

import (
	"fmt"
	"sort"

	"sfccover/internal/bits"
	"sfccover/internal/sfc"
	"sfccover/internal/sfcarray"
)

// Searcher is the interface shared by the SFC index and the baselines.
type Searcher interface {
	// Insert indexes point p under the given id.
	Insert(p []uint32, id uint64)
	// Delete removes one (p, id) entry, reporting whether it existed.
	Delete(p []uint32, id uint64) bool
	// QueryDominating reports any indexed point that dominates q
	// (exhaustive semantics).
	QueryDominating(q []uint32) (id uint64, ok bool)
	// Len returns the number of indexed points.
	Len() int
}

// Stats describes the work one SFC query performed, in the units of the
// paper's cost model.
type Stats struct {
	// M is the truncation parameter used (0 for exhaustive queries).
	M int
	// CubesGenerated is how many standard cubes the decomposition emitted.
	CubesGenerated int
	// RunsProbed is the number of ordered-structure range probes issued —
	// the paper's unit of query cost.
	RunsProbed int
	// VolumeFraction is the fraction of the query region's volume that the
	// generated cubes cover (>= 1-ε for approximate queries that ran to
	// their target).
	VolumeFraction float64
	// AspectRatio is α = b(ℓ_max) − b(ℓ_min) of the query region.
	AspectRatio int
	// Found reports whether a dominating point was returned.
	Found bool
	// SearchedLen gives the side lengths of the extremal rectangle that was
	// fully searched before the search ended: every indexed point inside
	// R(SearchedLen) is guaranteed to have been considered. It is nil when
	// the search ended mid-level (success, or the MaxCubes cap) before
	// completing its first level. For exhaustive queries that find nothing
	// it is the whole query region.
	SearchedLen []uint64
}

// Config parameterizes an SFC dominance index.
type Config struct {
	// Dims is d, the dimensionality of indexed points.
	Dims int
	// Bits is k; coordinates range over [0, 2^k−1].
	Bits int
	// Curve selects the space filling curve: "z" (default), "hilbert",
	// "gray" or "onion".
	Curve string
	// Array selects the ordered structure: "treap" (default) or "skiplist".
	Array string
	// Seed drives the ordered structure's internal randomness.
	Seed int64
	// MaxCubes caps the cubes generated per query (0 = unlimited). When
	// the cap fires the search still probes the largest-volume prefix of
	// the partition, so it degrades to a coarser approximation; Stats
	// reports the volume actually covered.
	MaxCubes int
	// CacheSize bounds the decomposition cache in entries: 0 selects
	// DefaultCacheSize, negative disables the cache. Cache hits replay a
	// memoized probe order bit-identical to the uncached search, skipping
	// decomposition and run-merging.
	CacheSize int
	// Adaptive derives each query's effective ε and cube cap from
	// observed query statistics (aspect ratio, volume fraction, cube
	// counts) instead of the fixed Epsilon/MaxCubes; the configured
	// values become the floor (ε) and ceiling (cube cap). Soundness is
	// unaffected — only the searched volume fraction varies, and Stats
	// reports it.
	Adaptive bool
}

func (c Config) withDefaults() Config {
	if c.Curve == "" {
		c.Curve = "z"
	}
	if c.Array == "" {
		c.Array = "treap"
	}
	return c
}

// Index is the SFC-based dominance index of Section 5.
//
// Writes were never safe for concurrent use (the ordered structures are
// single-writer); queries now share per-index scratch buffers, so
// queries are single-goroutine too. Wrap an Index in a lock (as
// core.Detector does) or use ShardedIndex for concurrent querying.
type Index struct {
	cfg   Config
	curve sfc.Curve
	arr   sfcarray.Index
	// rawProbe is the array's range probe bound once at construction:
	// binding it per query would allocate a method value on every call.
	rawProbe probeFn
	// scratch holds the query path's reusable buffers.
	scratch queryScratch
	// cache memoizes decompositions (nil when disabled).
	cache *decompCache
	// budget drives adaptive per-query budgets (nil unless enabled).
	budget *budgetState
}

// NewIndex builds an SFC dominance index.
func NewIndex(cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	curve, err := sfc.New(cfg.Curve, sfc.Config{Dims: cfg.Dims, Bits: cfg.Bits})
	if err != nil {
		return nil, fmt.Errorf("dominance: %w", err)
	}
	arr, err := sfcarray.New(cfg.Array, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("dominance: %w", err)
	}
	x := &Index{cfg: cfg, curve: curve, arr: arr}
	x.rawProbe = x.arr.FirstInRange
	if cfg.CacheSize >= 0 {
		x.cache = newDecompCache(cfg.CacheSize)
	}
	if cfg.Adaptive {
		x.budget = &budgetState{}
	}
	return x, nil
}

// CacheStats reports the decomposition cache's hit and miss counts
// (zeros when the cache is disabled).
func (x *Index) CacheStats() (hits, misses uint64) {
	if x.cache == nil {
		return 0, 0
	}
	return x.cache.hits.Load(), x.cache.misses.Load()
}

// MustIndex is NewIndex for known-good configurations.
func MustIndex(cfg Config) *Index {
	idx, err := NewIndex(cfg)
	if err != nil {
		panic(err)
	}
	return idx
}

var _ Searcher = (*Index)(nil)

// Len implements Searcher.
func (x *Index) Len() int { return x.arr.Len() }

// Insert implements Searcher.
func (x *Index) Insert(p []uint32, id uint64) {
	x.arr.Insert(x.curve.Key(p), id)
}

// Delete implements Searcher.
func (x *Index) Delete(p []uint32, id uint64) bool {
	return x.arr.Delete(x.curve.Key(p), id)
}

// BatchInserter is the optional bulk-load capability of a Searcher:
// implementations that can beat len(ps) independent Inserts (the SFC
// array's sorted-batch path) expose it, and batch write paths type-assert
// for it.
type BatchInserter interface {
	// InsertBatch indexes a group of points, aligned with ids.
	InsertBatch(ps [][]uint32, ids []uint64)
}

// InsertBatch implements BatchInserter: keys are computed and sorted once,
// then the whole batch enters the SFC array through its sorted bulk-load
// path — a bottom-up build on a cold array, a single merge pass on a warm
// one — instead of one O(log n) descent per point.
func (x *Index) InsertBatch(ps [][]uint32, ids []uint64) {
	keys := make([]bits.Key, len(ps))
	for i, p := range ps {
		keys[i] = x.curve.Key(p)
	}
	order := make([]int, len(ps))
	for i := range order {
		order[i] = i
	}
	x.arr.InsertSorted(sortedEntries(keys, ids, order))
}

// sortedEntries selects the (key, id) pairs named by order and returns
// them sorted by the SFC arrays' own comparator — the exact order their
// sorted bulk-load path requires. order is sorted in place as a side
// effect.
func sortedEntries(keys []bits.Key, ids []uint64, order []int) ([]bits.Key, []uint64) {
	sort.Slice(order, func(a, b int) bool {
		return sfcarray.EntryLess(keys[order[a]], ids[order[a]], keys[order[b]], ids[order[b]])
	})
	sk := make([]bits.Key, len(order))
	si := make([]uint64, len(order))
	for j, i := range order {
		sk[j], si[j] = keys[i], ids[i]
	}
	return sk, si
}

// QueryDominating implements Searcher with exhaustive semantics (ε = 0).
func (x *Index) QueryDominating(q []uint32) (uint64, bool) {
	id, ok, _, err := x.Query(q, 0)
	if err != nil {
		// Unreachable: ε=0 is always valid and q is in-universe by type.
		panic(err)
	}
	return id, ok
}

// Query answers a point dominance query at q. eps == 0 requests an
// exhaustive search (Problem 1); 0 < eps < 1 requests an ε-approximate
// search (Problem 2) that truncates the query region per Lemma 3.2 and
// probes cubes largest-first, stopping as soon as a point is found or
// the searched volume reaches (1−ε) of the query region. A single Index
// is never traced; tracing lives on ShardedIndex.QueryTraced.
//
//sfc:hotpath
func (x *Index) Query(q []uint32, eps float64) (uint64, bool, Stats, error) {
	if len(q) != x.cfg.Dims {
		return 0, false, Stats{}, errDims(len(q), x.cfg.Dims)
	}
	if eps < 0 || eps >= 1 {
		return 0, false, Stats{}, errEps(eps)
	}
	sc := &x.scratch
	sc.stats = Stats{}
	stats := &sc.stats
	region := sc.region(q, x.cfg.Bits)
	stats.AspectRatio = region.AspectRatio()
	maxCubes := x.cfg.MaxCubes
	if x.budget != nil {
		eps, maxCubes = x.budget.adapt(eps, maxCubes, x.cfg.Dims, region)
	}
	id, ok, err := dispatchSearch(x.curve, x.cfg.Bits, maxCubes, x.cache, sc, x.rawProbe, region, eps, stats, nil)
	if x.budget != nil && err == nil {
		x.budget.record(stats, eps)
	}
	return id, ok, sc.stats, err
}
