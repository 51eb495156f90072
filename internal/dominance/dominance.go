// Package dominance implements the paper's two query problems over a set
// of points in d-dimensional space:
//
//   - Problem 1 (Point Dominance): report any indexed point inside the
//     extremal region [x_1,∞] × ... × [x_d,∞].
//   - Problem 2 (ε-Approximate Point Dominance): search a subset of that
//     region covering at least a (1−ε) fraction of its volume and report a
//     point if the searched part contains one.
//
// The SFC-based Index keeps its points in an SFC array sorted by curve
// key, as in Section 5, and answers a query in two steps:
//
//  1. the successor walk — for ε > 0 first one probe of the region's
//     largest standard cube, at its max corner, the paper's largest-first
//     order taken once; then seek the next stored key at or after the
//     region's smallest key, return it if its cell dominates the query,
//     otherwise jump the cursor to the next key inside the region
//     (sfc.ZCurve.NextInExtremal) and seek again. It visits stored keys,
//     not cubes, and its answer is exact. On one-word keys a seek passes
//     the leaves and blocks whose summaries rule out a dominator and
//     checks every entry of the leaf it lands in, so a step is one
//     descent plus at most one leaf check, and a region with no dominator
//     costs about as many steps as the array has leaves that admit the
//     query, not as many as it has stored points between the region's
//     runs;
//  2. the paper's search, only if the walk spends its step budget: greedily
//     partition (a truncation of) the region into standard cubes, largest
//     first, and probe each cube's key range until a point is found or
//     the target volume has been covered.
//
// So an answer is either exact or carries the paper's (1−ε) guarantee,
// and ε only ever yields misses. QueryCubes runs step 2 alone — the
// algorithm the paper analyzes — for the experiments and the cost-model
// tests. An answer is a function of the stored set and the query alone,
// never of the queries asked before it.
//
// Linear is the exact baseline used as the correctness oracle and in the
// scaling experiments.
package dominance

import (
	"fmt"

	"sfccover/internal/bits"
	"sfccover/internal/sfc"
	"sfccover/internal/sfcarray"
)

// Searcher is the interface shared by the SFC index and the linear
// baseline.
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

// Path names the cut that ended a search.
type Path uint8

const (
	// PathNone: no SFC search ran (baseline strategies, detection off).
	PathNone Path = iota
	// PathWalk: the successor walk answered, exactly.
	PathWalk
	// PathCubes: the paper's cube search answered (the walk overran its
	// step budget, or the query came through QueryCubes).
	PathCubes
	// NumPaths sizes per-path counter arrays.
	NumPaths
)

func (p Path) String() string {
	return [NumPaths]string{"none", "walk", "cubes"}[p]
}

// Stats describes the work one SFC query performed. The cube counters
// are in the units of the paper's cost model; RunsProbed counts every
// ordered-structure descent, whichever cut issued it.
type Stats struct {
	// Path is the cut that ended the search.
	Path Path
	// M is the truncation parameter used (0 unless the ε-search ran).
	M int
	// CubesGenerated is how many standard cubes the decomposition emitted
	// (0 when the walk answered).
	CubesGenerated int
	// RunsProbed is the number of ordered-structure descents issued: the
	// walk's probe and seeks and the cube search's range probes —
	// the paper's unit of query cost — added in one unit.
	RunsProbed int
	// WalkSteps is how many of those descents were seeks of the successor
	// walk.
	WalkSteps int
	// VolumeFraction is the fraction of the query region's volume that
	// was searched without finding a point: 1 for an exact (walk) miss,
	// the volume of the generated cubes for the cube search (>= 1-ε when
	// it ran to its target). Walk hits do not measure volume and leave
	// it 0.
	VolumeFraction float64
	// AspectRatio is α = b(ℓ_max) − b(ℓ_min) of the query region.
	AspectRatio int
	// Found reports whether a dominating point was returned.
	Found bool
	// SearchedLevel identifies the extremal rectangle that was fully
	// searched before the search ended: every indexed point inside
	// R(S_level(t(ℓ, M))) was considered (t only when M > 0). It is -1
	// when the search ended (success, or the MaxCubes cap) before
	// completing its first level, and 0 with M = 0 — the whole query
	// region — for exact misses. Storing the level, not the rectangle,
	// keeps a per-query slice off the query path.
	SearchedLevel int
}

// Config parameterizes an SFC dominance index.
type Config struct {
	// Dims is d, the dimensionality of indexed points.
	Dims int
	// Bits is k; coordinates range over [0, 2^k−1].
	Bits int
	// Seed is ignored: it seeded the randomized ordered structures the
	// blocked SFC array replaced. Callers that predate it still set it.
	Seed int64
	// MaxCubes is the per-query work budget (0 = unlimited): it bounds
	// the successor walk's steps and then, if the walk overran, the cubes
	// the ε-search generates. When the cube cap fires the search has
	// still probed the largest-volume prefix of the partition, so it
	// degrades to a coarser approximation; Stats reports the volume
	// actually covered. Exact queries (ε = 0) walk without a budget.
	MaxCubes int
}

// Index is the SFC-based dominance index of Section 5.
//
// Writes were never safe for concurrent use (the SFC array is
// single-writer); queries share per-index scratch buffers, so queries
// are single-goroutine too. Wrap an Index in a lock (as
// core.Detector does) or use ShardedIndex for concurrent querying.
type Index struct {
	dispatch
	arr sfcarray.Index
	// scratch holds the query path's reusable buffers.
	scratch queryScratch
	// searched counts the ε > 0 queries, for CacheStats.
	searched uint64
}

// dispatch is everything of a query's path but the array it searches:
// the configuration and the Z curve. Index and ShardedIndex embed it, so
// both answer through the one search.
type dispatch struct {
	cfg   Config
	curve *sfc.ZCurve
}

func newDispatch(cfg Config) (dispatch, error) {
	curve, err := sfc.NewZ(sfc.Config{Dims: cfg.Dims, Bits: cfg.Bits})
	if err != nil {
		return dispatch{}, fmt.Errorf("dominance: %w", err)
	}
	return dispatch{cfg: cfg, curve: curve}, nil
}

// key encodes p's curve key for a write: on one word where the keys fit
// one (KeyWord, no eight-word interleave), carried as a Key because that
// is what the array's write path takes.
func (d *dispatch) key(p []uint32) bits.Key {
	if d.cfg.WordKeys() {
		return bits.KeyFromUint64(d.curve.KeyWord(p))
	}
	return d.curve.Key(p)
}

// Curve returns the index's Z curve, for callers that hold keys of it.
func (d *dispatch) Curve() *sfc.ZCurve { return d.curve }

// newArray is the one constructor of the index's SFC arrays: empty, keeping
// summaries under the curve's dimension masks where its keys fit a word
// (DimMasks is nil otherwise). A zero sfcarray.Index would answer the same
// but prune nothing.
func (d *dispatch) newArray() sfcarray.Index {
	return sfcarray.WithMasks(d.curve.DimMasks())
}

// NewIndex builds an SFC dominance index.
func NewIndex(cfg Config) (*Index, error) {
	d, err := newDispatch(cfg)
	if err != nil {
		return nil, err
	}
	return &Index{dispatch: d, arr: d.newArray()}, nil
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
	x.arr.Insert(x.key(p), id)
}

// Delete implements Searcher.
func (x *Index) Delete(p []uint32, id uint64) bool {
	return x.arr.Delete(x.key(p), id)
}

// InsertWord indexes id under a one-word key the caller already holds
// (Config.WordKeys), encoding nothing: Insert for a holder that keeps the
// key instead of the point.
func (x *Index) InsertWord(k, id uint64) {
	x.arr.Insert(bits.KeyFromUint64(k), id)
}

// DeleteWord is Delete under a one-word key the caller holds, InsertWord's
// mirror: nothing is encoded or decoded.
func (x *Index) DeleteWord(k, id uint64) bool {
	return x.arr.Delete(bits.KeyFromUint64(k), id)
}

// InsertBatch indexes a group of points, aligned with ids: InsertKeys on
// their keys.
func (x *Index) InsertBatch(ps [][]uint32, ids []uint64) {
	x.InsertKeys(x.appendKeys(nil, ps), ids)
}

// InsertKeys indexes a batch of keys, KeyStride words each as AppendKey
// lays them out, under ids, aligned; the caller's slices are left as they
// are. The batch is sorted once (SortBatch), then enters the SFC array
// through its sorted bulk-load path — a bottom-up build on a cold array, a
// single merge pass on a warm one — instead of one O(log n) descent per
// key.
func (x *Index) InsertKeys(keys, ids []uint64) {
	w := x.KeyStride()
	keys, sorted := SortBatch(keys, w, ids)
	x.arr.InsertSortedWords(keys, w, sorted)
}

// AppendLayout appends a canonical encoding of the SFC array's layout to
// dst (sfcarray.Index.AppendLayout).
func (x *Index) AppendLayout(dst []byte) []byte { return x.arr.AppendLayout(dst) }

// QueryDominating implements Searcher with exhaustive semantics (ε = 0).
func (x *Index) QueryDominating(q []uint32) (uint64, bool) {
	id, ok, _, err := x.Query(q, 0)
	if err != nil {
		// Unreachable: ε=0 is always valid and q is in-universe by type.
		panic(err)
	}
	return id, ok
}

// Query answers a point dominance query at q: the walk, then — on budget
// overrun only — the cube search. eps == 0 requests an exact
// answer (Problem 1): the walk runs without a budget and returns the
// dominating entry with the smallest key, then the smallest id, exactly
// what the exhaustive cube search returns. 0 < eps < 1 allows an
// ε-approximate answer (Problem 2): the walk still answers exactly
// within Config.MaxCubes steps, and past them the paper's search
// truncates the region per Lemma 3.2 and probes cubes largest-first
// until a point is found or the searched volume reaches (1−ε) of the
// region. A single Index is never traced; tracing lives on
// ShardedIndex.QueryInto.
//
//sfc:hotpath
func (x *Index) Query(q []uint32, eps float64) (uint64, bool, Stats, error) {
	if err := x.checkQuery(q, eps); err != nil {
		return 0, false, Stats{}, err
	}
	if eps > 0 {
		x.searched++
	}
	sc := &x.scratch
	id, ok, err := x.search(sc, &x.arr, q, eps, nil, &sc.stats, false)
	return id, ok, sc.stats, err
}

// CacheStats reports (0, the index's ε > 0 query count): no query is
// answered from a memo, every one searches. It remains for bench/, whose
// layer ladder reads a hit ratio from it, until the harness drops that
// metric.
func (x *Index) CacheStats() (hits, misses uint64) { return 0, x.searched }

// QueryCubes answers q with the paper's search alone — exhaustive
// decomposition and run probes for eps == 0, the Section 5 ε-search
// otherwise — bypassing the walk. It is the reference the
// experiments and the cost-model tests measure, and what Query falls back
// to when the walk overruns.
func (x *Index) QueryCubes(q []uint32, eps float64) (uint64, bool, Stats, error) {
	if err := x.checkQuery(q, eps); err != nil {
		return 0, false, Stats{}, err
	}
	sc := &x.scratch
	region := sc.begin(q, x.cfg.Bits, &sc.stats)
	id, ok, err := searchCubes(x.curve, x.cfg.Bits, x.cfg.MaxCubes, sc, &x.arr, region, eps, nil)
	return id, ok, sc.stats, err
}

func (d *dispatch) checkQuery(q []uint32, eps float64) error {
	if len(q) != d.cfg.Dims {
		return errDims(len(q), d.cfg.Dims)
	}
	if eps < 0 || eps >= 1 {
		return errEps(eps)
	}
	return nil
}

func errDims(got, want int) error {
	return fmt.Errorf("dominance: query has %d dims, index has %d", got, want)
}

func errEps(eps float64) error {
	return fmt.Errorf("dominance: epsilon %v out of range [0,1)", eps)
}
