// Package core implements the paper's primary contribution: covering
// detection among content-based subscriptions, exact or ε-approximate,
// backed by the space-filling-curve point-dominance index of Section 5.
//
// A Detector holds a set of subscriptions. Given a new subscription s, it
// reports whether some held subscription covers s (N(cover) ⊇ N(s)), by
// transforming subscriptions to 2β-dimensional points (Edelsbrunner–
// Overmars) and running a point dominance query. In approximate mode the
// search inspects at least a (1−ε) fraction of the covering region's
// volume: it can miss a cover (routers then forward a redundant
// subscription — harmless), but it never invents one (suppression is
// always justified), which is exactly the asymmetry that makes approximate
// covering safe in publish/subscribe routing.
package core

import (
	"fmt"
	"sync"

	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
)

// Mode selects how hard the detector searches for covers.
type Mode int

const (
	// ModeOff disables covering detection: FindCover always misses. This
	// is the flooding baseline.
	ModeOff Mode = iota
	// ModeExact searches exhaustively; a cover is found whenever one exists.
	ModeExact
	// ModeApprox runs the ε-approximate search of the paper.
	ModeApprox
)

// ParseMode inverts Mode.String: "off", "exact" and "approx" parse to the
// corresponding mode. Network clients use it to lift a daemon's negotiated
// mode string back into the typed world; CLIs use it for -mode flags.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "exact":
		return ModeExact, nil
	case "approx":
		return ModeApprox, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %q (off, exact, approx)", s)
	}
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeExact:
		return "exact"
	case ModeApprox:
		return "approx"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Strategy selects the search backend for ModeExact.
type Strategy string

const (
	// StrategySFC uses the space-filling-curve index (exhaustive run
	// enumeration in exact mode; the paper's Section 5 algorithm in
	// approximate mode).
	StrategySFC Strategy = "sfc"
	// StrategyLinear scans all subscriptions (exact only).
	StrategyLinear Strategy = "linear"
)

// Config parameterizes a Detector.
type Config struct {
	// Schema is the pub/sub attribute schema (required).
	Schema *subscription.Schema
	// Mode defaults to ModeExact.
	Mode Mode
	// Epsilon is the approximation parameter for ModeApprox (0 < ε < 1).
	Epsilon float64
	// Strategy defaults to StrategySFC. ModeApprox requires StrategySFC.
	Strategy Strategy
	// Seed is ignored: the SFC array it seeded is no longer randomized.
	// Callers that predate that still set it.
	Seed int64
	// MaxCubes is the work budget of a single SFC query: it bounds the
	// successor walk's steps and then, if the walk overran, the cubes the
	// ε-search generates. Zero selects DefaultMaxCubes; UnlimitedCubes
	// (-1) removes the cap entirely.
	//
	// A cap is the pragmatic answer to the paper's aspect-ratio caveat:
	// subscriptions with equality or one-sided constraints yield query
	// regions with unit-length sides, whose greedy partitions degenerate
	// to astronomically many small cubes (the 2^(α(d−1)) factor in
	// Theorem 3.1). Capping turns those queries into coarser approximate
	// searches — covers can be missed, which only costs redundant
	// forwarding, never correctness.
	MaxCubes int
}

const (
	// DefaultMaxCubes is the per-query probe budget used when Config
	// leaves MaxCubes zero (~1M probes, roughly hundreds of milliseconds
	// worst case).
	DefaultMaxCubes = 1 << 20
	// UnlimitedCubes disables the per-query probe budget.
	UnlimitedCubes = -1
)

// Totals aggregates query-cost counters across a detector's lifetime, in
// the cost units of the paper's analysis.
type Totals struct {
	// Queries is the number of FindCover searches issued.
	Queries int
	// Hits is how many of them found a cover.
	Hits int
	// RunsProbed sums the ordered-structure descents across all queries —
	// walk probes and seeks and cube range probes in one unit (zero for
	// the linear strategy).
	RunsProbed int
	// CubesGenerated sums the standard cubes generated across all queries.
	CubesGenerated int
	// PathQueries counts the queries by the cut that ended their search,
	// indexed by dominance.Path (walk, cubes; index 0 holds the
	// queries no SFC search answered).
	PathQueries [dominance.NumPaths]int
}

// Detector detects covering relationships among a dynamic set of
// subscriptions. It is safe for concurrent use.
type Detector struct {
	cfg Config

	mu    sync.Mutex
	sfc   *dominance.Index   // non-nil iff Strategy == StrategySFC
	exact dominance.Searcher // backend for exact queries
	// held holds each subscription by value: on the SFC strategy over a
	// universe whose keys fit one word, the key sfc files it under, which
	// it inserts and deletes by; otherwise its rectangle.
	held HeldSet
	// point is Remove's buffer for the point it deletes: a stack buffer
	// would escape through exact, an interface.
	point  [2 * subscription.MaxAttrs]uint32
	nextID uint64
	totals Totals
}

// New builds a Detector.
func New(cfg Config) (*Detector, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("core: config needs a schema")
	}
	if cfg.Strategy == "" {
		cfg.Strategy = StrategySFC
	}
	if cfg.Mode == ModeApprox {
		if cfg.Strategy != StrategySFC {
			return nil, fmt.Errorf("core: approximate mode requires the SFC strategy, got %q", cfg.Strategy)
		}
		if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
			return nil, fmt.Errorf("core: approximate mode needs 0 < epsilon < 1, got %v", cfg.Epsilon)
		}
	}
	switch {
	case cfg.MaxCubes == 0:
		cfg.MaxCubes = DefaultMaxCubes
	case cfg.MaxCubes == UnlimitedCubes:
		cfg.MaxCubes = 0 // dominance.Config uses 0 for "no cap"
	case cfg.MaxCubes < 0:
		return nil, fmt.Errorf("core: invalid MaxCubes %d", cfg.MaxCubes)
	}
	d := &Detector{
		cfg:    cfg,
		nextID: 1,
	}
	switch cfg.Strategy {
	case StrategySFC:
		idx, err := dominance.NewIndex(dominance.Config{
			Dims: cfg.Schema.Dims(), Bits: cfg.Schema.Bits(), MaxCubes: cfg.MaxCubes,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		d.sfc = idx
		d.exact = idx
		d.held = NewHeldSet(cfg.Schema, idx.Curve())
	case StrategyLinear:
		d.exact = dominance.NewLinear()
		d.held = NewHeldSet(cfg.Schema, nil)
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", cfg.Strategy)
	}
	return d, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Detector {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Mode returns the configured detection mode.
func (d *Detector) Mode() Mode { return d.cfg.Mode }

// Schema returns the detector's attribute schema.
func (d *Detector) Schema() *subscription.Schema { return d.cfg.Schema }

// Config returns the detector's configuration with defaults resolved
// (Strategy and MaxCubes are normalized by New). Sharding layers use it to
// clone per-shard detectors from a validated template.
func (d *Detector) Config() Config { return d.cfg }

// Len returns the number of held subscriptions.
func (d *Detector) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.held.Len()
}

// Insert stores the subscription unconditionally and returns its id.
func (d *Detector) Insert(s *subscription.Subscription) (uint64, error) {
	if s.Schema() != d.cfg.Schema {
		return 0, fmt.Errorf("core: subscription schema differs from detector schema")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextID
	d.nextID++
	p := s.Point()
	k := d.held.Key(p)
	d.held.Hold(id, k, d.held.RectOf(s))
	if d.held.Words() {
		d.sfc.InsertWord(k, id)
	} else {
		d.exact.Insert(p, id)
	}
	return id, nil
}

// InsertBatch stores every subscription under a single lock acquisition —
// the bulk-load path sharding layers use to avoid one mutex round trip per
// item — and returns the assigned ids, aligned with the input.
func (d *Detector) InsertBatch(subs []*subscription.Subscription) ([]uint64, error) {
	return d.load(subs, nil)
}

// load is the bulk load behind InsertBatch and Restore: given nil mints
// the ids; otherwise the detector must hold none of given, holds subs
// under them, and mints from past the largest of them afterwards. On the
// SFC strategy each key is computed once, outside the lock, and both the
// index and a held set of words take it.
func (d *Detector) load(subs []*subscription.Subscription, given []uint64) ([]uint64, error) {
	var keys []uint64
	if d.sfc != nil {
		keys = make([]uint64, 0, len(subs)*d.sfc.KeyStride())
	}
	for _, s := range subs {
		if s.Schema() != d.cfg.Schema {
			return nil, fmt.Errorf("core: subscription schema differs from detector schema")
		}
		if d.sfc != nil {
			keys = d.sfc.AppendKey(keys, s.Point())
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := given
	if given == nil {
		ids = make([]uint64, len(subs))
		for i := range ids {
			ids[i] = d.nextID + uint64(i)
		}
	} else {
		for _, id := range given {
			if d.held.Holds(id) {
				return nil, fmt.Errorf("core: Restore names id %d, which the provider holds", id)
			}
		}
	}
	d.held.Grow(len(subs))
	for i, s := range subs {
		var k uint64
		if d.held.Words() {
			k = keys[i]
		}
		d.held.Hold(ids[i], k, d.held.RectOf(s))
		if ids[i] >= d.nextID {
			d.nextID = ids[i] + 1
		}
	}
	// The SFC index has a sorted bulk-build path; the linear scan takes the
	// points one by one.
	if d.sfc != nil {
		d.sfc.InsertKeys(keys, ids)
	} else {
		for i, s := range subs {
			d.exact.Insert(s.Point(), ids[i])
		}
	}
	return ids, nil
}

// Remove deletes a previously inserted subscription by id, from the index
// at the key the held set gives back: a held word as it is, a held
// rectangle by its point.
func (d *Detector) Remove(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	k, p, ok := d.held.Release(id, d.point[:])
	if !ok {
		return fmt.Errorf("core: no subscription with id %d", id)
	}
	var found bool
	if p == nil {
		found = d.sfc.DeleteWord(k, id)
	} else {
		found = d.exact.Delete(p, id)
	}
	if !found {
		return fmt.Errorf("core: index out of sync for id %d", id)
	}
	return nil
}

// Subscription returns the held subscription with the given id.
func (d *Detector) Subscription(id uint64) (*subscription.Subscription, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.held.Rect(id)
	if !ok {
		return nil, false
	}
	return r.Subscription(d.cfg.Schema), true
}

// Holds reports whether id names a held subscription.
func (d *Detector) Holds(id uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.held.Holds(id)
}

// FindCover searches the held set for a subscription covering s, per the
// configured mode. The returned stats are zero-valued for non-SFC
// strategies and for ModeOff.
func (d *Detector) FindCover(s *subscription.Subscription) (id uint64, found bool, stats dominance.Stats, err error) {
	if s.Schema() != d.cfg.Schema {
		return 0, false, stats, fmt.Errorf("core: subscription schema differs from detector schema")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.cfg.Mode {
	case ModeOff:
		return 0, false, stats, nil
	case ModeApprox:
		id, found, stats, err = d.sfc.Query(s.Point(), d.cfg.Epsilon)
	default: // ModeExact
		if d.sfc != nil {
			id, found, stats, err = d.sfc.Query(s.Point(), 0)
		} else {
			id, found = d.exact.QueryDominating(s.Point())
		}
	}
	if err != nil {
		return 0, false, stats, err
	}
	// Fold the answer into the lifetime totals: zero stats (a baseline
	// strategy) count under dominance.PathNone, so the per-path counts
	// always sum to Queries.
	d.totals.Queries++
	if found {
		d.totals.Hits++
	}
	d.totals.RunsProbed += stats.RunsProbed
	d.totals.CubesGenerated += stats.CubesGenerated
	d.totals.PathQueries[stats.Path]++
	return id, found, stats, nil
}

// Add is the router's arrival path: search for a cover of s and insert s
// either way. covered reports whether a cover was found, coveredBy its id.
func (d *Detector) Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error) {
	coveredBy, covered, _, err = d.FindCover(s)
	if err != nil {
		return 0, false, 0, err
	}
	id, err = d.Insert(s)
	if err != nil {
		return 0, false, 0, err
	}
	return id, covered, coveredBy, nil
}

// Totals returns a snapshot of the aggregate query counters.
func (d *Detector) Totals() Totals {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.totals
}
