// Package engine scales covering detection past a single Detector by
// partitioning the subscription set across N shards and fanning batched
// operations out over goroutines each call starts and waits for, so an
// engine holds no goroutine between calls.
//
// There is one execution plan. The space filling curve's key space is
// split into N contiguous slices (dominance.ShardedIndex), and a
// subscription store holds one stripe per slice, chosen when the
// subscription arrives. A covering query runs one search over the whole
// index, in the index's one order: the successor walk, whose first probe
// is the region's largest cube, and only past the walk's step budget the
// paper's cube search. Its
// cursors and key ranges are computed outside any lock, and each seek or
// probe takes the read lock of the slice it lands in, running on into the
// next slice when its own holds nothing further. So no search is repeated
// per shard, and readers contend only on brief per-descent read locks.
// Updates lock one store stripe and one index slice. Where the slice
// boundaries lie is the engine's own decision: the first bulk load places
// them, and the write path moves them (rebalance.go).
//
// The approximation guarantee survives sharding: the index reports only
// genuine covers, hence so does the engine, and in exact mode it finds a
// cover exactly when a single detector does.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/obs"
	"sfccover/internal/subscription"
)

// Partition names how subscriptions are assigned to shards. It is a
// single-valued enum: the engine has one plan, and the name survives only
// because configurations and the daemon's hello frame spell it out.
type Partition string

// PartitionPrefix assigns each subscription by the key range its SFC key
// falls in: curve-adjacent subscriptions share a shard and queries share
// one decomposition across shards, probing only the slices each cube
// range intersects. The range boundaries are the engine's own decision —
// quantiles of the first bulk load, moved by the write path's rebalancer
// as the population drifts (rebalance.go).
const PartitionPrefix Partition = "prefix"

// Config parameterizes an Engine.
type Config struct {
	// Detector is the detector template (schema, mode, epsilon, strategy,
	// budget). StrategyLinear (exact only) answers covering
	// queries by scanning the store instead of the index — the exact
	// reference.
	Detector core.Config
	// Shards is the number of partitions (default DefaultShards).
	Shards int
	// Partition is PartitionPrefix; empty means the same, anything else
	// is an error.
	Partition Partition
	// Obs is the engine's observer: latency histograms at every tier,
	// sampled query traces and the slow-query log. Leave nil to have the
	// engine build one with default settings; telemetry is on by default
	// and cheap enough to stay on (set TelemetryOff to disable it
	// entirely).
	Obs *obs.Observer
	// TelemetryOff disables all latency recording and tracing. The
	// benchmark suite uses it to pin the telemetry overhead bound; it is
	// not meant for production configurations.
	TelemetryOff bool
}

// DefaultShards is the shard count used when Config leaves Shards zero.
const DefaultShards = 8

// Totals aggregates engine-level counters: logical engine operations, so
// an exact scan that walked four store stripes adds one to Queries and
// four to ShardSearches.
type Totals struct {
	// Queries is the number of logical cover queries served.
	Queries int
	// Hits is how many found a cover.
	Hits int
	// RunsProbed and CubesGenerated sum the search costs, in the paper's
	// cost units.
	RunsProbed     int
	CubesGenerated int
	// PathQueries counts the queries by the cut that ended their search,
	// indexed by dominance.Path.
	PathQueries [dominance.NumPaths]int
	// ShardSearches is the number of per-shard searches issued. An index
	// search shares one decomposition across the slices and counts once,
	// so ShardSearches/Queries is 1.0 for indexed queries; only the exact
	// store scans count one per stripe walked.
	ShardSearches int
}

// QueryResult is one CoverQueryBatch outcome, an alias of the core type
// core.Provider's batch methods return.
type QueryResult = core.QueryResult

// AddResult is one AddBatch outcome: the id assigned to the inserted
// subscription plus the result of the pre-insert covering query. (The
// single-item Add returns plain values instead.) An alias of the core
// type, like QueryResult.
type AddResult = core.AddResult

// Engine is a sharded, concurrent covering-detection engine. All methods
// are safe for concurrent use; batch items are processed in parallel with
// no ordering guarantee between items of the same batch.
type Engine struct {
	cfg    Config
	schema *subscription.Schema

	// The plan's state (store.go): the key-range-partitioned index and the
	// striped subscription store.
	linear bool // StrategyLinear: exact covers come from a store scan
	idx    *dominance.ShardedIndex
	stores []stripe

	// closed is set by Close; batch operations and Restore issued after
	// it report core.ErrProviderClosed.
	closed atomic.Bool

	// rebalanceMu serializes whole passes (a forced Rebalance racing the
	// write path's) and the write path's skew checks, so per-pass counters
	// and results stay coherent and no check reads a pass half done.
	rebalanceMu sync.Mutex
	// sizes is skew's buffer for the slice occupancies, used under
	// rebalanceMu, so a write path's check allocates nothing.
	sizes []int
	// sinceCheck counts inserts since the write path last read the skew.
	sinceCheck atomic.Int64

	// Query counters. A query is counted once, in counts, by the cut that
	// ended it, by whether it found a cover and by whether it took exactly
	// one descent. runsProbed holds the descents of the other queries
	// (Totals adds one a one-descent query back), and extraSearches the
	// searches beyond each query's first (Totals adds one a query back,
	// except in mode off, where no query searches); runsProbed, cubes and
	// extraSearches are added to only when positive, so every counter only
	// grows and Totals, a sum of them with no negative term, never falls
	// between two reads. A warm top-cube hit makes one add, its one shared write.
	counts        [dominance.NumPaths][2][2]atomic.Int64
	runsProbed    atomic.Int64
	cubes         atomic.Int64
	extraSearches atomic.Int64

	rebalances      atomic.Int64
	boundaryMoves   atomic.Int64
	migratedEntries atomic.Int64

	// obs is the engine's observer; nil when Config.TelemetryOff. The
	// histogram pointers below are resolved once at construction so the
	// hot paths never touch the registry lock.
	obs    *obs.Observer
	hQuery *obs.Histogram
	// The single writes' and the batch calls' latencies (see writeSample).
	insertLat, removeLat                                       timed
	addBatchLat, insertBatchLat, queryBatchLat, removeBatchLat timed
}

// New builds an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Detector.Schema == nil {
		return nil, fmt.Errorf("engine: config needs a schema")
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("engine: invalid shard count %d", cfg.Shards)
	}
	if cfg.Partition == "" {
		cfg.Partition = PartitionPrefix
	}
	if cfg.Partition != PartitionPrefix {
		return nil, fmt.Errorf("engine: unknown partition strategy %q (only %q exists)", cfg.Partition, PartitionPrefix)
	}
	// One template detector validates the config and resolves its defaults
	// (strategy; MaxCubes in the dominance convention, 0 = unlimited).
	template, err := core.New(cfg.Detector)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	e := &Engine{
		cfg:    cfg,
		schema: cfg.Detector.Schema,
	}
	if err := e.initStore(template.Config()); err != nil {
		return nil, err
	}
	if !cfg.TelemetryOff {
		if cfg.Obs == nil {
			cfg.Obs = obs.New(obs.Config{})
			e.cfg.Obs = cfg.Obs
		}
		e.obs = cfg.Obs
		e.hQuery = e.obs.Hist("engine_query")
		e.insertLat.h = e.obs.Hist("engine_insert")
		e.removeLat.h = e.obs.Hist("engine_remove")
		e.addBatchLat.h = e.obs.Hist("engine_add_batch")
		e.insertBatchLat.h = e.obs.Hist("engine_insert_batch")
		e.queryBatchLat.h = e.obs.Hist("engine_query_batch")
		e.removeBatchLat.h = e.obs.Hist("engine_remove_batch")
		// Traced queries sample their run probes into "run_probe".
		e.idx.SetObserver(e.obs)
	}
	return e, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Close marks the engine closed. An engine holds no goroutine between
// calls, so there is nothing to stop or wait for. Close is idempotent — a
// second call is a specified no-op — and batch operations and Restore
// issued after it fail with core.ErrProviderClosed.
func (e *Engine) Close() { e.closed.Store(true) }

// NumShards returns the configured shard count.
func (e *Engine) NumShards() int { return e.cfg.Shards }

// Config returns the engine's configuration with defaults resolved
// (Shards, Partition; the detector template as given). Service
// layers use it to derive compatible side indexes — the sfcd server
// builds its per-link namespace detectors from Config().Detector.
func (e *Engine) Config() Config { return e.cfg }

// PartitionStrategy returns the configured partition strategy.
func (e *Engine) PartitionStrategy() Partition { return e.cfg.Partition }

// Mode returns the per-shard detection mode.
func (e *Engine) Mode() core.Mode { return e.cfg.Detector.Mode }

// Schema returns the engine's attribute schema.
func (e *Engine) Schema() *subscription.Schema { return e.schema }

// record folds one logical query's outcome into the engine counters: one
// add to its path, found and one-descent cell, and its probes, cubes and
// searches only where Totals cannot derive them.
//
//sfc:hotpath
func (e *Engine) record(res *QueryResult, searches int) {
	found, one := 0, 0
	if res.Covered {
		found = 1
	}
	if runs := res.Stats.RunsProbed; runs == 1 {
		one = 1
	} else if runs > 0 {
		e.runsProbed.Add(int64(runs))
	}
	e.counts[res.Stats.Path][found][one].Add(1)
	if res.Stats.CubesGenerated != 0 {
		e.cubes.Add(int64(res.Stats.CubesGenerated))
	}
	// An indexed search is one, a store scan one a stripe, and a mode-off
	// query none.
	if searches > 1 {
		e.extraSearches.Add(int64(searches - 1))
	}
}

func (e *Engine) checkSchema(s *subscription.Subscription) error {
	if s.Schema() != e.schema {
		return fmt.Errorf("engine: subscription schema differs from engine schema")
	}
	return nil
}

// findCover runs one logical covering query — a single op or a batch
// item alike — and records it: counters always, and for the
// 1-in-TraceSample queries it elects, latency and a full trace record
// (slow ones land in the slow-query log). On machines without a fast
// clock path a time.Now pair is a measurable slice of a hot covering
// query, so only elected queries read the clock: the engine_query
// histogram holds a uniform 1-in-TraceSample sample of all traffic —
// its distribution is unbiased, its count is the query count divided by
// TraceSample — while the exact count is Totals.Queries. A batch call's
// histogram times it whole (see writeSample).
//
// The election is that count: a query is Totals.Queries plus one, read
// after the schema check, so a refused query, which counts nowhere, elects
// nothing. One goroutine elects exactly its k·rate-th counted query;
// concurrent ones may read one count twice, but no election looks at the
// query, so the sample stays unbiased.
//
// The outcome is written into res, which the caller owns and hands over
// zeroed: a single op's local or a batch's slot, so no result is copied
// between the query's frames.
//
//sfc:hotpath
func (e *Engine) findCover(s *subscription.Subscription, res *QueryResult) {
	if err := e.checkSchema(s); err != nil {
		res.Err = err
		return
	}
	var tr *obs.QueryTrace
	if e.obs != nil {
		// Straight-line loads: a summing helper's call cost ~5 % a warm hit.
		c := &e.counts
		n := c[0][0][0].Load() + c[0][0][1].Load() + c[0][1][0].Load() + c[0][1][1].Load() +
			c[1][0][0].Load() + c[1][0][1].Load() + c[1][1][0].Load() + c[1][1][1].Load() +
			c[2][0][0].Load() + c[2][0][1].Load() + c[2][1][0].Load() + c[2][1][1].Load()
		tr = e.obs.SampleTrace("query", uint64(n)+1)
	}
	e.findCoverTraced(s, tr, res)
}

// findCoverTraced is findCover with an explicit (possibly nil) trace; it
// checks the schema itself for TraceCover.
//
//sfc:hotpath
func (e *Engine) findCoverTraced(s *subscription.Subscription, tr *obs.QueryTrace, res *QueryResult) {
	if err := e.checkSchema(s); err != nil {
		res.Err = err
		return
	}
	searches := e.searchCover(s, tr, res)
	if res.Err != nil {
		return
	}
	e.record(res, searches)
	if tr != nil {
		d := time.Since(tr.Start)
		e.hQuery.Observe(d)
		tr.Cost = dominance.CostOf(res.Stats)
		e.obs.FinishTrace(tr, d)
	}
}

// TraceCover runs one covering query with tracing forced on and returns
// the sealed trace alongside the result: per-stage timings, per-slice
// probe counts and the query's cost stats. It backs the daemon's trace
// wire op. The query still counts toward every engine total and
// histogram; the trace also lands in the slow-query log when it
// qualifies.
func (e *Engine) TraceCover(s *subscription.Subscription) (QueryResult, *obs.QueryTrace) {
	tr := e.obs.StartTrace("query")
	if tr == nil {
		// Telemetry is off; trace this one query anyway — the caller
		// asked for it explicitly.
		tr = &obs.QueryTrace{Op: "query", Start: time.Now()}
	}
	var res QueryResult
	e.findCoverTraced(s, tr, &res)
	if tr.Total == 0 && res.Err == nil {
		tr.Total = time.Since(tr.Start)
	}
	return res, tr
}

// FindCover searches the shards for a subscription covering s. The
// approximate-mode guarantee is preserved: a reported cover is always
// genuine.
func (e *Engine) FindCover(s *subscription.Subscription) (id uint64, found bool, stats dominance.Stats, err error) {
	var res QueryResult
	e.findCover(s, &res)
	return res.CoveredBy, res.Covered, res.Stats, res.Err
}

// Observer returns the engine's observer (nil when Config.TelemetryOff):
// the latency histogram registry and the slow-query log. Service layers
// adopt it so daemon-level op timings land in the same registry as the
// engine's own stages.
func (e *Engine) Observer() *obs.Observer { return e.obs }

// Add runs the router arrival path: query for a cover, then insert s into
// its home shard either way. The signature matches core.Provider (and the
// single Detector), so routers can swap backends freely.
func (e *Engine) Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error) {
	var res QueryResult
	e.findCover(s, &res)
	if res.Err != nil {
		return 0, false, 0, res.Err
	}
	return e.insert(s), res.Covered, res.CoveredBy, nil
}

// writeSample is the latency sampling rate of the small calls: Insert,
// Remove, and a batch call (or Restore) of fewer than writeSample items
// time their 1st, 17th, 33rd … such call into their own histogram
// (engine_insert, engine_remove, engine_add_batch …), so the first call
// of a fresh engine already shows, and the others read no clock — a
// time.Now pair is a measurable slice of an insert, and of a broker
// link's few-item batch. A batch call of writeSample items or more is
// always timed: its clock pair costs each item no more than a sampled
// call's does on average, and a bulk load or a snapshot install is rare
// and long. Latency does not steer the call, so the single writes'
// histograms are unbiased samples, and a batch histogram holds every
// large call and 1 in writeSample of the small ones; counts are Len,
// Totals and the WAL counters, never theirs. A one-item Restore, a
// durable add's insert, is untimed like an Add's. A power of two, so
// election is a mask.
const writeSample = 16

// timed is one op's latency histogram (nil with telemetry off) and the
// count of its small calls, which elects the ones to time.
type timed struct {
	h     *obs.Histogram
	ticks atomic.Uint64
}

// elect reports whether a call of n items is timed: never with telemetry
// off, always when n >= writeSample, and otherwise when the op's count,
// which it advances, elects it.
func (t *timed) elect(n int) bool {
	return t.h != nil && (n >= writeSample || t.ticks.Add(1)&(writeSample-1) == 1)
}

// since records the time elapsed since t0, for an elected call.
func (t *timed) since(t0 time.Time) { t.h.Observe(time.Since(t0)) }

// Insert stores s unconditionally (no covering query) and returns its id.
func (e *Engine) Insert(s *subscription.Subscription) (uint64, error) {
	if err := e.checkSchema(s); err != nil {
		return 0, err
	}
	if !e.insertLat.elect(1) {
		return e.insert(s), nil
	}
	t0 := time.Now()
	id := e.insert(s)
	e.insertLat.since(t0)
	return id, nil
}

// Remove deletes a previously inserted subscription by engine id.
func (e *Engine) Remove(id uint64) error {
	if !e.removeLat.elect(1) {
		return e.remove(id)
	}
	t0 := time.Now()
	err := e.remove(id)
	e.removeLat.since(t0)
	return err
}

// Totals returns a snapshot of the engine-level counters.
func (e *Engine) Totals() Totals {
	tot := Totals{
		RunsProbed:     int(e.runsProbed.Load()),
		CubesGenerated: int(e.cubes.Load()),
	}
	for p := range e.counts {
		for found := range e.counts[p] {
			cells := &e.counts[p][found]
			many, one := int(cells[0].Load()), int(cells[1].Load())
			tot.PathQueries[p] += many + one
			tot.Queries += many + one
			tot.Hits += found * (many + one)
			tot.RunsProbed += one
		}
	}
	if e.cfg.Detector.Mode != core.ModeOff {
		tot.ShardSearches = tot.Queries + int(e.extraSearches.Load())
	}
	return tot
}

// Stats implements core.Provider: the engine totals plus the per-shard
// occupancy layout, including the max/min slice ratio the rebalancer acts
// on and the counts of what it has moved.
func (e *Engine) Stats() core.ProviderStats {
	tot := e.Totals()
	ps := core.ProviderStats{
		Queries:         tot.Queries,
		Hits:            tot.Hits,
		RunsProbed:      tot.RunsProbed,
		CubesGenerated:  tot.CubesGenerated,
		PathQueries:     tot.PathQueries,
		ShardSearches:   tot.ShardSearches,
		Rebalances:      int(e.rebalances.Load()),
		BoundaryMoves:   int(e.boundaryMoves.Load()),
		MigratedEntries: int(e.migratedEntries.Load()),
	}
	ps.SetShardSizes(e.ShardSizes())
	return ps
}

var _ core.Provider = (*Engine)(nil)

// run executes fn(0..n-1) in contiguous chunks, at most 2·GOMAXPROCS of
// them, and returns once every chunk is done. The chunks go to at most
// GOMAXPROCS goroutines, the caller's and ones started here, each taking
// the next chunk off a shared counter until none is left: a batch of one
// chunk starts none, and a goroutine the scheduler runs late finds the
// batch already done by the others instead of holding it up.
func run(n int, fn func(i int)) {
	procs := runtime.GOMAXPROCS(0)
	chunks := min(2*procs, n)
	if chunks <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for c := int(next.Add(1) - 1); c < chunks; c = int(next.Add(1) - 1) {
			for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(procs, chunks) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// AddBatch runs the arrival path for every subscription: all covering
// queries run concurrently first, then the inserts are bulk-loaded
// together — each key computed once, one sort, one lock acquisition per
// stripe and per slice instead of one per item. Results align with the
// input slice; failures are reported per item. Batch items are mutually
// unordered and no item's query observes another batch item's insert
// (covering misses are safe, so that is a correct outcome).
func (e *Engine) AddBatch(subs []*subscription.Subscription) []AddResult {
	if e.addBatchLat.elect(len(subs)) {
		defer e.addBatchLat.since(time.Now())
	}
	out := make([]AddResult, len(subs))
	if e.closed.Load() {
		for i := range out {
			out[i].Err = core.ErrProviderClosed
		}
		return out
	}
	run(len(subs), func(i int) { e.findCover(subs[i], &out[i].QueryResult) })
	valid := make([]int, 0, len(subs))
	batch := make([]*subscription.Subscription, 0, len(subs))
	for i := range out {
		if out[i].Err == nil {
			valid = append(valid, i)
			batch = append(batch, subs[i])
		}
	}
	ids := e.load(batch)
	for k, i := range valid {
		out[i].ID = ids[k]
	}
	return out
}

// InsertBatch stores every subscription unconditionally — no pre-insert
// covering queries — bulk-loaded as AddBatch loads its inserts, and
// returns the assigned ids aligned with the input:
// a bulk load pays the sorted bulk-load cost, not one covering query per
// entry. (Recovery loads through the same seam under the ids it recovered;
// see Restore.)
func (e *Engine) InsertBatch(subs []*subscription.Subscription) ([]uint64, error) {
	if e.insertBatchLat.elect(len(subs)) {
		defer e.insertBatchLat.since(time.Now())
	}
	for _, s := range subs {
		if err := e.checkSchema(s); err != nil {
			return nil, err
		}
	}
	if e.closed.Load() {
		return nil, core.ErrProviderClosed
	}
	return e.load(subs), nil
}

// CoverQueryBatch runs FindCover for every subscription concurrently,
// without inserting anything. Results align with the input slice.
func (e *Engine) CoverQueryBatch(subs []*subscription.Subscription) []QueryResult {
	if e.queryBatchLat.elect(len(subs)) {
		defer e.queryBatchLat.since(time.Now())
	}
	out := make([]QueryResult, len(subs))
	if e.closed.Load() {
		for i := range out {
			out[i].Err = core.ErrProviderClosed
		}
		return out
	}
	run(len(subs), func(i int) { e.findCover(subs[i], &out[i]) })
	return out
}

// RemoveBatch deletes the given ids concurrently. The returned slice
// aligns with the input; entries are nil on success.
func (e *Engine) RemoveBatch(ids []uint64) []error {
	if e.removeBatchLat.elect(len(ids)) {
		defer e.removeBatchLat.since(time.Now())
	}
	out := make([]error, len(ids))
	if e.closed.Load() {
		for i := range out {
			out[i] = core.ErrProviderClosed
		}
		return out
	}
	run(len(ids), func(i int) { out[i] = e.Remove(ids[i]) })
	return out
}

// --- shared helpers -----------------------------------------------------

// encodeID folds a shard index into a shard-local id; decodeID inverts
// it. Local ids start at 1, so the ids an engine mints are always >= the
// shard count; a restored id may be anything, and decodes to a stripe all
// the same.
func encodeID(shards, shard int, local uint64) uint64 {
	return local*uint64(shards) + uint64(shard)
}

func decodeID(shards int, id uint64) (shard int, local uint64) {
	n := uint64(shards)
	return int(id % n), id / n
}
