// Benchmarks: one per experiment (E1..E11, regenerating the corresponding
// EXPERIMENTS.md artifact with quick parameters) plus micro-benchmarks of
// the primitive operations the paper's cost model counts — curve key
// encoding, ordered-array probes, cube enumeration, and covering queries.
package sfccover_test

import (
	"context"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/broker"
	"sfccover/internal/core"
	"sfccover/internal/cubes"
	"sfccover/internal/dominance"
	"sfccover/internal/engine"
	"sfccover/internal/experiments"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
	"sfccover/internal/sfcarray"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Figure2(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Figure1(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3ApproxCost(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4ExhaustiveLB(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5AspectRatio(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6Dimensions(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7Recall(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8Broker(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Scaling(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10Array(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Curves(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12ProbeOrder(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13Churn(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14WalkVsCubes(b *testing.B) { benchExperiment(b, "E14") }

// --- Micro-benchmarks -------------------------------------------------

func BenchmarkKeyEncodeZ(b *testing.B) {
	c := sfc.MustZ(4, 16)
	rng := rand.New(rand.NewSource(1))
	cell := []uint32{
		uint32(rng.Intn(1 << 16)), uint32(rng.Intn(1 << 16)),
		uint32(rng.Intn(1 << 16)), uint32(rng.Intn(1 << 16)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Key(cell)
	}
}

func BenchmarkArrayInsert(b *testing.B) {
	var arr sfcarray.Index
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Insert(bits.KeyFromUint64(rng.Uint64()), uint64(i))
	}
}

// loadedArray holds 100 000 random one-word keys.
func loadedArray(rng *rand.Rand) *sfcarray.Index {
	arr := new(sfcarray.Index)
	for i := 0; i < 100000; i++ {
		arr.Insert(bits.KeyFromUint64(rng.Uint64()), uint64(i))
	}
	return arr
}

func BenchmarkArrayProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	arr := loadedArray(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Uint64()
		arr.FirstInRange(bits.KeyFromUint64(lo), bits.KeyFromUint64(lo|0xFFFFFF))
	}
}

// BenchmarkArraySeek is the successor walk's unit: a chain of seeks whose
// cursor only ascends, each a short jump past the key the last one
// stopped at, restarted from a random key every 16 steps.
func BenchmarkArraySeek(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	arr := loadedArray(rng)
	b.ReportAllocs()
	b.ResetTimer()
	var cursor uint64
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			cursor = rng.Uint64()
		}
		key, _, ok := arr.Seek(bits.KeyFromUint64(cursor))
		if !ok {
			cursor = 0
			continue
		}
		kv, _ := key.Uint64()
		cursor = kv + 1<<45
	}
}

func BenchmarkDecomposeExtremal(b *testing.B) {
	e := geom.MustExtremal([]uint64{257, 257}, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cubes.Decompose(e.Rect(), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumLevelVisit(b *testing.B) {
	e := geom.MustExtremal([]uint64{1023, 1023, 1023, 1023}, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := cubes.EnumLevelVisit(e, 7, func([]uint32, uint64) bool {
			count++
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDominanceQuery times point dominance queries on a 50 000-point
// index: through Query (walk, cubes on overrun) or, with cubesOnly,
// through QueryCubes — the paper's search alone — so the two stay
// comparable in-tree.
func benchDominanceQuery(b *testing.B, eps float64, miss, cubesOnly bool) {
	b.Helper()
	const d, k = 4, 14
	idx := dominance.MustIndex(dominance.Config{Dims: d, Bits: k, MaxCubes: 50000})
	query := idx.Query
	if cubesOnly {
		query = idx.QueryCubes
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50000; i++ {
		p := make([]uint32, d)
		for j := range p {
			p[j] = uint32(rng.Int63n(1 << k))
		}
		idx.Insert(p, uint64(i))
	}
	qs := make([][]uint32, 256)
	for i := range qs {
		q := make([]uint32, d)
		for j := range q {
			if miss {
				q[j] = uint32(uint64(1)<<k - 1 - uint64(rng.Intn(4)))
			} else {
				q[j] = uint32(rng.Int63n(1 << k))
			}
		}
		qs[i] = q
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := query(qs[i%len(qs)], eps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApproxQueryHit(b *testing.B)       { benchDominanceQuery(b, 0.3, false, false) }
func BenchmarkApproxQueryMiss(b *testing.B)      { benchDominanceQuery(b, 0.3, true, false) }
func BenchmarkApproxQueryMissCubes(b *testing.B) { benchDominanceQuery(b, 0.3, true, true) }

func BenchmarkLinearQueryMiss(b *testing.B) {
	const d, k = 4, 14
	lin := dominance.NewLinear()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		p := make([]uint32, d)
		for j := range p {
			p[j] = uint32(rng.Int63n(1<<k - 16))
		}
		lin.Insert(p, uint64(i))
	}
	q := []uint32{1<<k - 1, 1<<k - 1, 1<<k - 1, 1<<k - 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin.QueryDominating(q)
	}
}

func BenchmarkDetectorAdd(b *testing.B) {
	schema := subscription.MustSchema(10, "topic", "price")
	det := core.MustNew(core.Config{
		Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 10000,
	})
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 4096, WidthFrac: 0.3, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := det.Add(subs[i%len(subs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine scaling benchmarks ----------------------------------------
//
// BenchmarkCoverQuery* measure covering-query throughput on a hit-heavy
// population (planted parent/child covers): the single-threaded Detector
// baseline and the engine's CoverQueryBatch driven by at least 8
// goroutines. ns/op is per covering query in every variant, so the
// numbers compare directly. What the slices buy under contention is
// BenchmarkEngineContention's question (contention_test.go).

const (
	engineBenchPairs = 16384
	engineBenchBatch = 64
)

var engineBenchCfg = core.Config{
	Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 10000,
}

// engineBenchWorkload plants parent/child covers: parents are stored, the
// children are the queries (mostly hits, the router's steady state).
func engineBenchWorkload(b testing.TB) (parents, queries []*subscription.Subscription) {
	b.Helper()
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{
		Schema: schema, N: engineBenchPairs, SlackFrac: 0.2, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	parents = make([]*subscription.Subscription, len(pairs))
	queries = make([]*subscription.Subscription, len(pairs))
	for i, p := range pairs {
		parents[i] = p.Parent
		queries[i] = p.Child
	}
	return parents, queries
}

func BenchmarkCoverQueryDetectorSingleThread(b *testing.B) {
	parents, queries := engineBenchWorkload(b)
	cfg := engineBenchCfg
	cfg.Schema = parents[0].Schema()
	det := core.MustNew(cfg)
	for _, p := range parents {
		if _, err := det.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := det.FindCover(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyStateDetector builds the warm single-threaded detector the
// zero-allocation guarantee is pinned on: a planted-cover population and
// a small fixed query set whose covers lie in the top cube of their
// regions, so each query is one walk step — the top-cube probe. Each
// query runs twice off the clock, so the scratch buffers have reached
// their steady size.
func steadyStateDetector(tb testing.TB) (*core.Detector, []*subscription.Subscription) {
	tb.Helper()
	cfg, parents, queries := steadyStateWorkload(tb)
	det := core.MustNew(cfg)
	for _, p := range parents {
		if _, err := det.Insert(p); err != nil {
			tb.Fatal(err)
		}
	}
	warmShapes(tb, det.FindCover, queries)
	return det, queries
}

// steadyStateEngine is steadyStateDetector's population and shapes behind
// a default engine (eight slices, telemetry on), bulk-loaded as a daemon
// boots; each query has run twice off the clock here too.
func steadyStateEngine(tb testing.TB) (*engine.Engine, []*subscription.Subscription) {
	tb.Helper()
	cfg, parents, queries := steadyStateWorkload(tb)
	eng, err := engine.New(engine.Config{Detector: cfg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	if _, err := eng.InsertBatch(parents); err != nil {
		tb.Fatal(err)
	}
	warmShapes(tb, eng.FindCover, queries)
	return eng, queries
}

// steadyStateWorkload is the warm path's configuration, planted-cover
// population and 64 recurring query shapes.
func steadyStateWorkload(tb testing.TB) (cfg core.Config, parents, queries []*subscription.Subscription) {
	tb.Helper()
	parents, children := engineBenchWorkload(tb)
	cfg = engineBenchCfg
	cfg.Schema = parents[0].Schema()
	// A small budget keeps a query that overran the walk cheap in the cube
	// search; on this hit-heavy set the walk answers every one.
	cfg.MaxCubes = 1000
	return cfg, parents, children[:64]
}

// warmShapes runs every query twice through find.
func warmShapes(tb testing.TB, find func(*subscription.Subscription) (uint64, bool, dominance.Stats, error), queries []*subscription.Subscription) {
	tb.Helper()
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			if _, _, _, err := find(q); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkCoverQuery measures the steady-state covering-query hot path:
// a single-threaded Detector answering a recurring query set whose covers
// the walk's top-cube probe finds — one descent, no decomposition, no run
// merging, and (asserted by TestSteadyStateQueryZeroAlloc) no
// allocation.
func BenchmarkCoverQuery(b *testing.B) {
	det, queries := steadyStateDetector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := det.FindCover(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverQueryEngine is BenchmarkCoverQuery's population and shapes
// through a default engine instead of a Detector: the same top-cube hits,
// so the difference between the two lines is the engine's fixed cost per
// query over the Detector's (slice routing, the counter cell's add, and
// the trace election, which loads the counter cells and writes nothing).
func BenchmarkCoverQueryEngine(b *testing.B) {
	eng, queries := steadyStateEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.FindCover(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateQueryZeroAlloc is the allocation regression guard for
// the covering-query hot path: once its scratch is warm, a
// single-threaded FindCover must not allocate at all. Any regression —
// a method-value binding, a per-query slice, a clock read growing an
// escape — shows up here as a hard failure in plain `go test`.
func TestSteadyStateQueryZeroAlloc(t *testing.T) {
	det, queries := steadyStateDetector(t)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[i%len(queries)]
		i++
		if _, _, _, err := det.FindCover(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state FindCover allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEngineWarmQueryZeroAlloc is the guard on the engine's warm path with
// telemetry on, as the engine is built by default: recurring shapes, every
// one a walk hit, average 0 allocs/op over 1 280 queries. The trace
// sampler elects ten of them (1 in 128), each allocating its record a few
// times; AllocsPerRun's integer mean keeps those under one, while one
// allocation on every query reads 1.
func TestEngineWarmQueryZeroAlloc(t *testing.T) {
	eng, queries := steadyStateEngine(t)
	i := 0
	allocs := testing.AllocsPerRun(1280, func() {
		q := queries[i%len(queries)]
		i++
		if _, found, st, err := eng.FindCover(q); err != nil || !found || st.Path != dominance.PathWalk {
			t.Fatalf("warm query %d = (found %v, path %v, %v), want a walk hit", i, found, st.Path, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm engine query allocates %.1f allocs/op with telemetry on, want 0", allocs)
	}
}

// TestEngineTopCubeHitZeroAlloc is the guard on the shortest warm path: a
// query its top cube answers, read off the slices' published corner words
// with no lock, through a default engine with telemetry on. It cycles
// through the warm shapes whose answer took that one probe, 1 280 queries,
// and reads 0 allocs/op as TestEngineWarmQueryZeroAlloc does.
func TestEngineTopCubeHitZeroAlloc(t *testing.T) {
	eng, queries := steadyStateEngine(t)
	var hits []*subscription.Subscription
	for _, q := range queries {
		if _, found, st, err := eng.FindCover(q); err == nil && found && st.Path == dominance.PathWalk && st.RunsProbed == 1 {
			hits = append(hits, q)
		}
	}
	if len(hits) < len(queries)/2 {
		t.Fatalf("%d of %d warm shapes are top-cube hits, want most", len(hits), len(queries))
	}
	i := 0
	allocs := testing.AllocsPerRun(1280, func() {
		q := hits[i%len(hits)]
		i++
		if _, found, st, err := eng.FindCover(q); err != nil || !found || st.RunsProbed != 1 {
			t.Fatalf("top-cube hit %d = (found %v, %d probes, %v), want one probe's hit", i, found, st.RunsProbed, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a top-cube hit allocates %.1f allocs/op with telemetry on, want 0", allocs)
	}
}

// TestMissPathWalkZeroAlloc is the guard's miss-path case: a query with
// no cover that the walk decides in ten steps or more — seeks routed
// through the engine's slices, successor jumps between them — allocates
// nothing either. A seek checks every entry of the leaf it lands in, so
// uniform shapes over engineBenchWorkload's parents end their walks within
// a few steps; the shapes are nearMissSubscriptions' at four attributes of
// eight bits, the near-miss query and copies of it moved in one
// coordinate, and the guard cycles through every one of them that misses
// after ten steps or more. Telemetry is off so that no query is
// trace-elected.
func TestMissPathWalkZeroAlloc(t *testing.T) {
	subs, shapes := nearMissSubscriptions(t, 4, 8)
	cfg := engineBenchCfg
	cfg.Schema = subs[0].Schema()
	eng, err := engine.New(engine.Config{Detector: cfg, TelemetryOff: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.InsertBatch(subs); err != nil {
		t.Fatal(err)
	}
	var misses []*subscription.Subscription
	for _, s := range shapes {
		_, found, st, err := eng.FindCover(s)
		if err != nil {
			t.Fatal(err)
		}
		if !found && st.Path == dominance.PathWalk && st.WalkSteps >= 10 {
			misses = append(misses, s)
		}
	}
	if len(misses) < 2 {
		t.Fatalf("%d near-miss shapes are walk misses of ten steps or more, want several", len(misses))
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s := misses[i%len(misses)]
		i++
		if _, found, _, err := eng.FindCover(s); err != nil || found {
			t.Fatal(found, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a walk miss through the engine allocates %.1f allocs/op, want 0", allocs)
	}
}

// nearMissSubscriptions is workload.NearMiss as 16 384 subscriptions of
// attrs attributes of k bits, with 64 query shapes: the points and query
// of a (2·attrs) × (k−1) universe, each coordinate raised by 2^(k−1) into
// the upper half of the k-bit one. Dominance is unchanged by the shift,
// and there every point decodes to a range with ℓ ≤ r. The shapes are the
// query and copies of it with one coordinate moved, as the dominance
// walk tests draw them: every third one lowered by up to a quarter (it
// may gain a cover), every third one raised by up to a half (it stays a
// miss).
func nearMissSubscriptions(tb testing.TB, attrs, k int) (subs, shapes []*subscription.Subscription) {
	tb.Helper()
	pts, q, err := workload.NearMiss(2*attrs, k-1, 16384, 1)
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, attrs)
	for i := range names {
		names[i] = "a" + strconv.Itoa(i)
	}
	schema := subscription.MustSchema(k, names...)
	top := uint32(1)<<(k-1) - 1
	sub := func(p []uint32) *subscription.Subscription {
		for i := range p {
			p[i] = min(p[i], top) + 1<<(k-1)
		}
		s, err := subscription.FromPoint(schema, p)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	subs = make([]*subscription.Subscription, len(pts))
	for i, p := range pts {
		subs[i] = sub(p)
	}
	rng := rand.New(rand.NewSource(239))
	for i := 0; i < 64; i++ {
		v := append([]uint32(nil), q...)
		switch j := i % len(q); i % 3 {
		case 1:
			v[j] -= uint32(rng.Intn(int(q[j]/4) + 1))
		case 2:
			v[j] += uint32(rng.Intn(int(q[j])/2 + 1))
		}
		shapes = append(shapes, sub(v))
	}
	return subs, shapes
}

// TestSteadyStateWireQueryAllocs is the same guard one layer out: a
// covering query through the pipelined client, over loopback TCP, into a
// live daemon and back. Client and server run in this process, so the
// count is both sides together: frames are encoded into pooled buffers,
// decoded into pooled scratch and answered by the warm engine path. The
// measured steady state is zero (the reflective JSON framing paid 27.5);
// the budget of 1 absorbs a pool refill after a GC cycle, not a
// per-request allocation.
func TestSteadyStateWireQueryAllocs(t *testing.T) {
	addr, queries := startBenchDaemon(t)
	queries = queries[:256]
	c, err := sfcd.Dial(addr, queries[0].Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	i := 0
	query := func() {
		q := queries[i%len(queries)]
		i++
		if _, _, err := c.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	for i < 3*len(queries) { // warm the scratch buffers and the pools
		query()
	}
	if allocs := testing.AllocsPerRun(2000, query); allocs > 1 {
		t.Errorf("steady-state wire query allocates %.1f allocs/op across client and server, want <= 1", allocs)
	} else {
		t.Logf("steady-state wire query: %.2f allocs/op", allocs)
	}
}

func benchEngineCoverQueryBatch(b *testing.B, telemetryOff bool) {
	parents, queries := engineBenchWorkload(b)
	cfg := engineBenchCfg
	cfg.Schema = parents[0].Schema()
	e := engine.MustNew(engine.Config{
		Detector:     cfg,
		Partition:    engine.PartitionPrefix,
		TelemetryOff: telemetryOff,
	})
	defer e.Close()
	for _, p := range parents {
		if _, err := e.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	// Guarantee >= 8 driving goroutines regardless of GOMAXPROCS.
	par := (8 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	b.SetParallelism(par)
	var cursor atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		batch := make([]*subscription.Subscription, 0, engineBenchBatch)
		flush := func() error {
			for _, r := range e.CoverQueryBatch(batch) {
				if r.Err != nil {
					return r.Err
				}
			}
			batch = batch[:0]
			return nil
		}
		for pb.Next() {
			i := int(cursor.Add(1)-1) % len(queries)
			batch = append(batch, queries[i])
			if len(batch) == engineBenchBatch {
				// b.Fatal must not run off the benchmark goroutine; report
				// and bail out of this worker instead.
				if err := flush(); err != nil {
					b.Error(err)
					return
				}
			}
		}
		if len(batch) > 0 {
			if err := flush(); err != nil {
				b.Error(err)
			}
		}
	})
}

// --- Telemetry overhead -----------------------------------------------
//
// BenchmarkCoverQueryTelemetry{On,Off} run the hit-heavy batch
// benchmark with histogram recording and trace sampling enabled (the
// default) versus disabled (EngineConfig.TelemetryOff), so benchstat puts
// a number on what always-on telemetry costs the hot path. EXPERIMENTS.md
// records the measured delta.

func BenchmarkCoverQueryTelemetryOn(b *testing.B)  { benchEngineCoverQueryBatch(b, false) }
func BenchmarkCoverQueryTelemetryOff(b *testing.B) { benchEngineCoverQueryBatch(b, true) }

// TestTelemetryOverheadSmoke pins always-on telemetry's cost on the hot
// covering-query path — single-op FindCover, where the per-call clock
// pair used to sit; batch items run the same function — via a
// fixed-iteration min-of-5 comparison between a default engine and one
// built with TelemetryOff. Timing comparisons are inherently noisy on
// shared workers, so the test only runs when SFCCOVER_TELEMETRY_SMOKE=1
// (CI sets it). Only trace-elected queries (1 in obs.DefaultTraceSample)
// read the clock, and the benchmark's obs.telemetry_overhead_ratio reads
// ~1.03 on a host whose clock costs 70 ns a read (EXPERIMENTS.md "Walk
// step"); 1.2x leaves room for a shared runner and still fails on one
// unconditional clock pair (the parent's read 1.26-1.48 here), a lock or
// an allocation on the per-query path.
func TestTelemetryOverheadSmoke(t *testing.T) {
	if os.Getenv("SFCCOVER_TELEMETRY_SMOKE") == "" {
		t.Skip("set SFCCOVER_TELEMETRY_SMOKE=1 to run the timing comparison")
	}
	parents, queries := engineBenchWorkload(t)
	cfg := engineBenchCfg
	cfg.Schema = parents[0].Schema()
	build := func(telemetryOff bool) *engine.Engine {
		e := engine.MustNew(engine.Config{
			Detector:     cfg,
			Shards:       4,
			Partition:    engine.PartitionPrefix,
			TelemetryOff: telemetryOff,
		})
		t.Cleanup(e.Close)
		for _, p := range parents {
			if _, err := e.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	round := func(e *engine.Engine) time.Duration {
		const iters = 100000
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, _, _, err := e.FindCover(queries[i%len(queries)]); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	// Rounds alternate between the two engines so drift in the box's
	// speed hits both; the first pair warms the pools and is dropped.
	engOn, engOff := build(false), build(true)
	on, off := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < 6; r++ {
		dOn, dOff := round(engOn), round(engOff)
		if r > 0 {
			on, off = min(on, dOn), min(off, dOff)
		}
	}
	ratio := float64(on) / float64(off)
	t.Logf("telemetry on %v, off %v (%.3fx)", on, off, ratio)
	if ratio > 1.2 {
		t.Errorf("telemetry overhead %.2fx exceeds the 1.2x smoke bound (on %v, off %v)", ratio, on, off)
	}
}

// BenchmarkEngineAddBatch measures the router arrival path (query +
// insert) through the batch API at the default shard count. The engine is
// swapped for a fresh one (off the clock) whenever it reaches the
// workload size, so ns/op reflects a bounded steady state instead of an
// index that grows with b.N.
func BenchmarkEngineAddBatch(b *testing.B) {
	parents, _ := engineBenchWorkload(b)
	cfg := engineBenchCfg
	cfg.Schema = parents[0].Schema()
	newEngine := func() *engine.Engine {
		return engine.MustNew(engine.Config{Detector: cfg, Partition: engine.PartitionPrefix})
	}
	e := newEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += engineBenchBatch {
		n := min(engineBenchBatch, b.N-i)
		batch := make([]*subscription.Subscription, n)
		for j := range batch {
			batch[j] = parents[(i+j)%len(parents)]
		}
		for _, r := range e.AddBatch(batch) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		if e.Len() >= len(parents) {
			b.StopTimer()
			e.Close()
			e = newEngine()
			b.StartTimer()
		}
	}
	e.Close()
}

// BenchmarkEngineAddBatchColdPrefix measures the cold-start bulk-load
// path: one AddBatch carrying the whole population into a fresh engine, so
// the shard-grouped insert (one stripe+slice lock round trip per shard
// instead of one per item) dominates the profile. ns/op is per inserted
// subscription.
func BenchmarkEngineAddBatchColdPrefix(b *testing.B) {
	parents, _ := engineBenchWorkload(b)
	cfg := engineBenchCfg
	cfg.Schema = parents[0].Schema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(parents) {
		b.StopTimer()
		e := engine.MustNew(engine.Config{Detector: cfg, Shards: 8})
		n := min(len(parents), b.N-i)
		b.StartTimer()
		for _, r := range e.AddBatch(parents[:n]) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}

// --- Broker churn benchmarks ------------------------------------------
//
// BenchmarkBrokerChurn* measure subscription-churn throughput through the
// overlay simulation — subscribe, propagate, then unsubscribe (exercising
// the covered-set resubscription path) — with the per-link detection
// backend as the variable: single detector versus the engine backend.
// ns/op is per churn operation (one subscribe or unsubscribe,
// drained).
func benchBrokerChurn(b *testing.B, backend broker.Backend) {
	schema := subscription.MustSchema(10, "topic", "price")
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 512, WidthFrac: 0.4, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := broker.MustNetwork(broker.BalancedTree(7), broker.Config{
		Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 5000,
		Backend: backend, BatchSize: 32,
	})
	defer n.Close()
	clients := make([]*broker.Client, 8)
	for i := range clients {
		c, err := n.AttachClient(i % n.NumBrokers())
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	// Live window: subscribe until 256 are live, then churn one out per
	// new arrival so the working set stays bounded as b.N grows.
	type live struct {
		client int
		sub    int
	}
	var window []live
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(window) >= 256 {
			w := window[0]
			window = window[1:]
			if err := n.Unsubscribe(clients[w.client].ID, subs[w.sub]); err != nil {
				b.Fatal(err)
			}
		} else {
			c, s := i%len(clients), i%len(subs)
			if err := n.Subscribe(clients[c].ID, subs[s]); err != nil {
				b.Fatal(err)
			}
			window = append(window, live{client: c, sub: s})
		}
		n.Drain()
	}
	b.StopTimer()
	if n.Metrics().ProtocolErrors != 0 {
		b.Fatalf("protocol errors: %d", n.Metrics().ProtocolErrors)
	}
}

func BenchmarkBrokerChurnDetector(b *testing.B)     { benchBrokerChurn(b, broker.BackendDetector) }
func BenchmarkBrokerChurnEnginePrefix(b *testing.B) { benchBrokerChurn(b, broker.BackendEnginePrefix) }

// BenchmarkOverlayPublish measures the overlay's event path in the shape
// of the benchmark's overlay_pubsub workload: a 15-broker tree, 30
// clients, 1 000 planted-pair subscriptions (parent, child, parent, …) of
// width 0.3 on detector links at ε 0.2 and a 1 000-cube cap. ns/op is one
// publish drained to quiescence — row matching on every broker it
// reaches, forwards and deliveries — with no subscription churn.
func BenchmarkOverlayPublish(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 500, SlackFrac: 0.2, WidthFrac: 0.3, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	events, err := workload.Events(workload.EventSpec{Schema: schema, N: 4096, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	n := broker.MustNetwork(broker.BalancedTree(15), broker.Config{
		Schema: schema, Mode: core.ModeApprox, Epsilon: 0.2, MaxCubes: 1000,
	})
	defer n.Close()
	clients := make([]*broker.Client, 30)
	for i := range clients {
		c, err := n.AttachClient(i % n.NumBrokers())
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	for i, p := range pairs {
		for k, s := range []*subscription.Subscription{p.Parent, p.Child} {
			if err := n.Subscribe(clients[(2*i+k)%len(clients)].ID, s); err != nil {
				b.Fatal(err)
			}
			n.Drain()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Publish(clients[i%len(clients)].ID, events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
		n.Drain()
		for _, c := range clients {
			c.Received = c.Received[:0]
		}
	}
	b.StopTimer()
	if n.Metrics().ProtocolErrors != 0 {
		b.Fatalf("protocol errors: %d", n.Metrics().ProtocolErrors)
	}
}

// BenchmarkOverlaySubscribe measures the overlay's subscription path in
// BenchmarkOverlayPublish's shape (a 15-broker tree, 30 clients, planted
// pairs of width 0.3, ε 0.2, a 1 000-cube cap) with overlay_pubsub's churn:
// 2 000 subscriptions cycled through a live window of 1 000. ns/op is one
// churn op drained to quiescence — alternately an unsubscribe of the
// oldest live subscription (retractions, re-screens and re-forwards on
// every hop it reached) and a subscribe of the next one (a covering query
// per link it reaches) — with no events.
func BenchmarkOverlaySubscribe(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 1000, SlackFrac: 0.2, WidthFrac: 0.3, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]*subscription.Subscription, 0, 2*len(pairs))
	for _, p := range pairs {
		subs = append(subs, p.Parent, p.Child)
	}
	n := broker.MustNetwork(broker.BalancedTree(15), broker.Config{
		Schema: schema, Mode: core.ModeApprox, Epsilon: 0.2, MaxCubes: 1000,
	})
	defer n.Close()
	clients := make([]*broker.Client, 30)
	for i := range clients {
		c, err := n.AttachClient(i % n.NumBrokers())
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	// Subscription i (unwrapped) belongs to client i mod 30 and is
	// subs[i mod 2000].
	const window = 1000
	subscribe := func(i int) {
		if err := n.Subscribe(clients[i%len(clients)].ID, subs[i%len(subs)]); err != nil {
			b.Fatal(err)
		}
		n.Drain()
	}
	for i := range window {
		subscribe(i)
	}
	oldest, next := 0, window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := n.Unsubscribe(clients[oldest%len(clients)].ID, subs[oldest%len(subs)]); err != nil {
				b.Fatal(err)
			}
			n.Drain()
			oldest++
		} else {
			subscribe(next)
			next++
		}
	}
	b.StopTimer()
	if n.Metrics().ProtocolErrors != 0 {
		b.Fatalf("protocol errors: %d", n.Metrics().ProtocolErrors)
	}
}

// --- Daemon client benchmarks -----------------------------------------
//
// BenchmarkDaemonFindCover* quantify the pipelining redesign: 16
// goroutines issue covering queries over ONE TCP connection to a live
// daemon. The pipelined client interleaves them — ids demultiplex the
// responses, writes coalesce into shared flushes — while the lock-step
// comparator reproduces the previous client's discipline: a mutex admits
// one request/response round trip at a time, so callers convoy behind
// each other's network latency. ns/op is per covering query.

// lockstepClient is the pre-redesign wire discipline: one in-flight
// request per connection, serialized by a mutex around the round trip.
type lockstepClient struct {
	mu sync.Mutex
	c  *sfcd.Client
}

func (c *lockstepClient) query(s *subscription.Subscription) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, err := c.c.Query(context.Background(), s)
	return err
}

// startBenchDaemon boots a daemon preloaded with a planted-cover
// population and returns its address. The population is smaller than the
// engine benchmarks' — the quantity under test is protocol overhead per
// query, not index scaling, and preloading happens per benchmark run.
func startBenchDaemon(b testing.TB) (addr string, queries []*subscription.Subscription) {
	b.Helper()
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{
		Schema: schema, N: 2048, SlackFrac: 0.35, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	parents := make([]*subscription.Subscription, len(pairs))
	queries = make([]*subscription.Subscription, len(pairs))
	for i, p := range pairs {
		parents[i] = p.Parent
		queries[i] = p.Child
	}
	// Generous covers and a tight probe budget keep each query cheap (the
	// router's hit-heavy steady state), so the comparison isolates what
	// the two wire disciplines cost rather than the index search.
	cfg := core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 1000}
	eng := engine.MustNew(engine.Config{
		Detector:  cfg,
		Shards:    4,
		Partition: engine.PartitionPrefix,
	})
	srv := sfcd.NewServer(eng)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	for lo := 0; lo < len(parents); lo += 1024 {
		hi := min(lo+1024, len(parents))
		for _, r := range eng.AddBatch(parents[lo:hi]) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	return bound.String(), queries
}

// daemonBenchGoroutines is the concurrency of the client benchmarks.
const daemonBenchGoroutines = 16

func BenchmarkDaemonFindCoverLockstep16(b *testing.B) {
	addr, queries := startBenchDaemon(b)
	cl, err := sfcd.Dial(addr, queries[0].Schema())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	c := &lockstepClient{c: cl}
	var cursor atomic.Int64
	par := (daemonBenchGoroutines + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	b.SetParallelism(par)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := queries[int(cursor.Add(1)-1)%len(queries)]
			if err := c.query(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkDaemonFindCoverPipelined16(b *testing.B) {
	addr, queries := startBenchDaemon(b)
	schema := queries[0].Schema()
	c, err := sfcd.Dial(addr, schema)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var cursor atomic.Int64
	par := (daemonBenchGoroutines + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	b.SetParallelism(par)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := queries[int(cursor.Add(1)-1)%len(queries)]
			if _, _, err := c.Query(ctx, q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWireMixed is wire_mixed's shape against the same daemon: two
// callers share one pipelined client, and per ten ops each issues eight
// covering queries, one subscribe and one unsubscribe of its own previous
// subscription. Client and server share this process, so /proc/self/io
// counts the read and write syscalls of both ends of the loopback; they
// are reported per op where that file is readable.
func BenchmarkWireMixed(b *testing.B) {
	addr, queries := startBenchDaemon(b)
	c, err := sfcd.Dial(addr, queries[0].Schema())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const callers = 2
	var wg sync.WaitGroup
	b.ReportAllocs()
	reads0, writes0, ioOK := procSyscalls()
	b.ResetTimer()
	for g := 0; g < callers; g++ {
		n := b.N / callers
		if g == 0 {
			n += b.N % callers
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sid uint64
			for i := 0; i < n; i++ {
				q := queries[(i*callers+g)%len(queries)]
				var err error
				switch i % 10 {
				case 0:
					sid, _, _, err = c.Subscribe(ctx, q)
				case 5:
					err = c.Unsubscribe(ctx, sid)
				default:
					_, _, err = c.Query(ctx, q)
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if reads1, writes1, ok := procSyscalls(); ok && ioOK {
		b.ReportMetric(float64(reads1-reads0)/float64(b.N), "reads/op")
		b.ReportMetric(float64(writes1-writes0)/float64(b.N), "writes/op")
	}
}

// procSyscalls reads the process's read and write syscall counts (syscr
// and syscw in /proc/self/io); ok is false where the file is unreadable.
func procSyscalls() (reads, writes uint64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		key, val, _ := strings.Cut(line, ": ")
		var dst *uint64
		switch key {
		case "syscr":
			dst = &reads
		case "syscw":
			dst = &writes
		default:
			continue
		}
		if *dst, err = strconv.ParseUint(val, 10, 64); err != nil {
			return 0, 0, false
		}
		found++
	}
	return reads, writes, found == 2
}

func BenchmarkSubscriptionMatch(b *testing.B) {
	schema := subscription.MustSchema(10, "stock", "volume", "current")
	sub := subscription.MustParse(schema, "stock == 3 && volume > 500 && current < 95")
	ev, err := subscription.ParseEvent(schema, "stock = 3, volume = 1000, current = 88")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sub.Matches(ev) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkEOTransform(b *testing.B) {
	schema := subscription.MustSchema(12, "a", "b", "c", "d")
	sub := subscription.MustParse(schema, "a in [10,2000] && b in [5,100] && c >= 7 && d <= 3000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sub.Point()
	}
}

// nearMissIndex loads 16 384 workload.NearMiss points into a single-array
// index at the benchmark's universe (d = 4, k = 10, the daemon's step
// budget).
func nearMissIndex(tb testing.TB) (*dominance.Index, []uint32) {
	tb.Helper()
	pts, q, err := workload.NearMiss(4, 10, 16384, 1)
	if err != nil {
		tb.Fatal(err)
	}
	idx := dominance.MustIndex(dominance.Config{Dims: 4, Bits: 10, MaxCubes: 50000})
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	idx.InsertBatch(pts, ids)
	return idx, q
}

// TestNearMissWalkSteps pins the walk's worst case: at n = 16 384
// near-miss points the one query is an exact miss that the walk decides
// alone, inside the step budget. Its step count depends on the population,
// the curve and — since seeks pass the leaves whose summaries rule out a
// dominator and check the entries of the leaf they land in — on the leaf
// layout the bulk load builds (leafFill entries a leaf): 7 215 steps when
// every stored key between the region's runs cost one, 161 with the
// summaries, 6 with the leaf check. A change to the number means the walk
// visits different keys or leaves, not that it got slower;
// BenchmarkNearMissQuery times it.
func TestNearMissWalkSteps(t *testing.T) {
	idx, q := nearMissIndex(t)
	_, found, st, err := idx.Query(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	const wantSteps = 6
	if found || st.Path != dominance.PathWalk || st.WalkSteps != wantSteps || st.RunsProbed != wantSteps {
		t.Fatalf("near-miss query: found=%v %+v, want an exact walk miss in %d steps", found, st, wantSteps)
	}
}

func BenchmarkNearMissQuery(b *testing.B) {
	idx, q := nearMissIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, _, err := idx.Query(q, 0.3); err != nil || found {
			b.Fatal(found, err)
		}
	}
}
