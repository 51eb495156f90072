package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/dominance"
	"sfccover/internal/obs"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

func testSchema(t testing.TB) *subscription.Schema {
	t.Helper()
	return subscription.MustSchema(10, "stock", "volume", "price")
}

func testSubs(t testing.TB, schema *subscription.Schema, n int, seed int64) []*subscription.Subscription {
	t.Helper()
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: n, WidthFrac: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func TestConfigValidation(t *testing.T) {
	schema := testSchema(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no schema", Config{}},
		{"negative shards", Config{Detector: core.Config{Schema: schema}, Shards: -1}},
		{"bad partition", Config{Detector: core.Config{Schema: schema}, Partition: "modulo"}},
		{"retired hash partition", Config{Detector: core.Config{Schema: schema}, Partition: "hash"}},
		{"kdtree strategy", Config{Detector: core.Config{Schema: schema, Strategy: "kdtree"}}},
		{"bad detector", Config{Detector: core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 7}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDefaults(t *testing.T) {
	e := MustNew(Config{Detector: core.Config{Schema: testSchema(t)}})
	defer e.Close()
	if got := e.NumShards(); got != DefaultShards {
		t.Errorf("NumShards = %d, want %d", got, DefaultShards)
	}
	if e.Len() != 0 {
		t.Errorf("empty engine Len = %d", e.Len())
	}
}

// TestExactParity: in exact mode the engine's answer must agree with a
// single exact detector on the existence of a cover, at several shard
// counts.
func TestExactParity(t *testing.T) {
	schema := testSchema(t)
	stored := testSubs(t, schema, 500, 1)
	queries := testSubs(t, schema, 300, 2)

	ref := core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	for _, s := range stored {
		if _, err := ref.Insert(s); err != nil {
			t.Fatal(err)
		}
	}

	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("%d", shards), func(t *testing.T) {
			e := MustNew(Config{
				Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
				Shards:   shards,
			})
			defer e.Close()
			for _, s := range stored {
				if _, err := e.Insert(s); err != nil {
					t.Fatal(err)
				}
			}
			if e.Len() != len(stored) {
				t.Fatalf("Len = %d, want %d", e.Len(), len(stored))
			}
			total := 0
			for _, n := range e.ShardSizes() {
				total += n
			}
			if total != len(stored) {
				t.Fatalf("ShardSizes sum = %d, want %d", total, len(stored))
			}
			for i, q := range queries {
				_, want, _, err := ref.FindCover(q)
				if err != nil {
					t.Fatal(err)
				}
				_, got, _, err := e.FindCover(q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("query %d: engine found=%v, reference found=%v", i, got, want)
				}
			}
		})
	}
}

// TestApproxSoundness: in approximate mode every claimed cover must be
// genuine, and the reported id must resolve to the covering subscription.
// Planted parent/child pairs with generous slack guarantee the search
// finds a healthy fraction of the covers.
func TestApproxSoundness(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{
		Schema: schema, N: 200, SlackFrac: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := MustNew(Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 20000},
		Shards:   4, Partition: PartitionPrefix,
	})
	defer e.Close()

	parents := make([]*subscription.Subscription, len(pairs))
	children := make([]*subscription.Subscription, len(pairs))
	for i, p := range pairs {
		parents[i] = p.Parent
		children[i] = p.Child
	}
	for _, p := range parents {
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	results := e.CoverQueryBatch(children)
	hits := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !r.Covered {
			continue // approximate misses are allowed
		}
		hits++
		cover, ok := e.Subscription(r.CoveredBy)
		if !ok {
			t.Fatalf("query %d: cover id %d does not resolve", i, r.CoveredBy)
		}
		if !cover.Covers(children[i]) {
			t.Errorf("query %d: claimed cover is not genuine", i)
		}
	}
	if hits < len(pairs)/2 {
		t.Errorf("recall too low: %d/%d planted covers found", hits, len(pairs))
	}
	tot := e.Totals()
	if tot.Queries != len(results) {
		t.Errorf("Totals.Queries = %d, want %d", tot.Queries, len(results))
	}
	if tot.Hits != hits {
		t.Errorf("Totals.Hits = %d, want %d", tot.Hits, hits)
	}
	if tot.ShardSearches < tot.Queries {
		t.Errorf("ShardSearches %d < Queries %d", tot.ShardSearches, tot.Queries)
	}
}

func TestRemove(t *testing.T) {
	schema := testSchema(t)
	e := MustNew(Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   4,
	})
	defer e.Close()
	subs := testSubs(t, schema, 64, 4)
	ids := make([]uint64, len(subs))
	for i, s := range subs {
		id, err := e.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		got, ok := e.Subscription(id)
		if !ok || !got.Equal(subs[i]) {
			t.Fatalf("id %d does not round-trip", id)
		}
	}
	errs := e.RemoveBatch(ids)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len after removal = %d", e.Len())
	}
	if err := e.Remove(ids[0]); err == nil {
		t.Error("double remove should fail")
	}
	if err := e.Remove(2); err == nil {
		t.Error("remove of reserved id should fail")
	}
	if _, ok := e.Subscription(1); ok {
		t.Error("reserved id should not resolve")
	}
}

func TestSchemaMismatch(t *testing.T) {
	e := MustNew(Config{Detector: core.Config{Schema: testSchema(t)}})
	defer e.Close()
	other := subscription.MustSchema(10, "stock", "volume", "price")
	s := subscription.New(other)
	if _, err := e.Insert(s); err == nil {
		t.Error("Insert across schemas should fail")
	}
	if _, _, _, err := e.FindCover(s); err == nil {
		t.Error("FindCover across schemas should fail")
	}
	if _, _, _, err := e.Add(s); err == nil {
		t.Error("Add across schemas should fail")
	}
}

func TestCoverQueryBatchMatchesSingle(t *testing.T) {
	schema := testSchema(t)
	e := MustNew(Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   4,
	})
	defer e.Close()
	for _, s := range testSubs(t, schema, 400, 5) {
		if _, err := e.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	queries := testSubs(t, schema, 200, 6)
	batch := e.CoverQueryBatch(queries)
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		if batch[i].Err != nil {
			t.Fatalf("query %d: %v", i, batch[i].Err)
		}
		_, want, _, err := e.FindCover(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Covered != want {
			t.Errorf("query %d: batch=%v single=%v", i, batch[i].Covered, want)
		}
	}
}

func TestPrefixPartitionIsStable(t *testing.T) {
	schema := testSchema(t)
	e := MustNew(Config{
		Detector: core.Config{Schema: schema}, Shards: 16, Partition: PartitionPrefix,
	})
	defer e.Close()
	for _, s := range testSubs(t, schema, 256, 7) {
		p := s.Point()
		first := e.idx.Locate(p).Slice
		if first < 0 || first >= e.NumShards() {
			t.Fatalf("shard %d out of range", first)
		}
		if again := e.idx.Locate(p).Slice; again != first {
			t.Fatalf("Locate not deterministic: %d then %d", first, again)
		}
	}
}

// TestConcurrentMixedOps hammers the engine from many goroutines; run
// under -race it validates the locking story.
func TestConcurrentMixedOps(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	e := MustNew(Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.4, MaxCubes: 2000},
		Shards:   4,
	})
	defer e.Close()

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs := testSubs(t, schema, 60, int64(100+g))
			results := e.AddBatch(subs)
			ids := make([]uint64, 0, len(results))
			for _, r := range results {
				if r.Err != nil {
					t.Error(r.Err)
					return
				}
				ids = append(ids, r.ID)
			}
			for _, q := range e.CoverQueryBatch(subs) {
				// Approximate queries may miss covers; only hard failures
				// are errors here.
				if q.Err != nil {
					t.Error(q.Err)
					return
				}
			}
			for _, err := range e.RemoveBatch(ids) {
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if e.Len() != 0 {
		t.Fatalf("Len after concurrent churn = %d", e.Len())
	}
}

// TestRoutedApproxParity: the prefix+SFC plan probes the same cube
// sequence as a single detector over the same point set, so its
// found/miss outcome must match a single approximate detector exactly,
// at every shard count.
func TestRoutedApproxParity(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	cfg := core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 10000}
	stored := testSubs(t, schema, 600, 20)
	queries := testSubs(t, schema, 300, 21)

	ref := core.MustNew(cfg)
	for _, s := range stored {
		if _, err := ref.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 4, 16} {
		e := MustNew(Config{Detector: cfg, Shards: shards, Partition: PartitionPrefix})
		for _, s := range stored {
			if _, err := e.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range queries {
			_, want, wantStats, err := ref.FindCover(q)
			if err != nil {
				t.Fatal(err)
			}
			_, got, gotStats, err := e.FindCover(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("shards %d, query %d: engine found=%v, detector found=%v", shards, i, got, want)
			}
			if gotStats.CubesGenerated != wantStats.CubesGenerated {
				t.Errorf("shards %d, query %d: %d cubes vs detector's %d",
					shards, i, gotStats.CubesGenerated, wantStats.CubesGenerated)
			}
		}
		tot := e.Totals()
		if tot.ShardSearches != tot.Queries {
			t.Errorf("shards %d: routed plan should search once per query, got %d/%d",
				shards, tot.ShardSearches, tot.Queries)
		}
		e.Close()
	}
}

// TestRoutedRemove exercises the id lifecycle on the prefix+SFC plan.
func TestRoutedRemove(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	e := MustNew(Config{
		Detector:  core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 5000},
		Shards:    4,
		Partition: PartitionPrefix,
	})
	defer e.Close()
	subs := testSubs(t, schema, 64, 22)
	ids := make([]uint64, len(subs))
	for i, s := range subs {
		id, err := e.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		got, ok := e.Subscription(id)
		if !ok || !got.Equal(subs[i]) {
			t.Fatalf("id %d does not round-trip", id)
		}
	}
	for _, err := range e.RemoveBatch(ids) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len after removal = %d", e.Len())
	}
	if err := e.Remove(ids[0]); err == nil {
		t.Error("double remove should fail")
	}
	if _, ok := e.Subscription(1); ok {
		t.Error("unassigned id should not resolve")
	}
}

// TestScansRepeatSmallestID: with several held subscriptions covering the
// query, 50 repeats of the linear strategy's store scan all name the
// smallest id, where an answer taken from table order would wander between
// them.
func TestScansRepeatSmallestID(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	narrow := subscription.MustParse(schema, "volume in [400,410] && price in [400,410]")
	e := MustNew(Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   4,
	})
	defer e.Close()
	// Even positions cover narrow, odd ones do not. A bulk load spreads
	// them over the stripes.
	var subs []*subscription.Subscription
	for lo := 300; lo < 360; lo += 5 {
		for _, side := range []int{200, 20} {
			subs = append(subs, subscription.MustParse(schema, fmt.Sprintf("volume in [%d,%d] && price in [%d,%d]", lo, lo+side, lo, lo+side)))
		}
	}
	ids, err := e.InsertBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	var covers []uint64
	for i := 0; i < len(ids); i += 2 {
		covers = append(covers, ids[i])
	}
	want := slices.Min(covers)
	for i := 0; i < 50; i++ {
		if id, found, _, err := e.FindCover(narrow); err != nil || !found || id != want {
			t.Fatalf("FindCover call %d = (%d,%v,%v), want (%d,true,nil)", i, id, found, err, want)
		}
	}
}

// TestAddBatchBulkLoad exercises the shard-grouped insert path: a cold
// batch lands whole (ids unique and resolvable, shard sizes consistent),
// no query in a cold batch observes a batch-mate (all uncovered), and a
// second batch of planted children sees the first batch's parents.
func TestAddBatchBulkLoad(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{
		Schema: schema, N: 300, SlackFrac: 0.2, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	parents := make([]*subscription.Subscription, len(pairs))
	children := make([]*subscription.Subscription, len(pairs))
	for i, p := range pairs {
		parents[i] = p.Parent
		children[i] = p.Child
	}
	t.Run("linear-exact", func(t *testing.T) {
		e := MustNew(Config{
			Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
			Shards:   4,
		})
		defer e.Close()
		first := e.AddBatch(parents)
		seen := make(map[uint64]bool)
		for i, r := range first {
			if r.Err != nil {
				t.Fatalf("parent %d: %v", i, r.Err)
			}
			if r.Covered {
				t.Fatalf("parent %d: cold-batch query observed a batch-mate", i)
			}
			if seen[r.ID] {
				t.Fatalf("duplicate id %d", r.ID)
			}
			seen[r.ID] = true
			got, ok := e.Subscription(r.ID)
			if !ok || !got.Equal(parents[i]) {
				t.Fatalf("parent %d: id %d does not round-trip", i, r.ID)
			}
		}
		if e.Len() != len(parents) {
			t.Fatalf("Len = %d, want %d", e.Len(), len(parents))
		}
		total := 0
		for _, n := range e.ShardSizes() {
			total += n
		}
		if total != len(parents) {
			t.Fatalf("ShardSizes sum = %d", total)
		}
		// Exact mode: every planted child must see its parent.
		for i, r := range e.AddBatch(children) {
			if r.Err != nil {
				t.Fatalf("child %d: %v", i, r.Err)
			}
			if !r.Covered {
				t.Fatalf("child %d: exact query missed its planted parent", i)
			}
		}
		// Everything must be removable (indexes in sync with stores).
		ids := make([]uint64, 0, 2*len(pairs))
		for id := range seen {
			ids = append(ids, id)
		}
		for _, err := range e.RemoveBatch(ids) {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestAddBatchBulkLoadMirror checks that an approximate engine's bulk path
// keeps the store in sync with the index: every id resolves to its input.
func TestAddBatchBulkLoadMirror(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{
		Schema: schema, N: 100, SlackFrac: 0.2, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := MustNew(Config{
		Detector: core.Config{
			Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 10000,
		},
		Shards:    4,
		Partition: PartitionPrefix,
	})
	defer e.Close()
	children := make([]*subscription.Subscription, len(pairs))
	for i, p := range pairs {
		children[i] = p.Child
	}
	ids := make([]uint64, 0, len(children))
	for i, r := range e.AddBatch(children) {
		if r.Err != nil {
			t.Fatalf("child %d: %v", i, r.Err)
		}
		ids = append(ids, r.ID)
	}
	for i, id := range ids {
		if got, ok := e.Subscription(id); !ok || !got.Equal(children[i]) {
			t.Fatalf("child %d: Subscription(%d) = (%v,%v), want its input", i, id, got, ok)
		}
	}
	// Removal goes through the store and the index; any desync fails here.
	for _, err := range e.RemoveBatch(ids) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d", e.Len())
	}
}

func TestEmptyBatches(t *testing.T) {
	e := MustNew(Config{Detector: core.Config{Schema: testSchema(t)}})
	defer e.Close()
	if got := e.AddBatch(nil); len(got) != 0 {
		t.Errorf("AddBatch(nil) returned %d results", len(got))
	}
	if got := e.CoverQueryBatch(nil); len(got) != 0 {
		t.Errorf("CoverQueryBatch(nil) returned %d results", len(got))
	}
	if got := e.RemoveBatch(nil); len(got) != 0 {
		t.Errorf("RemoveBatch(nil) returned %d results", len(got))
	}
}

// TestQueryIsHistoryFree is the dominance package's test of the same name
// through engine.New with eight slices: two engines take the same inserts
// and removals, one of them also answers the query set three extra times
// between the writes, and afterwards every query returns the same id,
// found flag and Stats on both.
func TestQueryIsHistoryFree(t *testing.T) {
	schema := testSchema(t)
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 600, SlackFrac: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var subs, queries []*subscription.Subscription
	for _, pr := range pairs {
		subs = append(subs, pr.Parent)
		queries = append(queries, pr.Child)
	}
	subs = append(subs, testSubs(t, schema, 600, 6)...)
	queries = append(queries, testSubs(t, schema, 300, 7)...)
	cfg := Config{Detector: core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 3}, Shards: 8}
	quiet, asked := MustNew(cfg), MustNew(cfg)
	defer quiet.Close()
	defer asked.Close()
	for round := 0; round < 4; round++ {
		var ids []uint64
		for _, s := range subs[round*300 : (round+1)*300] {
			a, errA := quiet.Insert(s)
			b, errB := asked.Insert(s)
			if errA != nil || errB != nil || a != b {
				t.Fatalf("round %d: inserts assigned (%d, %v) and (%d, %v)", round, a, errA, b, errB)
			}
			ids = append(ids, a)
		}
		for _, id := range ids[:100] { // a third of the round's subscriptions leave again
			if errA, errB := quiet.Remove(id), asked.Remove(id); errA != nil || errB != nil {
				t.Fatalf("round %d: remove %d: %v, %v", round, id, errA, errB)
			}
		}
		for pass := 0; pass < 3; pass++ {
			for _, q := range queries {
				if _, _, _, err := asked.FindCover(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	paths := [dominance.NumPaths]int{}
	for _, q := range queries {
		idA, okA, stA, errA := quiet.FindCover(q)
		idB, okB, stB, errB := asked.FindCover(q)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if idA != idB || okA != okB || stA != stB {
			t.Fatalf("%v: without history (%d,%v) %+v, after it (%d,%v) %+v", q, idA, okA, stA, idB, okB, stB)
		}
		paths[stA.Path]++
	}
	if paths[dominance.PathWalk] == 0 || paths[dominance.PathCubes] == 0 {
		t.Fatalf("paths %v: the queries must end on the walk and on the cubes", paths)
	}
}

// TestTotalsMatchQueryStats holds the engine counters, which fold a
// query's path and found bit into one add, to the sums of the per-call
// Stats, on one slice and on eight; a mode-off call counts under
// dominance.PathNone.
func TestTotalsMatchQueryStats(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			coretest.RunTotalsMatchQueryStats(t, func(t *testing.T, cfg core.Config) core.Provider {
				return MustNew(Config{Detector: cfg, Shards: shards})
			}, true)
		})
	}
}

// TestTotalsOnlyGrow reads Totals while queries run and holds every
// counter to never falling between two reads — Prometheus reads a counter
// that falls as a reset — on an indexed engine, on the linear strategy's
// store scan (which probes nothing and searches every stripe) and with
// detection off (which searches nothing).
func TestTotalsOnlyGrow(t *testing.T) {
	schema := testSchema(t)
	subs := testSubs(t, schema, 64, 17)
	for _, c := range []struct {
		name string
		det  core.Config
	}{
		{"indexed", core.Config{Schema: schema}},
		{"linear", core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}},
		{"off", core.Config{Schema: schema, Mode: core.ModeOff}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := MustNew(Config{Detector: c.det, Shards: 4})
			defer e.Close()
			if _, err := e.InsertBatch(subs[:16]); err != nil {
				t.Fatal(err)
			}
			var done atomic.Bool
			var wg sync.WaitGroup
			for g := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range 4000 {
						if _, _, _, err := e.FindCover(subs[(i+g)%len(subs)]); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			go func() { wg.Wait(); done.Store(true) }()
			fields := func(tot Totals) []int {
				return append([]int{tot.Queries, tot.Hits, tot.RunsProbed, tot.CubesGenerated, tot.ShardSearches}, tot.PathQueries[:]...)
			}
			prev := fields(e.Totals())
			for reads := 0; !done.Load(); reads++ {
				cur := fields(e.Totals())
				for i := range cur {
					if cur[i] < prev[i] {
						t.Fatalf("read %d: counter %d fell from %d to %d (Totals %v -> %v)", reads, i, prev[i], cur[i], prev, cur)
					}
				}
				prev = cur
			}
			if tot := e.Totals(); tot.Queries != 8000 {
				t.Fatalf("Queries = %d after 8000 queries", tot.Queries)
			}
		})
	}
}

// TestTotalsCountIssuedCalls holds the engine counters to the calls
// actually issued: Queries counts every single op and batch item once,
// Hits the ones that found something, and ShardSearches one a query on the
// index, every stripe on the linear strategy's store scan, and none when
// detection is off. A call rejected before it searched counts
// nowhere.
func TestTotalsCountIssuedCalls(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 40, SlackFrac: 0.2, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	parents := make([]*subscription.Subscription, len(pairs))
	children := make([]*subscription.Subscription, len(pairs))
	for i, p := range pairs {
		parents[i], children[i] = p.Parent, p.Child
	}
	other := subscription.MustSchema(10, "volume", "price")

	type want struct{ queries, hits, searches int }
	// issue runs every kind of counted call against e, with parents[:20]
	// held, and tallies what it issued; cover is what one FindCover-kind
	// query should add to ShardSearches.
	issue := func(t *testing.T, e *Engine, cover int) want {
		var w want
		count := func(found bool, searches int) {
			w.queries++
			if found {
				w.hits++
			}
			w.searches += searches
		}
		if _, err := e.InsertBatch(parents[:10]); err != nil {
			t.Fatal(err)
		}
		for _, p := range parents[10:20] {
			_, found, _, err := e.Add(p)
			if err != nil {
				t.Fatal(err)
			}
			count(found, cover)
		}
		for _, c := range children[:10] {
			_, found, _, err := e.FindCover(c)
			if err != nil {
				t.Fatal(err)
			}
			count(found, cover)
		}
		for _, r := range e.CoverQueryBatch(children[10:30]) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			count(r.Covered, cover)
		}
		for _, r := range e.AddBatch(children[30:40]) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			count(r.Covered, cover)
		}
		// A subscription of another schema is refused before any search.
		if _, _, _, err := e.FindCover(subscription.New(other)); err == nil {
			t.Fatal("a foreign schema must be refused")
		}
		return w
	}
	check := func(t *testing.T, e *Engine, w want) {
		t.Helper()
		tot := e.Totals()
		if tot.Queries != w.queries || tot.Hits != w.hits || tot.ShardSearches != w.searches {
			t.Fatalf("Totals queries/hits/searches = %d/%d/%d, issued %d/%d/%d",
				tot.Queries, tot.Hits, tot.ShardSearches, w.queries, w.hits, w.searches)
		}
		if w.hits == 0 && e.Mode() != core.ModeOff {
			t.Fatal("no call found anything: the hit count is untested")
		}
	}

	const shards = 4
	t.Run("index", func(t *testing.T) {
		e := MustNew(Config{
			Detector: core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3},
			Shards:   shards,
		})
		defer e.Close()
		check(t, e, issue(t, e, 1))
	})
	t.Run("linear-scan", func(t *testing.T) {
		e := MustNew(Config{
			Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
			Shards:   shards,
		})
		defer e.Close()
		check(t, e, issue(t, e, shards))
	})
	t.Run("off", func(t *testing.T) {
		e := MustNew(Config{Detector: core.Config{Schema: schema, Mode: core.ModeOff}, Shards: shards})
		defer e.Close()
		check(t, e, issue(t, e, 0))
	})
}

// TestWriteLatencySampleOneIn16 pins the single-item writes' latency
// sample: engine_insert and engine_remove each time their first call and
// every writeSample-th after it, on their own counts, so a workload that
// alternates the two still samples both.
func TestWriteLatencySampleOneIn16(t *testing.T) {
	schema := testSchema(t)
	e := MustNew(Config{Detector: core.Config{Schema: schema}})
	defer e.Close()
	count := func(op string) uint64 { return e.Observer().Hist(op).Snapshot().Count }
	const n = 2*writeSample + 1
	for i, s := range testSubs(t, schema, n, 11) {
		id, err := e.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Remove(id); err != nil {
			t.Fatal(err)
		}
		if i == 0 && (count("engine_insert") != 1 || count("engine_remove") != 1) {
			t.Fatalf("the first write of a fresh engine is not timed: insert %d, remove %d", count("engine_insert"), count("engine_remove"))
		}
	}
	if got, want := count("engine_insert"), uint64(3); got != want {
		t.Errorf("engine_insert count = %d after %d inserts, want %d", got, n, want)
	}
	if got, want := count("engine_remove"), uint64(3); got != want {
		t.Errorf("engine_remove count = %d after %d removes, want %d", got, n, want)
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after removing every insert", e.Len())
	}
}

// TestBatchLatencySample pins the batch calls' latency sample: a call of
// fewer than writeSample items is timed for its op's first such call and
// every writeSample-th after it, on the op's own count, as the single
// writes are; a call of writeSample items or more is always timed.
// Restore shares engine_insert_batch with InsertBatch.
func TestBatchLatencySample(t *testing.T) {
	schema := testSchema(t)
	e := MustNew(Config{Detector: core.Config{Schema: schema}})
	defer e.Close()
	count := func(e *Engine, op string) uint64 { return e.Observer().Hist(op).Snapshot().Count }
	ops := []string{"engine_add_batch", "engine_insert_batch", "engine_query_batch", "engine_remove_batch"}
	const n = 2*writeSample + 1
	subs := testSubs(t, schema, n, 13)
	for i := range subs {
		one := subs[i : i+1]
		added := e.AddBatch(one)
		if added[0].Err != nil {
			t.Fatal(added[0].Err)
		}
		ids, err := e.InsertBatch(one)
		if err != nil {
			t.Fatal(err)
		}
		if r := e.CoverQueryBatch(one); r[0].Err != nil {
			t.Fatal(r[0].Err)
		}
		if err := e.RemoveBatch([]uint64{added[0].ID})[0]; err != nil {
			t.Fatal(err)
		}
		if err := e.Remove(ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range ops {
		if got, want := count(e, op), uint64(3); got != want {
			t.Errorf("%s count = %d after %d one-item calls, want %d", op, got, n, want)
		}
	}
	// Fifteen calls of two items (four ids for RemoveBatch), each op's
	// small calls 34 to 48, elect none; four calls of writeSample items
	// (twice as many ids) are timed every one.
	const big = 4
	for _, c := range []struct {
		batch []*subscription.Subscription
		calls int
	}{{subs[:2], writeSample - 1}, {subs[:writeSample], big}} {
		batch := c.batch
		for range c.calls {
			var ids []uint64
			for _, r := range e.AddBatch(batch) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				ids = append(ids, r.ID)
			}
			more, err := e.InsertBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			e.CoverQueryBatch(batch)
			for _, err := range e.RemoveBatch(append(ids, more...)) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, op := range ops {
		if got, want := count(e, op), uint64(3+big); got != want {
			t.Errorf("%s count = %d after %d more small calls and %d of %d items, want %d", op, got, writeSample-1, big, writeSample, want)
		}
	}
	r := MustNew(Config{Detector: core.Config{Schema: schema}})
	defer r.Close()
	for range n {
		if err := r.Restore(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := count(r, "engine_insert_batch"), uint64(3); got != want {
		t.Errorf("engine_insert_batch count = %d after %d empty restores, want %d", got, n, want)
	}
	held := make([]core.Held, writeSample)
	for i := range held {
		held[i] = core.Held{ID: uint64(i + 1), Rect: subs[i].Rect()}
	}
	if err := r.Restore(held); err != nil {
		t.Fatal(err)
	}
	if got, want := count(r, "engine_insert_batch"), uint64(4); got != want {
		t.Errorf("engine_insert_batch count = %d after a %d-item restore, want %d", got, writeSample, want)
	}
}

// TestQueryTraceElection holds the trace election to the counted-query
// sequence: sequential FindCovers and Adds, hits and misses, on every
// search cut elect exactly the k·4th counted query at TraceSample 4; the
// count the election reads is Totals.Queries over every counter cell; and
// two goroutines' queries, which may read one count twice, elect at most
// one query a count each.
func TestQueryTraceElection(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 40, SlackFrac: 0.2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	misses := testSubs(t, schema, 40, 43)
	newEngine := func(t *testing.T, det core.Config, sample int) *Engine {
		e := MustNew(Config{Detector: det, Shards: 4, Obs: obs.New(obs.Config{TraceSample: sample, SlowThreshold: -1, SlowLogSize: 1 << 10})})
		t.Cleanup(e.Close)
		return e
	}
	for _, c := range []struct {
		name string
		det  core.Config
		path dominance.Path
	}{
		{"walk", core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3}, dominance.PathWalk},
		{"cubes", core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 1}, dominance.PathCubes},
		{"off", core.Config{Schema: schema, Mode: core.ModeOff}, dominance.PathNone},
	} {
		t.Run("sequential/"+c.name, func(t *testing.T) {
			e := newEngine(t, c.det, 4)
			check := func(i int) {
				t.Helper()
				if got, want := e.Observer().SlowLog().Len(), e.Totals().Queries/4; got != want {
					t.Fatalf("call %d: %d elected after %d counted queries, want %d", i, got, e.Totals().Queries, want)
				}
			}
			for i, p := range pairs {
				if _, _, _, err := e.Add(p.Parent); err != nil {
					t.Fatal(err)
				}
				check(i)
				if _, _, _, err := e.FindCover(p.Child); err != nil {
					t.Fatal(err)
				}
				check(i)
				if _, _, _, err := e.FindCover(misses[i]); err != nil {
					t.Fatal(err)
				}
				check(i)
			}
			tot := e.Totals()
			if tot.Queries != 3*len(pairs) || tot.PathQueries[c.path] == 0 {
				t.Fatalf("Totals %+v: the sequence must count every call, some on the %s cut", tot, c.path)
			}
			if c.path == dominance.PathWalk && (tot.Hits == 0 || tot.Hits == tot.Queries) {
				t.Fatalf("Totals %+v: the walk's sequence must mix hits and misses", tot)
			}
		})
	}
	t.Run("sum-is-totals", func(t *testing.T) {
		// Give cell i the count 2^i, so Totals.Queries is 2^cells - 1 and
		// the next query is elected at rate 2^cells only when the
		// election sums every cell: a cell it left out, or one a new
		// search cut added, leaves its count short.
		e := newEngine(t, core.Config{Schema: schema}, 1<<(4*dominance.NumPaths))
		var bit int64 = 1
		for p := range e.counts {
			for f := range e.counts[p] {
				for o := range e.counts[p][f] {
					e.counts[p][f][o].Add(bit)
					bit <<= 1
				}
			}
		}
		if got, want := e.Totals().Queries, int(bit-1); got != want {
			t.Fatalf("Totals.Queries = %d, want %d", got, want)
		}
		if _, _, _, err := e.FindCover(misses[0]); err != nil {
			t.Fatal(err)
		}
		if got := e.Observer().SlowLog().Len(); got != 1 {
			t.Fatalf("the query after %d counted ones elected %d traces, want 1", bit-1, got)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		e := newEngine(t, core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3}, 4)
		if _, err := e.InsertBatch(misses[:20]); err != nil {
			t.Fatal(err)
		}
		const n = 2000
		var wg sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range n {
					if _, _, _, err := e.FindCover(misses[(i+g)%len(misses)]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		// Each goroutine reads a larger count on every query, so a count
		// is read at most twice, and 2n/4 counts below 2n elect.
		elected := e.Observer().Hist("engine_query").Snapshot().Count
		if limit := uint64(2 * (2*n/4 + 1)); elected > limit {
			t.Fatalf("%d of %d concurrent queries elected, want at most %d", elected, 2*n, limit)
		}
		if tot := e.Totals(); tot.Queries != 2*n {
			t.Fatalf("Queries = %d after %d", tot.Queries, 2*n)
		}
	})
}

// TestRefusedQueryTakesNoElection puts a refused query — another
// schema's, through FindCover, Add or a batch — before each valid one: a
// refused query counts nowhere and elects nothing, so the valid queries
// alone fill the 1-in-4 sample, every elected trace finishing in the slow
// log. Were the refused ones counted in the election, every elected call
// would be a valid one, and twice as many would be.
func TestRefusedQueryTakesNoElection(t *testing.T) {
	schema := testSchema(t)
	other := subscription.New(subscription.MustSchema(10, "stock", "volume", "price"))
	e := MustNew(Config{Detector: core.Config{Schema: schema}, Obs: obs.New(obs.Config{TraceSample: 4, SlowThreshold: -1})})
	defer e.Close()
	const n = 64
	for i, s := range testSubs(t, schema, n, 47) {
		var err error
		switch i % 3 {
		case 0:
			_, _, _, err = e.FindCover(other)
		case 1:
			_, _, _, err = e.Add(other)
		default:
			err = e.CoverQueryBatch([]*subscription.Subscription{other})[0].Err
		}
		if err == nil {
			t.Fatal("a foreign schema must be refused")
		}
		if _, _, _, err := e.FindCover(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Observer().SlowLog().Len(); got != n/4 {
		t.Fatalf("slow log holds %d traces after %d valid queries at 1-in-4, want %d", got, n, n/4)
	}
	if tot := e.Totals(); tot.Queries != n {
		t.Fatalf("Queries = %d after %d valid queries", tot.Queries, n)
	}
}

// TestEngineChurnZeroAlloc pins the write path's allocations: an Add and a
// Remove on a default engine at constant population allocate nothing. A
// stripe holds the rectangle by value and a remove rebuilds the point it
// deletes on the stack, so neither side builds a subscription, and the
// skew check every 64 inserts reads the slice sizes into a kept buffer.
// The count is the runtime's malloc counter over 64 000 pairs:
// testing.AllocsPerRun truncates its mean, so an allocation every 64
// inserts would read 0 there.
func TestEngineChurnZeroAlloc(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 4096, Dist: workload.DistUniform, WidthFrac: 0.05, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	const churnWindow = 1024
	e := MustNew(Config{Detector: core.Config{Schema: schema}})
	defer e.Close()
	ids, err := e.InsertBatch(subs[:churnWindow])
	if err != nil {
		t.Fatal(err)
	}
	live, next := ids, churnWindow
	pair := func() {
		id, _, _, err := e.Add(subs[next%len(subs)])
		if err != nil {
			t.Fatal(err)
		}
		next++
		if err := e.Remove(live[0]); err != nil {
			t.Fatal(err)
		}
		copy(live, live[1:])
		live[len(live)-1] = id
	}
	// 64 000 pairs first: the id tables reach the size the population's
	// peak dictates, the engine settles its slices, and their arrays the
	// leaf count the churn splits and merges through.
	for range 64000 {
		pair()
	}
	if n := mallocs(64000, pair); n != 0 {
		t.Fatalf("64 000 engine Add+Remove pairs allocate %d times, want 0", n)
	}
}

// TestEngineRestoreOneZeroAlloc pins the one-item Restore, a durable
// write's apply: a Restore of one fresh id and a Remove at constant
// population allocate nothing, on a one-word universe and on a wider one.
func TestEngineRestoreOneZeroAlloc(t *testing.T) {
	for _, schema := range []*subscription.Schema{
		subscription.MustSchema(10, "volume", "price"),
		subscription.MustSchema(10, "a", "b", "c", "d"),
	} {
		subs, err := workload.Subscriptions(workload.SubSpec{
			Schema: schema, N: 4096, Dist: workload.DistUniform, WidthFrac: 0.05, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		const churnWindow = 1024
		e := MustNew(Config{Detector: core.Config{Schema: schema}})
		defer e.Close()
		live := make([]uint64, 0, churnWindow)
		one := make([]core.Held, 1)
		next := uint64(1)
		pair := func() {
			one[0] = core.Held{ID: next, Rect: subs[next%uint64(len(subs))].Rect()}
			if err := e.Restore(one); err != nil {
				t.Fatal(err)
			}
			live = append(live, next)
			next++
			if len(live) > churnWindow {
				if err := e.Remove(live[0]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:0], live[1:]...)
			}
		}
		for range 64000 {
			pair()
		}
		if n := mallocs(64000, pair); n != 0 {
			t.Fatalf("%d attributes: 64 000 one-item Restore+Remove pairs allocate %d times, want 0", schema.NumAttrs(), n)
		}
	}
}

// mallocs counts the heap allocations n calls of f make, by the runtime's
// malloc counter, on one P as testing.AllocsPerRun runs. The counter is
// the process's: a collection first, and a pause that lets the
// finalizers it queues run, keep what earlier tests left behind out of
// the count.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
