package engine

import (
	"sync"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// Approximate mode with a tight probe budget keeps the searches cheap on
// mid-domain rectangles (exhaustive SFC search over the 60-bit key space
// can enumerate astronomically many cubes). Answers remain deterministic:
// the cube sequence is a pure function of the query, and every probe
// returns the globally smallest (key, id) of its range regardless of the
// slice layout — which is what makes the bit-identical-across-rebalance
// assertions below meaningful.
func approxDetector(schema *subscription.Schema) core.Config {
	return core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 5000}
}

// hotspotSubs builds the adversarial clustered population that skews
// curve-prefix slices.
func hotspotSubs(t testing.TB, schema *subscription.Schema, n int, seed int64) []*subscription.Subscription {
	t.Helper()
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: n, Dist: workload.DistHotspot,
		WidthFrac: 0.02, HotspotFrac: 0.9, HotspotWidthFrac: 0.04, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func prefixEngine(t testing.TB, schema *subscription.Schema, cfg Config) *Engine {
	t.Helper()
	cfg.Detector.Schema = schema
	cfg.Partition = PartitionPrefix
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// loadSkewed bulk-loads subs and then removes every subscription the
// primary index routes to the lower half of its slices. A bulk load lands
// evenly (its quantiles place the boundaries) and the write path
// rebalances on inserts, so a lopsided drain — unsubscriptions
// concentrated in one key range, which never trip the trigger — is how a
// test gets a skewed engine that nothing has touched yet. It returns the
// survivors and their ids, aligned.
func loadSkewed(t testing.TB, e *Engine, subs []*subscription.Subscription) ([]*subscription.Subscription, []uint64) {
	t.Helper()
	var kept []*subscription.Subscription
	var ids []uint64
	for i, r := range e.AddBatch(subs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if e.idx.Locate(subs[i].Point()).Slice < e.NumShards()/2 {
			if err := e.Remove(r.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		kept = append(kept, subs[i])
		ids = append(ids, r.ID)
	}
	return kept, ids
}

// TestSkewDetectionOnPrefixPlan is the regression pinning that the
// SkewRatio metric actually detects a lopsided layout — the trigger
// signal the rebalancer is driven by.
func TestSkewDetectionOnPrefixPlan(t *testing.T) {
	schema := testSchema(t)
	// ModeOff: only placement matters for skew detection, so skip the
	// covering queries entirely.
	e := prefixEngine(t, schema, Config{Detector: core.Config{Schema: schema, Mode: core.ModeOff}, Workers: 4})
	loadSkewed(t, e, hotspotSubs(t, schema, 2000, 11))
	ps := e.Stats()
	if ps.SkewRatio < 4 {
		t.Fatalf("a drained key range must skew the slices: SkewRatio = %.2f, sizes %v", ps.SkewRatio, ps.ShardSizes)
	}
	if ps.Rebalances != 0 || ps.BoundaryMoves != 0 || ps.MigratedEntries != 0 {
		t.Fatalf("no rebalance ran, counters must be zero: %+v", ps)
	}
}

// TestRebalanceConvergesAndPreservesAnswers: forced passes drive the skew
// down to the target, every cover answer is bit-identical to the
// pre-rebalance answers, and the engine enumerates the same set.
func TestRebalanceConvergesAndPreservesAnswers(t *testing.T) {
	schema := testSchema(t)
	e := prefixEngine(t, schema, Config{
		Detector: approxDetector(schema),
		Workers:  4,
	})
	subs, _ := loadSkewed(t, e, hotspotSubs(t, schema, 4000, 12))
	probes := hotspotSubs(t, schema, 300, 13)
	type answer struct {
		id    uint64
		found bool
	}
	before := make([]answer, len(probes))
	for i, p := range probes {
		id, found, _, err := e.FindCover(p)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = answer{id, found}
	}
	heldBefore, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}

	skewBefore := e.Stats().SkewRatio
	var last RebalanceResult
	totalMoves := 0
	for pass := 0; pass < 20; pass++ {
		res := e.Rebalance()
		totalMoves += res.Moves
		last = res
		if res.Moves == 0 {
			break
		}
	}
	if totalMoves == 0 {
		t.Fatal("rebalance moved nothing on a skewed engine")
	}
	ps := e.Stats()
	if ps.SkewRatio >= skewBefore {
		t.Fatalf("SkewRatio %.2f did not improve on %.2f", ps.SkewRatio, skewBefore)
	}
	if ps.SkewRatio > 2 {
		t.Fatalf("SkewRatio should converge under the threshold, still %.2f (sizes %v)", ps.SkewRatio, ps.ShardSizes)
	}
	if last.SkewAfter > last.SkewBefore {
		t.Fatalf("pass reported worsening skew: %+v", last)
	}
	if ps.Rebalances == 0 || ps.BoundaryMoves != totalMoves {
		t.Fatalf("counters out of sync: %d rebalances, %d moves (want %d)", ps.Rebalances, ps.BoundaryMoves, totalMoves)
	}
	if e.Len() != len(subs) {
		t.Fatalf("Len = %d after rebalance, want %d", e.Len(), len(subs))
	}

	for i, p := range probes {
		id, found, _, err := e.FindCover(p)
		if err != nil {
			t.Fatal(err)
		}
		if (answer{id, found}) != before[i] {
			t.Fatalf("probe %d: FindCover = (%d,%v) after rebalance, want (%d,%v)", i, id, found, before[i].id, before[i].found)
		}
	}
	heldAfter, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(heldAfter) != len(heldBefore) {
		t.Fatalf("engine enumerates %d subscriptions after rebalance, %d before", len(heldAfter), len(heldBefore))
	}
	for i, h := range heldBefore {
		if heldAfter[i].ID != h.ID || heldAfter[i].Rect != h.Rect {
			t.Fatalf("entry %d is id %d after rebalance, id %d before", i, heldAfter[i].ID, h.ID)
		}
	}
}

// TestRebalanceRemovalAfterMigration: ids assigned before a rebalance
// must keep resolving and removing after entries migrated between slices.
func TestRebalanceRemovalAfterMigration(t *testing.T) {
	schema := testSchema(t)
	e := prefixEngine(t, schema, Config{Detector: approxDetector(schema), Workers: 4})
	subs, ids := loadSkewed(t, e, hotspotSubs(t, schema, 2400, 14))
	migrated := 0
	for pass := 0; pass < 20; pass++ {
		r := e.Rebalance()
		migrated += r.Migrated
		if r.Moves == 0 {
			break
		}
	}
	if migrated == 0 {
		t.Fatal("rebalance migrated nothing on a skewed engine")
	}
	for i, id := range ids {
		if got, ok := e.Subscription(id); !ok || !got.Equal(subs[i]) {
			t.Fatalf("id %d no longer resolves after rebalance", id)
		}
		if err := e.Remove(id); err != nil {
			t.Fatalf("Remove(%d) after rebalance: %v", id, err)
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after removing everything", e.Len())
	}
}

// TestZeroConfigIsRoutedPlan: an engine built from nothing but a detector
// template gets the one measured plan — slice boundaries it can move, one
// shared search per approximate query, and the prefix partition by name.
func TestZeroConfigIsRoutedPlan(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	e := MustNew(Config{Detector: core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 5000}})
	defer e.Close()
	if got := e.PartitionStrategy(); got != PartitionPrefix {
		t.Errorf("PartitionStrategy() = %q, want %q", got, PartitionPrefix)
	}
	subs := testSubs(t, schema, 64, 41)
	for _, s := range subs {
		if _, _, _, err := e.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Queries != len(subs) || st.ShardSearches != st.Queries {
		t.Errorf("after %d approx queries: Queries = %d, ShardSearches = %d; want one shared search per query",
			len(subs), st.Queries, st.ShardSearches)
	}
}

// TestWritePathRebalanceTrigger: nobody arms or calls the rebalancer. An
// engine filled one subscription at a time from empty — where there is
// no batch to read boundaries from — moves them by itself and ends under
// the threshold; an engine too small for skew to mean anything is left
// alone.
func TestWritePathRebalanceTrigger(t *testing.T) {
	schema := testSchema(t)
	e := prefixEngine(t, schema, Config{Detector: approxDetector(schema), Workers: 4})
	subs := hotspotSubs(t, schema, 3000, 15)
	for _, s := range subs {
		if _, err := e.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	ps := e.Stats()
	if ps.Rebalances == 0 || ps.SkewRatio >= rebalanceThreshold {
		t.Fatalf("write path left skew %.2f after %d passes (sizes %v)", ps.SkewRatio, ps.Rebalances, ps.ShardSizes)
	}

	small := prefixEngine(t, schema, Config{Detector: approxDetector(schema), Workers: 4})
	for _, s := range subs[:20] {
		if _, err := small.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if ps := small.Stats(); ps.BoundaryMoves != 0 {
		t.Fatalf("a 20-entry engine moved %d boundaries (sizes %v)", ps.BoundaryMoves, ps.ShardSizes)
	}
}

// TestConcurrentQueriesDuringRebalance hammers batch queries while
// rebalance passes run, comparing every answer against an identical
// engine that never rebalances; meaningful under -race and the
// acceptance check that answers stay bit-identical mid-migration.
func TestConcurrentQueriesDuringRebalance(t *testing.T) {
	schema := testSchema(t)
	mk := func() *Engine {
		// A tight probe budget keeps the -race run cheap; the coverage
		// target is the probe/migration retry protocol, not search depth.
		det := approxDetector(schema)
		det.MaxCubes = 500
		return prefixEngine(t, schema, Config{Detector: det, Workers: 4})
	}
	subject, control := mk(), mk()
	subs := hotspotSubs(t, schema, 1600, 16)
	for _, e := range []*Engine{subject, control} {
		loadSkewed(t, e, subs)
	}
	probes := hotspotSubs(t, schema, 60, 17)
	want := control.CoverQueryBatch(probes)

	stop := make(chan struct{})
	rebalDone := make(chan struct{})
	go func() {
		defer close(rebalDone)
		for {
			select {
			case <-stop:
				return
			default:
				subject.Rebalance()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				got := subject.CoverQueryBatch(probes)
				for i := range got {
					if got[i].Err != nil {
						t.Errorf("round %d probe %d: %v", round, i, got[i].Err)
						return
					}
					if got[i].Covered != want[i].Covered || got[i].CoveredBy != want[i].CoveredBy {
						t.Errorf("round %d probe %d: (%v,%d) != control (%v,%d)",
							round, i, got[i].Covered, got[i].CoveredBy, want[i].Covered, want[i].CoveredBy)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-rebalDone
}
