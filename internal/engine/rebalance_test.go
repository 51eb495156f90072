package engine

import (
	"sync"
	"testing"
	"time"

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
func approxDetector(schema *subscription.Schema, trackCovered bool) core.Config {
	return core.Config{
		Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3,
		MaxCubes: 5000, TrackCovered: trackCovered,
	}
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

// TestSkewDetectionOnPrefixPlan is the regression pinning that the
// SkewRatio metric actually detects a clustered workload on the prefix
// plan — the trigger signal the rebalancer is driven by.
func TestSkewDetectionOnPrefixPlan(t *testing.T) {
	schema := testSchema(t)
	// ModeOff: only placement matters for skew detection, so skip the
	// covering queries entirely.
	e := prefixEngine(t, schema, Config{Detector: core.Config{Schema: schema, Mode: core.ModeOff}, Workers: 4})
	subs := hotspotSubs(t, schema, 2000, 11)
	for _, r := range e.AddBatch(subs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	ps := e.Stats()
	if ps.SkewRatio < 4 {
		t.Fatalf("hotspot workload must skew the prefix slices: SkewRatio = %.2f, sizes %v", ps.SkewRatio, ps.ShardSizes)
	}
	if ps.Rebalances != 0 || ps.BoundaryMoves != 0 || ps.MigratedEntries != 0 {
		t.Fatalf("no rebalance ran, counters must be zero: %+v", ps)
	}
}

// TestRebalanceConvergesAndPreservesAnswers: after manual rebalancing the
// skew converges toward 1.0 and every cover answer is bit-identical to
// the pre-rebalance answers (exact mode makes them deterministic).
func TestRebalanceConvergesAndPreservesAnswers(t *testing.T) {
	schema := testSchema(t)
	e := prefixEngine(t, schema, Config{
		Detector: approxDetector(schema, true),
		Workers:  4,
	})
	subs := hotspotSubs(t, schema, 2000, 12)
	for _, r := range e.AddBatch(subs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	probes := hotspotSubs(t, schema, 300, 13)
	type answer struct {
		id    uint64
		found bool
	}
	before := make([]answer, len(probes))
	beforeCovered := make([]answer, len(probes))
	for i, p := range probes {
		id, found, _, err := e.FindCover(p)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = answer{id, found}
		id, found, _, err = e.FindCovered(p)
		if err != nil {
			t.Fatal(err)
		}
		beforeCovered[i] = answer{id, found}
	}

	skewBefore := e.Stats().SkewRatio
	var last core.RebalanceResult
	totalMoves := 0
	for pass := 0; pass < 20; pass++ {
		res, err := e.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("SkewRatio should converge toward 1.0, still %.2f (sizes %v)", ps.SkewRatio, ps.ShardSizes)
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
		id, found, _, err = e.FindCovered(p)
		if err != nil {
			t.Fatal(err)
		}
		if (answer{id, found}) != beforeCovered[i] {
			t.Fatalf("probe %d: FindCovered = (%d,%v) after rebalance, want (%d,%v)", i, id, found, beforeCovered[i].id, beforeCovered[i].found)
		}
	}
}

// TestRebalanceRemovalAfterMigration: ids assigned before a rebalance
// must keep resolving and removing after entries migrated between slices.
func TestRebalanceRemovalAfterMigration(t *testing.T) {
	schema := testSchema(t)
	e := prefixEngine(t, schema, Config{Detector: approxDetector(schema, false), Workers: 4})
	subs := hotspotSubs(t, schema, 1200, 14)
	res := e.AddBatch(subs)
	for pass := 0; pass < 20; pass++ {
		r, err := e.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		if r.Moves == 0 {
			break
		}
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if got, ok := e.Subscription(r.ID); !ok || !got.Equal(subs[i]) {
			t.Fatalf("id %d no longer resolves after rebalance", r.ID)
		}
		if err := e.Remove(r.ID); err != nil {
			t.Fatalf("Remove(%d) after rebalance: %v", r.ID, err)
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
	if _, err := e.Rebalance(); err != nil {
		t.Errorf("Rebalance() on a zero-Partition engine = %v, want nil", err)
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

func TestRebalanceConfigValidation(t *testing.T) {
	schema := testSchema(t)
	if _, err := New(Config{Detector: core.Config{Schema: schema}, RebalanceThreshold: 0.5}); err == nil {
		t.Fatal("threshold <= 1 must fail")
	}
	if _, err := New(Config{Detector: core.Config{Schema: schema}, RebalanceMaxMoves: -1}); err == nil {
		t.Fatal("negative move cap must fail")
	}
}

// TestBackgroundRebalanceTrigger: with a threshold and a short interval,
// a skewed engine must rebalance itself without a manual call.
func TestBackgroundRebalanceTrigger(t *testing.T) {
	schema := testSchema(t)
	e := prefixEngine(t, schema, Config{
		Detector:           approxDetector(schema, false),
		Workers:            4,
		RebalanceThreshold: 2,
		RebalanceInterval:  20 * time.Millisecond,
	})
	subs := hotspotSubs(t, schema, 1500, 15)
	for _, r := range e.AddBatch(subs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// The trigger is armed from construction, so under a slow load (-race)
	// it may fire mid-load; either the skew is still visible or the
	// background pass has already started fixing it — both prove the
	// workload skewed.
	if ps := e.Stats(); ps.SkewRatio < 2 && ps.Rebalances == 0 {
		t.Fatalf("precondition: workload not skewed (%.2f) and no rebalance ran", ps.SkewRatio)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ps := e.Stats()
		if ps.Rebalances > 0 && ps.SkewRatio < 2 {
			return // triggered and converged below the threshold
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("background rebalancer never converged: %+v", e.Stats())
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
		det := approxDetector(schema, false)
		det.MaxCubes = 500
		return prefixEngine(t, schema, Config{Detector: det, Workers: 4})
	}
	subject, control := mk(), mk()
	subs := hotspotSubs(t, schema, 800, 16)
	for _, e := range []*Engine{subject, control} {
		for _, r := range e.AddBatch(subs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
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
				if _, err := subject.Rebalance(); err != nil {
					t.Error(err)
					return
				}
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
