package core

import (
	"testing"

	"sfccover/internal/subscription"
)

// TestDetectorProviderStrategies pins that the search-strategy variants
// behave identically through the Provider surface; the cross-implementation
// battery lives in coretest and runs from conformance_test.go.
func TestDetectorProviderStrategies(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	// Edge-hugging bounds keep the SFC variant's exhaustive enumeration
	// small (the dominance region's sides are (lo, max−hi) per axis).
	wide := subscription.MustParse(schema, "volume <= 1020 && price <= 1020")
	narrow := subscription.MustParse(schema, "volume in [5,1000] && price in [5,1000]")
	for _, strat := range []Strategy{StrategySFC, StrategyLinear} {
		t.Run(string(strat), func(t *testing.T) {
			var p Provider = MustNew(Config{Schema: schema, Mode: ModeExact, Strategy: strat})
			defer p.Close()
			wid, covered, _, err := p.Add(wide)
			if err != nil || covered {
				t.Fatalf("Add(wide) = covered=%v err=%v", covered, err)
			}
			id, found, _, err := p.FindCover(narrow)
			if err != nil || !found || id != wid {
				t.Fatalf("FindCover = (%d,%v,%v), want (%d,true,nil)", id, found, err, wid)
			}
			if id, found, _, err := p.FindCover(wide.Clone()); err != nil || !found || id != wid {
				t.Fatalf("FindCover(twin) = (%d,%v,%v), want stored twin", id, found, err)
			}
			if err := p.Remove(wid); err != nil {
				t.Fatal(err)
			}
			if p.Len() != 0 {
				t.Fatalf("Len = %d after removal", p.Len())
			}
		})
	}
}

func TestProviderStatsSetShardSizes(t *testing.T) {
	cases := []struct {
		sizes    []int
		max, min int
		subs     int
		skew     float64
	}{
		{[]int{5}, 5, 5, 5, 1},
		{[]int{4, 4, 4}, 4, 4, 12, 1},
		{[]int{8, 2}, 8, 2, 10, 4},
		{[]int{6, 0}, 6, 0, 6, 6}, // empty slice: denominator clamps to 1
		{[]int{0, 0}, 0, 0, 0, 0},
	}
	for _, tc := range cases {
		var ps ProviderStats
		ps.SetShardSizes(tc.sizes)
		if ps.Shards != len(tc.sizes) {
			t.Errorf("%v: Shards = %d", tc.sizes, ps.Shards)
		}
		if ps.Subscriptions != tc.subs {
			t.Errorf("%v: Subscriptions = %d, want %d", tc.sizes, ps.Subscriptions, tc.subs)
		}
		if ps.MaxShardSize != tc.max || ps.MinShardSize != tc.min {
			t.Errorf("%v: max/min = %d/%d, want %d/%d", tc.sizes, ps.MaxShardSize, ps.MinShardSize, tc.max, tc.min)
		}
		if ps.SkewRatio != tc.skew {
			t.Errorf("%v: SkewRatio = %v, want %v", tc.sizes, ps.SkewRatio, tc.skew)
		}
	}
}

func TestDetectorStats(t *testing.T) {
	schema := subscription.MustSchema(8, "a", "b")
	d := MustNew(Config{Schema: schema, Mode: ModeExact, Strategy: StrategyLinear})
	wide := subscription.MustParse(schema, "a <= 200")
	if _, err := d.Insert(wide); err != nil {
		t.Fatal(err)
	}
	narrow := subscription.MustParse(schema, "a in [10,20]")
	if _, found, _, err := d.FindCover(narrow); err != nil || !found {
		t.Fatalf("FindCover = (%v, %v)", found, err)
	}
	ps := d.Stats()
	if ps.Subscriptions != 1 || ps.Shards != 1 {
		t.Fatalf("Stats occupancy = %d subs / %d shards", ps.Subscriptions, ps.Shards)
	}
	if ps.Queries != 1 || ps.Hits != 1 || ps.ShardSearches != 1 {
		t.Fatalf("Stats totals = %+v", ps)
	}
	if ps.SkewRatio != 1 {
		t.Fatalf("single shard SkewRatio = %v", ps.SkewRatio)
	}
	d.Close() // no-op, must not disturb the detector
	if d.Len() != 1 {
		t.Fatal("Close must leave the detector usable")
	}
}

func TestDetectorInsertBatch(t *testing.T) {
	schema := subscription.MustSchema(8, "a", "b")
	build := func() *Detector {
		return MustNew(Config{Schema: schema, Mode: ModeApprox, Epsilon: 0.3, MaxCubes: 2000})
	}
	subs := []*subscription.Subscription{
		subscription.MustParse(schema, "a <= 100 && b <= 100"),
		subscription.MustParse(schema, "a in [5,10]"),
		subscription.MustParse(schema, "b >= 50"),
	}
	d := build()
	ids, err := d.InsertBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(subs) || d.Len() != len(subs) {
		t.Fatalf("%d ids, Len %d", len(ids), d.Len())
	}
	for i, id := range ids {
		got, ok := d.Subscription(id)
		if !ok || !got.Equal(subs[i]) {
			t.Fatalf("id %d does not round-trip", id)
		}
	}
	// The batch must land in the index: remove everything cleanly.
	for _, id := range ids {
		if err := d.Remove(id); err != nil {
			t.Fatalf("remove: %v", err)
		}
	}
	// Schema mismatch anywhere in the batch fails it atomically.
	d = build()
	other := subscription.MustSchema(8, "a", "b")
	if _, err := d.InsertBatch([]*subscription.Subscription{subscription.New(other)}); err == nil {
		t.Fatal("foreign schema must fail")
	}
	if d.Len() != 0 {
		t.Fatal("failed batch must not insert")
	}
}
