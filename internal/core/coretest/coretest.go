// Package coretest holds the core.Provider conformance suite: one battery
// of behavioral checks that every provider implementation — the single
// Detector, the sharded Engine, the persist DurableProvider, the sfcd
// RemoteProvider — must pass identically, so that brokers and services
// can swap backends without re-auditing semantics. Implementation packages
// call RunProviderConformance from their own tests with a factory for a
// fresh, empty, exact-mode provider, and RunTotalsMatchQueryStats with one
// that takes the detector configuration.
package coretest

import (
	"errors"
	"fmt"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// Schema returns a fresh schema of the shape the conformance suite
// expects: callers build it once and hand both the schema and a provider
// factory over it to RunProviderConformance.
func Schema() *subscription.Schema {
	return subscription.MustSchema(10, "volume", "price")
}

// RunProviderConformance runs the shared behavioral battery against
// providers produced by build. Each subtest gets its own fresh provider;
// build must return an empty provider in core.ModeExact on the given
// schema (exact mode makes every outcome deterministic, so the same
// assertions hold for any backing index). A core.ModeApprox provider is
// accepted too: the battery's covering queries have regions small enough
// that an ε-search finds them.
// Providers are closed by the suite.
func RunProviderConformance(t *testing.T, schema *subscription.Schema, build func(t *testing.T) core.Provider) {
	t.Helper()
	fresh := func(t *testing.T) core.Provider {
		t.Helper()
		p := build(t)
		t.Cleanup(p.Close)
		if p.Len() != 0 {
			t.Fatalf("conformance providers must start empty, got Len %d", p.Len())
		}
		return p
	}
	// The three rectangles pin the semantics (wide ⊇ narrow; uncovered is
	// covered by nothing stored and covers nothing stored). Their bounds
	// hug the domain edges deliberately: a covering query's dominance
	// region has per-axis sides (lo, max−hi), and exhaustive SFC search
	// decomposes that region in full — mid-domain rectangles would cost
	// minutes under the SFC strategy for identical answers.
	wide := subscription.MustParse(schema, "volume <= 1020 && price <= 1020")
	narrow := subscription.MustParse(schema, "volume in [5,1000] && price in [5,1000]")
	uncovered := subscription.MustParse(schema, "volume in [7,1022] && price in [7,1022]")

	t.Run("schema", func(t *testing.T) {
		p := fresh(t)
		if p.Schema() != schema {
			t.Fatal("Schema() must return the configured schema")
		}
		foreign := subscription.New(subscription.MustSchema(8, "volume", "price"))
		if _, err := p.Insert(foreign); err == nil {
			t.Error("Insert with a foreign schema must fail")
		}
		if _, _, _, err := p.Add(foreign); err == nil {
			t.Error("Add with a foreign schema must fail")
		}
		if _, _, _, err := p.FindCover(foreign); err == nil {
			t.Error("FindCover with a foreign schema must fail")
		}
	})

	t.Run("insert-roundtrip", func(t *testing.T) {
		p := fresh(t)
		id, err := p.Insert(wide)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() != 1 {
			t.Fatalf("Len = %d after one insert", p.Len())
		}
		got, ok := p.Subscription(id)
		if !ok || !got.Equal(wide) {
			t.Fatalf("Subscription(%d) does not round-trip", id)
		}
		if _, ok := p.Subscription(id + 1000); ok {
			t.Error("unknown id must not resolve")
		}
	})

	t.Run("add-cover-semantics", func(t *testing.T) {
		p := fresh(t)
		wid, covered, _, err := p.Add(wide)
		if err != nil {
			t.Fatal(err)
		}
		if covered {
			t.Error("first arrival cannot be covered")
		}
		nid, covered, coveredBy, err := p.Add(narrow)
		if err != nil {
			t.Fatal(err)
		}
		if !covered || coveredBy != wid {
			t.Errorf("Add(narrow) = covered=%v by %d, want covered by %d", covered, coveredBy, wid)
		}
		if nid == wid {
			t.Error("Add must assign distinct ids")
		}
		if p.Len() != 2 {
			t.Errorf("Len = %d, want 2 (Add inserts either way)", p.Len())
		}
	})

	t.Run("find-cover", func(t *testing.T) {
		p := fresh(t)
		wid, err := p.Insert(wide)
		if err != nil {
			t.Fatal(err)
		}
		id, found, _, err := p.FindCover(narrow)
		if err != nil || !found || id != wid {
			t.Fatalf("FindCover(narrow) = (%d,%v,%v), want (%d,true,nil)", id, found, err, wid)
		}
		if _, found, _, err := p.FindCover(uncovered); err != nil || found {
			t.Fatalf("FindCover(uncovered) = (%v,%v), want a clean miss", found, err)
		}
	})

	t.Run("remove", func(t *testing.T) {
		p := fresh(t)
		id, err := p.Insert(wide)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Remove(id); err != nil {
			t.Fatal(err)
		}
		if p.Len() != 0 {
			t.Errorf("Len = %d after removal", p.Len())
		}
		if _, found, _, _ := p.FindCover(narrow); found {
			t.Error("removed subscription still covers")
		}
		if err := p.Remove(id); err == nil {
			t.Error("double remove must fail")
		}
	})

	t.Run("holds", func(t *testing.T) {
		p := fresh(t)
		id, err := p.Insert(wide)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Holds(id) {
			t.Fatalf("Holds(%d) = false for a held id", id)
		}
		for _, never := range []uint64{0, id + 1000} {
			if p.Holds(never) {
				t.Errorf("Holds(%d) = true for an id never minted", never)
			}
		}
		if err := p.Remove(id); err != nil {
			t.Fatal(err)
		}
		if p.Holds(id) {
			t.Errorf("Holds(%d) = true after its removal", id)
		}
	})

	t.Run("batch-queries", func(t *testing.T) {
		p := fresh(t)
		wid, err := p.Insert(wide)
		if err != nil {
			t.Fatal(err)
		}
		// Every provider, a Detector looping item by item included, answers
		// aligned with the input.
		res := p.CoverQueryBatch([]*subscription.Subscription{narrow, uncovered})
		if len(res) != 2 {
			t.Fatalf("got %d results for 2 queries", len(res))
		}
		if res[0].Err != nil || !res[0].Covered || res[0].CoveredBy != wid {
			t.Errorf("batch query 0 = %+v, want covered by %d", res[0], wid)
		}
		if res[1].Err != nil || res[1].Covered {
			t.Errorf("batch query 1 = %+v, want uncovered", res[1])
		}
	})

	t.Run("stats", func(t *testing.T) {
		p := fresh(t)
		if _, err := p.Insert(wide); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := p.FindCover(narrow); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := p.FindCover(uncovered); err != nil {
			t.Fatal(err)
		}
		ps := p.Stats()
		if ps.Subscriptions != 1 {
			t.Errorf("Stats.Subscriptions = %d, want 1", ps.Subscriptions)
		}
		// Two calls issued; only the first finds a cover.
		if ps.Queries != 2 || ps.Hits != 1 {
			t.Errorf("Stats totals = %d queries / %d hits, want 2 / 1", ps.Queries, ps.Hits)
		}
		if ps.Shards < 1 || len(ps.ShardSizes) != ps.Shards {
			t.Errorf("Stats layout = %d shards, %d sizes", ps.Shards, len(ps.ShardSizes))
		}
		total := 0
		for _, n := range ps.ShardSizes {
			total += n
		}
		if total != ps.Subscriptions {
			t.Errorf("ShardSizes sum %d != Subscriptions %d", total, ps.Subscriptions)
		}
		// Every counted query ended on exactly one path, scans included.
		paths := 0
		for _, n := range ps.PathQueries {
			paths += n
		}
		if paths != ps.Queries {
			t.Errorf("PathQueries %v sum to %d, Queries = %d", ps.PathQueries, paths, ps.Queries)
		}
	})

	t.Run("batch-writer", func(t *testing.T) {
		p := fresh(t)
		first := p.AddBatch([]*subscription.Subscription{wide})
		if len(first) != 1 || first[0].Err != nil || first[0].ID == 0 {
			t.Fatalf("AddBatch([wide]) = %+v", first)
		}
		// Batch items are mutually unordered, so the cover must come from
		// an EARLIER batch to be asserted.
		res := p.AddBatch([]*subscription.Subscription{narrow, uncovered})
		if len(res) != 2 {
			t.Fatalf("got %d results for 2 adds", len(res))
		}
		if res[0].Err != nil || !res[0].Covered || res[0].CoveredBy != first[0].ID {
			t.Errorf("AddBatch narrow = %+v, want covered by %d", res[0], first[0].ID)
		}
		if res[1].Err != nil || res[1].Covered {
			t.Errorf("AddBatch uncovered = %+v, want a clean miss", res[1])
		}
		if p.Len() != 3 {
			t.Fatalf("Len = %d after batch adds, want 3", p.Len())
		}
		got, ok := p.Subscription(res[0].ID)
		if !ok || !got.Equal(narrow) {
			t.Fatalf("batch-assigned id %d does not round-trip", res[0].ID)
		}
		// Batch items are mutually unordered, so the failing id must be one
		// that can never succeed (a duplicate of a valid id would race it).
		bogus := first[0].ID + res[0].ID + res[1].ID + 1000
		errs := p.RemoveBatch([]uint64{res[0].ID, bogus})
		if len(errs) != 2 || errs[0] != nil || errs[1] == nil {
			t.Fatalf("RemoveBatch = %v, want [nil, error]", errs)
		}
		if p.Len() != 2 {
			t.Fatalf("Len = %d after batch remove, want 2", p.Len())
		}
		if out := p.AddBatch(nil); len(out) != 0 {
			t.Fatalf("AddBatch(nil) = %v", out)
		}
		if out := p.RemoveBatch([]uint64{first[0].ID}); len(out) != 1 || out[0] != nil {
			t.Fatalf("RemoveBatch = %v", out)
		}
	})

	t.Run("rebalancer", func(t *testing.T) {
		p := fresh(t)
		wid, err := p.Insert(wide)
		if err != nil {
			t.Fatal(err)
		}
		// Where subscriptions are indexed is the provider's own business.
		// One tight cluster arriving a subscription at a time is as
		// lopsided as a load gets, and 600 of them are past the population
		// any sliced provider leaves alone: one that has slices must have
		// moved them by itself, and no answer may show it.
		const cluster = 600
		for i := 0; i < cluster; i++ {
			v, pr := 400+i%25, 600+i/25
			s := subscription.MustParse(schema, fmt.Sprintf("volume in [%d,%d] && price in [%d,%d]", v, v+3, pr, pr+3))
			if _, err := p.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		st := p.Stats()
		if len(st.ShardSizes) > 1 && st.Rebalances == 0 {
			t.Errorf("%d slices holding %v never rebalanced", len(st.ShardSizes), st.ShardSizes)
		}
		if (st.Rebalances > 0) != (st.BoundaryMoves > 0) || (st.BoundaryMoves > 0) != (st.MigratedEntries > 0) {
			t.Errorf("rebalance counters disagree: %d passes, %d moves, %d migrated", st.Rebalances, st.BoundaryMoves, st.MigratedEntries)
		}
		if p.Len() != cluster+1 {
			t.Fatalf("Len = %d, want %d", p.Len(), cluster+1)
		}
		id, found, _, err := p.FindCover(narrow)
		if err != nil || !found || id != wid {
			t.Fatalf("FindCover after the load = (%d,%v,%v), want (%d,true,nil)", id, found, err, wid)
		}
		if _, found, _, err := p.FindCover(uncovered); err != nil || found {
			t.Fatalf("FindCover(uncovered) after the load = (%v,%v), want a clean miss", found, err)
		}
	})

	t.Run("persister-snapshot", func(t *testing.T) {
		p := fresh(t)
		wid, err := p.Insert(wide)
		if err != nil {
			t.Fatal(err)
		}
		// A snapshot is pure bookkeeping, and so is refusing one (no durable
		// store behind the provider): answers must be identical after.
		snapErr := p.Snapshot()
		if snapErr != nil && !errors.Is(snapErr, core.ErrUnsupported) {
			t.Fatalf("Snapshot: %v", snapErr)
		}
		id, found, _, err := p.FindCover(narrow)
		if err != nil || !found || id != wid {
			t.Fatalf("FindCover after snapshot = (%d,%v,%v), want (%d,true,nil)", id, found, err, wid)
		}
		if st := p.Stats(); snapErr == nil && st.Snapshots < 1 {
			t.Errorf("Stats.Snapshots = %d after an explicit snapshot", st.Snapshots)
		}
	})

	// Every provider serves the whole interface; what one cannot do it
	// refuses with core.ErrUnsupported, and a refusal changes nothing.
	t.Run("unsupported-is-uniform", func(t *testing.T) {
		p := fresh(t)
		wid, err := p.Insert(wide)
		if err != nil {
			t.Fatal(err)
		}
		held := 1
		ops := []struct {
			name string
			call func() error
		}{
			{"Snapshot", p.Snapshot},
			{"Enumerate", func() error { _, err := p.Enumerate(); return err }},
			{"InsertBatch", func() error {
				// Nothing the probe below could mistake for its cover.
				ids, err := p.InsertBatch([]*subscription.Subscription{uncovered, uncovered})
				if err == nil && len(ids) != 2 {
					t.Errorf("InsertBatch returned %d ids for 2 subscriptions", len(ids))
				}
				held += len(ids)
				return err
			}},
			{"Restore", func() error {
				// p holds wide, so a provider that can restore refuses for
				// that reason instead; either way nothing may change.
				err := p.Restore([]core.Held{{ID: wid + 1000, Rect: uncovered.Rect()}})
				if err == nil {
					t.Error("Restore into a non-empty provider must fail")
				}
				if !errors.Is(err, core.ErrUnsupported) {
					err = nil
				}
				return err
			}},
		}
		for _, op := range ops {
			if err := op.call(); err != nil && !errors.Is(err, core.ErrUnsupported) {
				t.Fatalf("%s = %v, want success or core.ErrUnsupported", op.name, err)
			}
			if n, st := p.Len(), p.Stats().Subscriptions; n != held || st != held {
				t.Fatalf("after %s: Len = %d, Stats.Subscriptions = %d, want %d", op.name, n, st, held)
			}
			if id, found, _, err := p.FindCover(narrow); err != nil || !found || id != wid {
				t.Fatalf("FindCover after %s = (%d,%v,%v), want (%d,true,nil)", op.name, id, found, err, wid)
			}
		}
		all, err := p.Enumerate()
		if err != nil {
			return // refused above, with the right error
		}
		if len(all) != p.Len() {
			t.Fatalf("Enumerate lists %d subscriptions, Len = %d", len(all), p.Len())
		}
		for i, h := range all {
			if i > 0 && all[i-1].ID >= h.ID {
				t.Fatalf("Enumerate is not id-sorted: %d before %d", all[i-1].ID, h.ID)
			}
			if got, ok := p.Subscription(h.ID); !ok || got.Rect() != h.Rect {
				t.Fatalf("Enumerate entry %d disagrees with Subscription(%d)", i, h.ID)
			}
		}
	})

	// Restore is Enumerate's inverse: the provider holds what it is given
	// under the ids it is given — ids no provider mints in this pattern —
	// and mints around them afterwards.
	t.Run("restore", func(t *testing.T) {
		p, q := fresh(t), fresh(t)
		h := []core.Held{{ID: 3, Rect: wide.Rect()}, {ID: 40, Rect: uncovered.Rect()}, {ID: 1000003, Rect: uncovered.Rect()}}
		if err := p.Restore(h); errors.Is(err, core.ErrUnsupported) && p.Len() == 0 {
			return // refused, and left alone
		} else if err != nil {
			t.Fatalf("Restore = %v with Len %d, want success or an untouched core.ErrUnsupported", err, p.Len())
		}
		// A provider that holds anything, an id named twice and a
		// rectangle outside the schema's domain each refuse the whole call.
		outside := wide.Rect()
		outside[1] = outside[1]&^(1<<subscription.MaxBits-1) | (wide.Schema().MaxValue() + 1)
		for _, bad := range []struct {
			why  string
			p    core.Provider
			held []core.Held
		}{
			{"a non-empty provider", p, []core.Held{{ID: 9, Rect: narrow.Rect()}}},
			{"an id named twice", q, []core.Held{{ID: 5, Rect: wide.Rect()}, {ID: 6, Rect: uncovered.Rect()}, {ID: 5, Rect: narrow.Rect()}}},
			{"a rectangle outside the schema's domain", q, []core.Held{{ID: 5, Rect: wide.Rect()}, {ID: 6, Rect: outside}}},
		} {
			if err := bad.p.Restore(bad.held); err == nil || q.Len() != 0 {
				t.Fatalf("Restore with %s = %v, leaving %d held in a provider that was empty", bad.why, err, q.Len())
			}
		}
		got, err := p.Enumerate()
		if err != nil || len(got) != len(h) {
			t.Fatalf("Enumerate = %d entries, %v; want the %d restored", len(got), err, len(h))
		}
		taken := map[uint64]bool{}
		for i, e := range h {
			s, ok := p.Subscription(e.ID)
			if got[i].ID != e.ID || got[i].Rect != e.Rect || !ok || s.Rect() != e.Rect {
				t.Fatalf("restored id %d: Enumerate[%d] is id %d, Subscription resolves %v", e.ID, i, got[i].ID, ok)
			}
			taken[e.ID] = true
		}
		if id, found, _, err := p.FindCover(narrow); err != nil || !found || id != h[0].ID {
			t.Fatalf("FindCover(narrow) = (%d,%v,%v), want the restored id %d", id, found, err, h[0].ID)
		}
		// No id minted afterwards, by any write path, is one already held.
		mint := func(path string, id uint64, err error) {
			t.Helper()
			if err != nil || taken[id] {
				t.Fatalf("%s after Restore = id %d, %v; want a fresh id", path, id, err)
			}
			taken[id] = true
		}
		id, _, _, err := p.Add(narrow)
		mint("Add", id, err)
		id, err = p.Insert(narrow)
		mint("Insert", id, err)
		for _, r := range p.AddBatch([]*subscription.Subscription{narrow, narrow, narrow}) {
			mint("AddBatch", r.ID, r.Err)
		}
		ids, err := p.InsertBatch([]*subscription.Subscription{narrow, narrow, narrow})
		for _, id := range ids {
			mint("InsertBatch", id, err)
		}
		if p.Len() != len(h)+8 || len(taken) != len(h)+8 {
			t.Fatalf("Len = %d with %d distinct ids after Restore and 8 mints", p.Len(), len(taken))
		}
	})

	t.Run("close-idempotent", func(t *testing.T) {
		p := build(t)
		p.Close()
		p.Close()
	})
}

// RunPersistenceConformance exercises the durability contract shared by
// every provider with a durable store behind it: open must return a
// provider backed by the same durable state each call (a fixed data dir,
// a daemon with a fixed -data-dir). The suite opens a provider,
// populates it, snapshots mid-stream, keeps writing, closes it, reopens
// through the same factory, and demands that the recovered provider
// answers identically — same durable sids included — then re-runs the
// mutation battery on the recovered instance.
//
// open is called at least twice; each returned provider is closed by the
// suite before the next is opened, so open owns any store restart a
// reopen needs (a local persist.Store must be closed and reopened; a
// daemon with a data dir may stay up or restart inside open).
func RunPersistenceConformance(t *testing.T, schema *subscription.Schema, open func(t *testing.T) core.Provider) {
	t.Helper()
	wide := subscription.MustParse(schema, "volume <= 1020 && price <= 1020")
	narrow := subscription.MustParse(schema, "volume in [5,1000] && price in [5,1000]")
	uncovered := subscription.MustParse(schema, "volume in [7,1022] && price in [7,1022]")
	// The probe is NOT stored, and has exactly one stored answer once the
	// set is {wide, narrow}: it sits inside wide but outside narrow. A
	// unique answer lets the suite demand an exact id; edge-hugging bounds
	// keep exhaustive SFC search cheap.
	edgeProbe := subscription.MustParse(schema, "volume in [2,1010] && price in [2,1010]")

	p := open(t)
	wid, err := p.Insert(wide)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := p.Insert(uncovered)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Post-snapshot mutations land in the WAL and must replay on top.
	nid, err := p.Insert(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(uid); err != nil {
		t.Fatal(err)
	}
	p.Close()

	r := open(t)
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("recovered Len = %d, want 2", r.Len())
	}
	got, ok := r.Subscription(wid)
	if !ok || !got.Equal(wide) {
		t.Fatalf("recovered Subscription(%d) does not round-trip the pre-snapshot insert", wid)
	}
	got, ok = r.Subscription(nid)
	if !ok || !got.Equal(narrow) {
		t.Fatalf("recovered Subscription(%d) does not round-trip the post-snapshot insert", nid)
	}
	if _, ok := r.Subscription(uid); ok {
		t.Fatalf("removed id %d resurrected across recovery", uid)
	}
	id, found, _, err := r.FindCover(edgeProbe)
	if err != nil || !found || id != wid {
		t.Fatalf("recovered FindCover(edgeProbe) = (%d,%v,%v), want (%d,true,nil)", id, found, err, wid)
	}
	// The recovered provider stays fully mutable: new ids never collide
	// with recovered ones, and removals of recovered ids stick.
	fresh, err := r.Insert(uncovered)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == wid || fresh == nid || fresh == uid {
		t.Fatalf("recovered provider reassigned id %d", fresh)
	}
	if err := r.Remove(wid); err != nil {
		t.Fatalf("removing a recovered id: %v", err)
	}
	if _, found, _, _ := r.FindCover(edgeProbe); found {
		t.Fatal("removed recovered cover still answers")
	}
}

// RunTotalsMatchQueryStats holds a provider's lifetime counters to the
// calls issued against it. build returns a fresh, empty provider for the
// given detector configuration; the suite closes it. Per mode — approximate
// under a small step budget, exact, off — one provider is bulk-loaded with
// planted covers and asked a mixed sequence: recurring shapes (each asked
// four times), then one-shot planted children and uniform shapes in a
// batch (walk hits and misses, and walks that overrun the budget into the
// cube search). A seek checks the leaf it lands in, so a uniform walk
// rarely takes more than a few steps: it takes 8 192 planted pairs and
// 4 000 uniform shapes for a handful of walks to overrun the budget of 8,
// on one array and on eight slices alike.
// Stats must then read Queries as the calls issued, Hits as those that
// found a cover, and RunsProbed, CubesGenerated and every PathQueries cell
// as the sums of the Stats the calls returned. offCounted says whether a
// mode-off call counts as a query: an engine counts it under
// dominance.PathNone, a Detector counts searches, and mode off issues
// none.
func RunTotalsMatchQueryStats(t *testing.T, build func(t *testing.T, cfg core.Config) core.Provider, offCounted bool) {
	t.Helper()
	schema := Schema()
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 8192, SlackFrac: 0.2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: 4000, WidthFrac: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parents := make([]*subscription.Subscription, len(pairs))
	children := make([]*subscription.Subscription, len(pairs))
	for i, pr := range pairs {
		parents[i], children[i] = pr.Parent, pr.Child
	}
	const recurring = 32
	oneShot := append(append([]*subscription.Subscription{}, children[recurring:]...), uniform...)

	type tally struct {
		queries, hits, runs, cubes int
		paths                      [dominance.NumPaths]int
	}
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"approx", core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 8}},
		{"exact", core.Config{Schema: schema, Mode: core.ModeExact}},
		{"off", core.Config{Schema: schema, Mode: core.ModeOff}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p := build(t, mode.cfg)
			t.Cleanup(p.Close)
			if _, err := p.InsertBatch(parents); err != nil {
				t.Fatal(err)
			}
			var w tally
			count := func(found bool, st dominance.Stats, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if mode.cfg.Mode == core.ModeOff && !offCounted {
					return
				}
				w.queries++
				if found {
					w.hits++
				}
				w.runs += st.RunsProbed
				w.cubes += st.CubesGenerated
				w.paths[st.Path]++
			}
			for pass := 0; pass < 4; pass++ {
				for _, c := range children[:recurring] {
					_, found, st, err := p.FindCover(c)
					count(found, st, err)
				}
			}
			for _, r := range p.CoverQueryBatch(oneShot) {
				count(r.Covered, r.Stats, r.Err)
			}

			ps := p.Stats()
			got := tally{ps.Queries, ps.Hits, ps.RunsProbed, ps.CubesGenerated, ps.PathQueries}
			if got != w {
				t.Fatalf("Stats read %+v, the calls issued sum to %+v", got, w)
			}
			// The sequence reaches every cut it claims to.
			switch mode.cfg.Mode {
			case core.ModeApprox:
				if w.paths[dominance.PathWalk] == 0 || w.paths[dominance.PathCubes] == 0 {
					t.Fatalf("paths %v: the approximate sequence must end on the walk and the cubes", w.paths)
				}
			case core.ModeExact:
				if w.paths[dominance.PathWalk] == 0 {
					t.Fatalf("paths %v: no exact query walked", w.paths)
				}
			}
			if mode.cfg.Mode != core.ModeOff && (w.hits == 0 || w.hits == w.queries) {
				t.Fatalf("%d hits of %d queries: the sequence must both find and miss", w.hits, w.queries)
			}
		})
	}
}
