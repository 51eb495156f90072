// Package coretest holds the core.Provider conformance suite: one battery
// of behavioral checks that every provider implementation — the single
// Detector, the sharded Engine, the persist DurableProvider, the sfcd
// RemoteProvider — must pass identically, so that brokers and services
// can swap backends without re-auditing semantics. Implementation packages
// call RunProviderConformance from their own tests with a factory for a
// fresh, empty, exact-mode provider, and RunTotalsMatchQueryStats with one
// that takes the detector configuration. Histories holds the same
// providers to the contract under concurrent calls: seeded histories of
// four goroutines, checked offline by DESIGN.md's interval rules.
package coretest

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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

// HeldOf reads p's Enumerate listing out, by id.
func HeldOf(p core.Provider) ([]core.Held, error) {
	l, err := p.Enumerate()
	if err != nil {
		return nil, err
	}
	return l.Held(), nil
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
		all, err := HeldOf(p)
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
		got, err := HeldOf(p)
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
// as the sums of the Stats the calls returned. Where the mode searches,
// the sequence must ask queries that end on their first probe and
// queries of more, so a probe count that took one probe a query for
// granted would not read right. offCounted says whether a mode-off call
// counts as a query: an engine counts it under dominance.PathNone, a
// Detector counts searches, and mode off issues none.
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
			var oneProbe, multiProbe int
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
				switch {
				case st.RunsProbed == 1:
					oneProbe++
				case st.RunsProbed > 1:
					multiProbe++
				}
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
			if mode.cfg.Mode != core.ModeOff && (oneProbe == 0 || multiProbe == 0) {
				t.Fatalf("%d one-probe and %d multi-probe queries: the sequence must ask both", oneProbe, multiProbe)
			}
		})
	}
}

// Histories runs four goroutines of seeded operations — every write and
// read, Restore, Snapshot, and build's background op (an engine's
// Rebalance, say) if it returns one — against a fresh, empty, exact-mode
// provider, stamps each call at invoke and return from one counter, and
// checks the history offline by the interval rules of DESIGN.md's
// Provider contract, then the quiescent provider against the history's
// model. A violation fails with the seed, the rule, the ops whose
// intervals overlap the offending one and the ops that minted and removed
// the id it names. Histories closes the provider and returns the model,
// sorted by id.
func Histories(t *testing.T, build func(t *testing.T) (core.Provider, func()), seed int64) []core.Held {
	t.Helper()
	p, background := build(t)
	defer p.Close()
	// Each sixteenth of the run draws from its own hotspot, so the held
	// set drifts over the key space and slice boundaries keep moving.
	pools := make([][]*subscription.Subscription, 16)
	for i := range pools {
		var err error
		if pools[i], err = workload.Subscriptions(workload.SubSpec{Schema: p.Schema(), N: 32, Dist: workload.DistHotspot, WidthFrac: 0.2, Seed: seed*16 + int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h, logBase := &history{p: p, background: background}, p.Stats().WALRecords
	var wg sync.WaitGroup
	for g := range h.workers {
		w := &h.workers[g]
		w.h, w.g, w.rng = h, g, rand.New(rand.NewSource(seed*4+int64(g)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range historyOps {
				w.step(pools[i*len(pools)/historyOps])
			}
		}()
	}
	wg.Wait()
	return h.check(t, seed, logBase, slices.Concat(pools...))
}

// historyOps is how many ops each of Histories' goroutines draws, and
// opKinds their weights: each entry is one draw in twenty.
const historyOps = 600

var opKinds = [20]string{"Add", "Add", "Insert", "AddBatch", "InsertBatch", "Remove", "Remove", "Remove",
	"RemoveBatch", "RemoveBatch", "RemoveBatch", "RemoveBatch", "FindCover", "CoverQueryBatch", "Holds",
	"Subscription", "Enumerate", "Restore", "background", "background"}

type history struct {
	p          core.Provider
	background func()
	clock      atomic.Int64
	minted     [64]atomic.Uint64 // a ring of the ids minted last, at cursor
	cursor     atomic.Uint64
	workers    [4]worker
}

type worker struct {
	h    *history
	g    int
	rng  *rand.Rand
	mine []uint64 // ids this goroutine minted and has not yet removed
	ops  []*op
}

// op is one call: its stamps and its answers. A fact is one answer: an
// id minted ('m'), whether a remove of id succeeded ('r'), whether Holds
// ('h') or Subscription ('s') found id, or whether a query was covered
// ('q'), by id; rect is the minted, found or query rectangle.
type op struct {
	g        int
	kind     string
	inv, ret int64
	facts    []fact
	listed   []core.Held // an Enumerate's answer
	err      error
}

type fact struct {
	kind byte
	id   uint64
	ok   bool
	rect subscription.Rect
}

func (o *op) String() string {
	s := fmt.Sprintf("g%d %s [%d,%d]", o.g, o.kind, o.inv, o.ret)
	for _, f := range o.facts {
		s += fmt.Sprintf(" %c%d:%v", f.kind, f.id, f.ok)
	}
	return s + fmt.Sprintf(" listed %d err %v", len(o.listed), o.err)
}

// answer records a fact of o, and err as o's failure unless the fact is
// a remove's; a minted id joins the goroutine's own and the ring.
func (w *worker) answer(o *op, kind byte, id uint64, ok bool, s *subscription.Subscription, err error) {
	f := fact{kind: kind, id: id, ok: ok}
	if s != nil {
		f.rect = s.Rect()
	}
	if o.facts = append(o.facts, f); kind != 'r' {
		o.err = cmp.Or(o.err, err)
	}
	if kind == 'm' && ok {
		w.mine = append(w.mine, id)
		w.h.minted[w.h.cursor.Add(1)%64].Store(id)
	}
}

// target draws an id to remove or look up: one of the goroutine's own
// (taken, oldest first, if pop), one some goroutine minted, or a guess
// just past one minted last, which may be being minted right then.
func (w *worker) target(pop bool) uint64 {
	switch k := w.rng.Intn(4); {
	case (k < 2 || len(w.mine) > 16) && len(w.mine) > 0:
		id := w.mine[0]
		if pop {
			w.mine = w.mine[1:]
		}
		return id
	case k < 3:
		return w.h.minted[w.rng.Intn(64)].Load()
	}
	return w.h.minted[(w.h.cursor.Load()-uint64(w.rng.Intn(4)))%64].Load() + 1 + uint64(w.rng.Intn(16))
}

// step draws one op on subscriptions from pool and runs it between its
// stamps. They also bracket drawing its ids and recording its answers,
// which only widens its interval.
func (w *worker) step(pool []*subscription.Subscription) {
	p, rng, o := w.h.p, w.rng, &op{g: w.g, kind: opKinds[w.rng.Intn(len(opKinds))]}
	w.ops = append(w.ops, o)
	batch := make([]*subscription.Subscription, 1+rng.Intn(12))
	for i := range batch {
		batch[i] = pool[rng.Intn(len(pool))]
	}
	s := batch[0]
	switch {
	case w.g == 0 && len(w.ops) == 1: // a Restore races the first writes
		o.kind = "Restore"
	case o.kind == "background" && w.h.background == nil:
		o.kind = "Snapshot"
	}
	o.inv = w.h.clock.Add(1)
	defer func() { o.ret = w.h.clock.Add(1) }()
	switch o.kind {
	case "Add":
		id, covered, by, err := p.Add(s)
		w.answer(o, 'q', by, covered, s, err)
		w.answer(o, 'm', id, err == nil, s, err)
	case "Insert":
		id, err := p.Insert(s)
		w.answer(o, 'm', id, err == nil, s, err)
	case "AddBatch":
		for i, r := range p.AddBatch(batch) {
			w.answer(o, 'q', r.CoveredBy, r.Covered, batch[i], r.Err)
			w.answer(o, 'm', r.ID, r.Err == nil, batch[i], r.Err)
		}
	case "InsertBatch":
		ids, err := p.InsertBatch(batch)
		for i, id := range ids {
			w.answer(o, 'm', id, true, batch[i], nil)
		}
		o.err = err
	case "Remove":
		id := w.target(true)
		err := p.Remove(id)
		w.answer(o, 'r', id, err == nil, nil, err)
	case "RemoveBatch":
		// A third of the batches name a run of ids past the one minted
		// last, a third name their first id twice.
		form, last := rng.Intn(3), w.h.minted[w.h.cursor.Load()%64].Load()
		ids := make([]uint64, len(batch))
		for i := range ids {
			ids[i] = last + 1 + uint64(i)
			if form > 0 {
				ids[i] = w.target(true)
			}
		}
		if form == 1 {
			ids = append(ids, ids[0])
		}
		for i, err := range p.RemoveBatch(ids) {
			if err == nil || !slices.Contains(ids[:i], ids[i]) { // a repeat's failure says nothing
				w.answer(o, 'r', ids[i], err == nil, nil, err)
			}
		}
	case "FindCover":
		by, found, _, err := p.FindCover(s)
		w.answer(o, 'q', by, found, s, err)
	case "CoverQueryBatch":
		for i, r := range p.CoverQueryBatch(batch) {
			w.answer(o, 'q', r.CoveredBy, r.Covered, batch[i], r.Err)
		}
	case "Holds":
		id := w.target(false)
		w.answer(o, 'h', id, p.Holds(id), nil, nil)
	case "Subscription":
		id := w.target(false)
		got, ok := p.Subscription(id)
		w.answer(o, 's', id, ok, got, nil)
	case "Enumerate":
		o.listed, o.err = HeldOf(p)
	case "background":
		w.h.background()
	case "Snapshot":
		o.err = p.Snapshot()
	case "Restore": // under ids no other op names
		held := make([]core.Held, len(batch))
		for i, s := range batch {
			held[i] = core.Held{ID: uint64(o.inv)<<20 + uint64(i), Rect: s.Rect()}
		}
		if o.err = p.Restore(held); o.err == nil {
			for i, h := range held {
				w.answer(o, 'm', h.ID, true, batch[i], nil)
			}
		}
	}
}

// life is one minted subscription: the op that minted it and the one
// whose remove of it succeeded — held, after every op, while none has.
// liveSome and liveThroughout are the interval rules.
type life struct {
	id       uint64
	rect     subscription.Rect
	ins, rem *op
}

var held = &op{inv: math.MaxInt64, ret: math.MaxInt64}

func (l *life) liveSome(o *op) bool { return l != nil && l.ins.inv < o.ret && l.rem.ret > o.inv }

func (l *life) liveThroughout(o *op) bool { return l != nil && l.ins.ret < o.inv && l.rem.inv > o.ret }

// check holds the history to the rules, then the quiescent provider to
// the model the history leaves, and returns the model.
func (h *history) check(t *testing.T, seed int64, logBase int, probes []*subscription.Subscription) []core.Held {
	t.Helper()
	var ops []*op
	for _, w := range h.workers {
		ops = append(ops, w.ops...)
	}
	lives := map[uint64]*life{}
	fail := func(o *op, id uint64, format string, args ...any) {
		t.Helper()
		msg := fmt.Sprintf("seed %d: %s\n  op: %v", seed, fmt.Sprintf(format, args...), o)
		for _, x := range ops {
			if x != o && x.inv < o.ret && o.inv < x.ret {
				msg += fmt.Sprintf("\n  overlapping: %v", x)
			}
		}
		if l := lives[id]; l != nil {
			msg += fmt.Sprintf("\n  minted id %d: %v\n  removed id %d: %v", id, l.ins, id, l.rem)
		}
		t.Fatal(msg)
	}
	var all []*life
	writes, snapshots := 0, 0
	for pass, kind := range []byte{'m', 'r'} {
		for _, o := range ops {
			for _, f := range o.facts {
				if l := lives[f.id]; f.kind != kind || !f.ok {
					continue
				} else if pass == 0 && l != nil {
					fail(o, f.id, "id %d minted twice", f.id)
				} else if pass == 0 {
					lives[f.id] = &life{id: f.id, rect: f.rect, ins: o, rem: held}
					all = append(all, lives[f.id])
				} else if l == nil || l.rem != held {
					fail(o, f.id, "a remove of id %d succeeded, but it was never minted or another remove of it succeeded too", f.id)
				} else {
					l.rem = o
				}
				writes++
			}
		}
	}
	slices.SortFunc(all, func(a, b *life) int { return cmp.Compare(a.id, b.id) })
	for _, o := range ops {
		switch {
		case o.kind == "Restore" && o.err == nil:
			for _, l := range all {
				if l.liveThroughout(o) {
					fail(o, l.id, "Restore loaded a provider that held id %d throughout the call", l.id)
				}
			}
		case o.err != nil && o.kind != "Restore" && !errors.Is(o.err, core.ErrUnsupported):
			fail(o, 0, "the call failed: %v", o.err)
		case o.kind == "Snapshot" && o.err == nil:
			snapshots++
		}
		for _, f := range o.facts {
			l := lives[f.id]
			switch {
			case f.kind == 'q' && f.ok && (!l.liveSome(o) || !l.rect.Covers(f.rect)):
				fail(o, f.id, "claimed coverer %d does not cover the query or was live at no instant of the call", f.id)
			case f.kind == 'q' && !f.ok:
				for _, c := range all {
					if c.liveThroughout(o) && c.rect.Covers(f.rect) {
						fail(o, c.id, "no cover found, but id %d covers the query and was live throughout the call", c.id)
					}
				}
			case f.kind == 'm' || f.kind == 'q':
			case f.ok && (!l.liveSome(o) || f.kind == 's' && f.rect != l.rect):
				fail(o, f.id, "%s found id %d, live at no instant of the call or under another rectangle", o.kind, f.id)
			case !f.ok && l.liveThroughout(o):
				fail(o, f.id, "%s missed id %d, live throughout the call", o.kind, f.id)
			}
		}
		if o.kind == "Enumerate" && o.err == nil && !isCut(o, lives, all) {
			fail(o, 0, "Enumerate is no cut: no instant of the call had exactly the %d listed live", len(o.listed))
		}
	}

	q := &op{g: -1, kind: "quiescent", inv: h.clock.Add(1), ret: math.MaxInt64}
	var model []core.Held
	for _, l := range all {
		if l.rem == held {
			model = append(model, core.Held{ID: l.id, Rect: l.rect})
			if s, ok := h.p.Subscription(l.id); !ok || !h.p.Holds(l.id) || s.Rect() != l.rect {
				fail(q, l.id, "after quiescence id %d is not held as minted", l.id)
			}
		}
	}
	if got, err := HeldOf(h.p); err == nil && !slices.Equal(got, model) {
		fail(q, 0, "after quiescence Enumerate lists %d subscriptions, the model holds %d", len(got), len(model))
	}
	if n, ps := h.p.Len(), h.p.Stats(); n != len(model) || ps.Subscriptions != len(model) {
		fail(q, 0, "after quiescence Len reads %d and Stats %d, the model holds %d", n, ps.Subscriptions, len(model))
	}
	for _, s := range probes {
		by, found, _, err := h.p.FindCover(s)
		want := slices.ContainsFunc(model, func(m core.Held) bool { return m.Rect.Covers(s.Rect()) })
		if l := lives[by]; err != nil || found != want || found && (!l.liveSome(q) || !l.rect.Covers(s.Rect())) {
			fail(q, by, "after quiescence FindCover(%v) = (%d, %v, %v), and a linear scan of the model finds a cover: %v", s, by, found, err, want)
		}
	}
	if logged := h.p.Stats().WALRecords - logBase; (logged != 0 || snapshots > 0) && logged != writes {
		fail(q, 0, "the log gained %d records for %d successful writes", logged, writes)
	}
	return model
}

// isCut reports whether some instant of o, an Enumerate, had exactly the
// listed subscriptions live. Stamps are integers, so an instant is a
// half-integer t+½, o.inv <= t < o.ret. A listed subscription bounds t by
// its insert's invoke and its removal's return; an unlisted one rules out
// every t from its insert's return up to its removal's invoke.
func isCut(o *op, lives map[uint64]*life, all []*life) bool {
	lo, hi, listed := o.inv, o.ret, map[uint64]bool{}
	for i, e := range o.listed {
		l := lives[e.ID]
		if l == nil || l.rect != e.Rect || i > 0 && e.ID <= o.listed[i-1].ID {
			return false
		}
		listed[e.ID], lo, hi = true, max(lo, l.ins.inv), min(hi, l.rem.ret)
	}
	var ruled [][2]int64
	for _, l := range all {
		if !listed[l.id] {
			ruled = append(ruled, [2]int64{l.ins.ret, l.rem.inv})
		}
	}
	slices.SortFunc(ruled, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	for _, r := range ruled {
		if r[0] <= lo {
			lo = max(lo, r[1])
		}
	}
	return lo < hi
}
