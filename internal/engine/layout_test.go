package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// TestBulkLoadBalancesSlices: a default engine places its slice
// boundaries from the batch it is loaded with. The uniform key-prefix
// table this replaced put 16 338 of the benchmark's 16 384 parents in its
// last slice, and every hotspot in one — skew in the thousands. The
// layout must also be a pure function of the load, and must not show in
// any answer: every query resolves to the subscription and the cut a
// one-slice engine gives (ids encode their stripe, so they are compared
// through the subscriptions they resolve to). The walk's length may
// differ: seeks skip by leaf, and the slices' leaves are not one array's.
func TestBulkLoadBalancesSlices(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	planted, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 16384, SlackFrac: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var parents, children []*subscription.Subscription
	for _, p := range planted {
		parents = append(parents, p.Parent)
		children = append(children, p.Child)
	}
	uniform, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: 2048, WidthFrac: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hot shapes come round three times; miss shapes are distinct.
	hot := slices.Concat(children[:256], children[:256], children[:256])
	for _, tc := range []struct {
		name       string
		population []*subscription.Subscription
		queries    []*subscription.Subscription
	}{
		{"planted-parents", parents, append(hot, uniform...)},
		{"hotspot", hotspotSubs(t, schema, 8000, 31), append(hotspotSubs(t, schema, 512, 32), uniform[:512]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det := core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 50000}
			build := func(shards int) *Engine {
				e := MustNew(Config{Detector: det, Shards: shards})
				t.Cleanup(e.Close)
				if _, err := e.InsertBatch(tc.population); err != nil {
					t.Fatal(err)
				}
				return e
			}
			e, twin, one := build(0), build(0), build(1)
			if skew := e.skew(); skew > 1.5 {
				t.Fatalf("bulk load left skew %.2f: %v", skew, e.idx.ShardSizes())
			}
			if ps := e.Stats(); ps.BoundaryMoves != 0 {
				t.Fatalf("the load needed %d boundary moves on top of its own table", ps.BoundaryMoves)
			}
			if a, b := e.idx.Boundaries(), twin.idx.Boundaries(); !slices.Equal(a, b) {
				t.Fatalf("two loads of one set chose different tables:\n%v\n%v", a, b)
			}

			type answer struct {
				found bool
				sub   string
				path  dominance.Path
			}
			ask := func(e *Engine, q *subscription.Subscription) answer {
				id, found, st, err := e.FindCover(q)
				if err != nil {
					t.Fatal(err)
				}
				a := answer{found: found, path: st.Path}
				if found {
					s, ok := e.Subscription(id)
					if !ok {
						t.Fatalf("cover id %d does not resolve", id)
					}
					a.sub = s.String()
				}
				return a
			}
			hits := 0
			for i, q := range tc.queries {
				got, want := ask(e, q), ask(one, q)
				if got != want {
					t.Fatalf("query %d (%v): %d slices answer %+v, one slice %+v", i, q, e.NumShards(), got, want)
				}
				if got.found {
					hits++
				}
			}
			if hits == 0 || hits == len(tc.queries) {
				t.Fatalf("%d of %d queries hit: both outcomes are needed", hits, len(tc.queries))
			}
		})
	}
}

// TestDefaultEngineAcceptsEverySchema: the default engine builds on every
// schema subscription.NewSchema accepts. The uniform prefix table refused
// the narrow ones ("8 shards exceed the 4 key-prefix slices" on one 1-bit
// attribute); with boundaries taken from data a slice that owns no key is
// legal. On the 1-bit schemas, small enough to enumerate, every
// representable rectangle is inserted in turn and every representable
// query is checked against a scan of what is held so far.
func TestDefaultEngineAcceptsEverySchema(t *testing.T) {
	for _, bits := range []int{1, 2, 16} {
		for _, attrs := range [][]string{{"a"}, {"a", "b"}} {
			t.Run(fmt.Sprintf("bits=%d/attrs=%d", bits, len(attrs)), func(t *testing.T) {
				schema := subscription.MustSchema(bits, attrs...)
				e, err := New(Config{Detector: core.Config{Schema: schema}})
				if err != nil {
					t.Fatalf("default engine: %v", err)
				}
				e.Close()
				if bits != 1 {
					return
				}
				e, err = New(Config{Detector: core.Config{Schema: schema, Mode: core.ModeExact}})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				// Every rectangle over {[0,0], [0,1], [1,1]} per attribute.
				ranges := [][2]uint32{{0, 0}, {0, 1}, {1, 1}}
				all := []*subscription.Subscription{subscription.New(schema)}
				for _, attr := range attrs {
					var next []*subscription.Subscription
					for _, s := range all {
						for _, r := range ranges {
							c := s.Clone()
							if err := c.SetRange(attr, r[0], r[1]); err != nil {
								t.Fatal(err)
							}
							next = append(next, c)
						}
					}
					all = next
				}
				for held, s := range all {
					for _, q := range all {
						want := slices.ContainsFunc(all[:held], func(h *subscription.Subscription) bool { return h.Covers(q) })
						id, found, _, err := e.FindCover(q)
						if err != nil {
							t.Fatal(err)
						}
						if found != want {
							t.Fatalf("holding %v: FindCover(%v) = %v, a scan says %v", all[:held], q, found, want)
						}
						if got, ok := e.Subscription(id); found && (!ok || !got.Covers(q)) {
							t.Fatalf("FindCover(%v) named %v, which does not cover it", q, got)
						}
					}
					if _, err := e.Insert(s); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestRestoreSharesTheBulkLoadSeam: Restore decides the slice layout the
// way InsertBatch does — same table from the same sequence, no pass run —
// though it holds the dump under ids no engine mints (a detector's 1, 2,
// 3 …, whose stripes have nothing to do with where the keys fall), and
// every stripe mints from past the largest local id it was given.
func TestRestoreSharesTheBulkLoadSeam(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs := hotspotSubs(t, schema, 8000, 31)
	det := core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 50000}
	held := make([]core.Held, len(subs))
	for i, s := range subs {
		held[i] = core.Held{ID: uint64(i + 1), Rect: s.Rect()}
	}
	e, twin := MustNew(Config{Detector: det}), MustNew(Config{Detector: det})
	defer e.Close()
	defer twin.Close()
	if err := e.Restore(held); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.InsertBatch(subs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(e.idx.Boundaries(), twin.idx.Boundaries()) {
		t.Fatalf("Restore placed %v, InsertBatch of the same sequence %v", e.idx.Boundaries(), twin.idx.Boundaries())
	}
	if st := e.Stats(); st.SkewRatio > 1.5 || st.Rebalances != 0 || st.Subscriptions != len(subs) {
		t.Fatalf("restored engine: skew %.2f, %d passes, %d held; want a balanced, never-rebalanced %d", st.SkewRatio, st.Rebalances, st.Subscriptions, len(subs))
	}
	for i := range e.stores {
		// The largest id <= len(subs) that decodes to stripe i.
		_, local := decodeID(len(e.stores), uint64(len(subs)-(len(subs)-i)%len(e.stores)))
		if e.stores[i].next != local+1 {
			t.Fatalf("stripe %d mints from local id %d, want %d (one past the largest restored)", i, e.stores[i].next, local+1)
		}
	}
	for _, h := range held[:64] {
		if got, ok := e.Subscription(h.ID); !ok || got.Rect() != h.Rect {
			t.Fatalf("restored id %d does not resolve to its subscription", h.ID)
		}
		if err := e.Remove(h.ID); err != nil {
			t.Fatalf("removing restored id %d: %v", h.ID, err)
		}
	}
	// An engine's own dump is the periodic order: sorted by id it cycles
	// through the stripes, which were the key slices when the ids were
	// minted. A boundary sample that strode it by position (8 000 entries:
	// every 8th) would see one slice's keys only.
	dump, err := coretest.HeldOf(twin)
	if err != nil {
		t.Fatal(err)
	}
	again := MustNew(Config{Detector: det})
	defer again.Close()
	if err := again.Restore(dump); err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); st.SkewRatio > 1.5 || st.Rebalances != 0 {
		t.Fatalf("engine restored from an engine's dump: skew %.2f after %d passes, slices %v; want a balanced load and no pass", st.SkewRatio, st.Rebalances, st.ShardSizes)
	}
}

// TestRestoreRacesWrites: a Restore racing every write path either finds
// the engine empty and loads whole, with the racing writes minting around
// it, or finds it occupied and loads nothing. No id is ever held twice,
// and nobody waits forever (a batch write waits on the stripe locks
// Restore holds, as a single write does, while Restore's own shares load
// on goroutines it starts).
func TestRestoreRacesWrites(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs := hotspotSubs(t, schema, 600, 7)
	held := make([]core.Held, 400)
	for i := range held {
		held[i] = core.Held{ID: uint64(i + 1), Rect: subs[i].Rect()}
	}
	loaded := 0
	defer func() { t.Logf("Restore found the engine empty in %d of 20 rounds", loaded) }()
	for round := 0; round < 20; round++ {
		e := MustNew(Config{Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}, Shards: 4})
		var wg sync.WaitGroup
		var restoreErr error
		minted := make([][]uint64, 3)
		wg.Add(4)
		go func() {
			defer wg.Done()
			restoreErr = e.Restore(held)
		}()
		go func() {
			defer wg.Done()
			for _, s := range subs[400:450] {
				id, err := e.Insert(s)
				if err != nil {
					t.Error(err)
				}
				minted[0] = append(minted[0], id)
			}
		}()
		go func() {
			defer wg.Done()
			for _, r := range e.AddBatch(subs[450:550]) {
				if r.Err != nil {
					t.Error(r.Err)
				}
				minted[1] = append(minted[1], r.ID)
			}
		}()
		go func() {
			defer wg.Done()
			ids, err := e.InsertBatch(subs[550:])
			if err != nil {
				t.Error(err)
			}
			minted[2] = ids
			for _, err := range e.RemoveBatch(ids[:10]) {
				if err != nil {
					t.Error(err)
				}
			}
		}()
		wg.Wait()
		want := 190
		if restoreErr == nil {
			want += len(held)
			loaded++
		}
		all, _ := coretest.HeldOf(e)
		if len(all) != want || e.Len() != want || e.idx.Len() != want {
			t.Fatalf("round %d (Restore = %v): %d enumerated, Len %d, %d indexed, want %d", round, restoreErr, len(all), e.Len(), e.idx.Len(), want)
		}
		seen := map[uint64]bool{}
		for _, ids := range minted {
			for _, id := range ids {
				if seen[id] || restoreErr == nil && id <= uint64(len(held)) {
					t.Fatalf("round %d: id %d minted twice, or over a restored one", round, id)
				}
				seen[id] = true
			}
		}
		if restoreErr == nil {
			for _, h := range held {
				if got, ok := e.Subscription(h.ID); !ok || got.Rect() != h.Rect {
					t.Fatalf("round %d: restored id %d lost its subscription to a racing write", round, h.ID)
				}
			}
		}
		e.Close()
	}
}

// TestMissWalkSkipsSlices pins the lock-free slice pass: a walk's seek that
// finds nothing in its own slice reads each later slice's mirrored
// dominance summary and locks only those that may hold a cover. On the
// benchmark's population (16 384 planted parents, the benchmark's engine)
// 4 096 distinct uniform shapes are asked with tracing on, and the slices
// each locked are read off its trace (QueryTrace.Slices: the top-cube
// probe's slice and every slice a seek searched). The misses among them,
// about seven in ten, must lock at most two slices a query on average:
// locking every slice a seek runs past reads 9.05, the pass 1.05 — the top
// cube's probe and next to nothing more. A hit's walk locks the slice of
// every key it stops at, so hits do not go below their steps. A slot whose
// mirror was never published (zero) is passed for good and answers wrong,
// one published at "admit all" runs the count up: either fails here, for
// every answer must be a one-slice engine's.
func TestMissWalkSkipsSlices(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	planted, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 16384, SlackFrac: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parents := make([]*subscription.Subscription, len(planted))
	for i, p := range planted {
		parents[i] = p.Parent
	}
	queries, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: 4096, WidthFrac: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	det := core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 50000}
	build := func(shards int) *Engine {
		e := MustNew(Config{Detector: det, Shards: shards})
		t.Cleanup(e.Close)
		if _, err := e.InsertBatch(parents); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e, one := build(0), build(1)
	var locked, asked [2]int // by outcome: [miss, hit]
	for i, q := range queries {
		res, tr := e.TraceCover(q)
		id, found, _, err := one.FindCover(q)
		if res.Err != nil || err != nil {
			t.Fatalf("query %d: %v / %v", i, res.Err, err)
		}
		if res.Covered != found {
			t.Fatalf("query %d (%v): %d slices found=%v, one slice %v", i, q, e.NumShards(), res.Covered, found)
		}
		hit := 0
		if found {
			hit = 1
			a, _ := e.Subscription(res.CoveredBy)
			b, _ := one.Subscription(id)
			if a.String() != b.String() {
				t.Fatalf("query %d (%v): %d slices answer %v, one slice %v", i, q, e.NumShards(), a, b)
			}
		}
		asked[hit]++
		for _, n := range tr.Slices {
			locked[hit] += n
		}
	}
	if asked[0] == 0 || asked[1] == 0 {
		t.Fatalf("%d misses, %d hits: both outcomes are needed", asked[0], asked[1])
	}
	miss := float64(locked[0]) / float64(asked[0])
	t.Logf("%d misses lock %.2f slices a query, %d hits %.2f", asked[0], miss, asked[1], float64(locked[1])/float64(asked[1]))
	if miss > 2 {
		t.Fatalf("a miss locks %.2f slices a query, want at most 2", miss)
	}
}
