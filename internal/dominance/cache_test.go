package dominance

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sfccover/internal/geom"
)

// TestCacheBitIdentical is the memo's core contract on a static
// population: an index with the memo answers every query — id and found —
// identically to one without, on the first-touch pass (search, shape
// noted), the second (search, entry recorded) and the third (pure
// replay), across universes, ε budgets and step budgets tight enough that
// some queries overrun the walk and are memoized from the cube search. A
// seek checks the leaf it lands in, so few uniform walks take three steps:
// 400 points and 640 query shapes leave a few overruns that the cube search
// answers under each budget of 2 (200 and 80 did, before the check).
func TestCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	configs := []Config{
		{Dims: 2, Bits: 6},
		{Dims: 2, Bits: 6, MaxCubes: 2},
		{Dims: 3, Bits: 5, MaxCubes: 64},
		{Dims: 3, Bits: 5},
		{Dims: 2, Bits: 8, MaxCubes: 2},
	}
	epsilons := []float64{0, 0.05, 0.3, 0.6}
	for _, cfg := range configs {
		cfg.Seed = 7
		name := fmt.Sprintf("%dx%d budget %d", cfg.Dims, cfg.Bits, cfg.MaxCubes)
		cached := MustIndex(cfg)
		plainCfg := cfg
		plainCfg.CacheSize = -1
		plain := MustIndex(plainCfg)
		for i, p := range randomPoints(rng, 400, cfg.Dims, cfg.Bits) {
			cached.Insert(p, uint64(i))
			plain.Insert(p, uint64(i))
		}
		queries := randomPoints(rng, 640, cfg.Dims, cfg.Bits)
		replays, fromCubes := 0, 0
		hitsSoFar := map[string]int{} // per shape: approximate queries that found a dominator
		for pass := 0; pass < 3; pass++ {
			for qi, q := range queries {
				eps := epsilons[qi%len(epsilons)]
				id1, ok1, st1, err1 := cached.Query(q, eps)
				id2, ok2, st2, err2 := plain.Query(q, eps)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s pass %d: errors %v, %v", name, pass, err1, err2)
				}
				if id1 != id2 || ok1 != ok2 {
					t.Fatalf("%s pass %d q=%v eps=%g: answer mismatch: (%d,%v) vs (%d,%v)",
						name, pass, q, eps, id1, ok1, id2, ok2)
				}
				if st2.Path == PathMemo {
					t.Fatalf("%s: an index without a memo reported %+v", name, st2)
				}
				shape := fmt.Sprint(q)
				seen := hitsSoFar[shape]
				if ok1 && eps > 0 {
					hitsSoFar[shape]++
				}
				if st1.Path != PathMemo {
					if st1 != st2 {
						t.Fatalf("%s pass %d q=%v eps=%g: searched stats differ:\ncached:   %+v\nuncached: %+v",
							name, pass, q, eps, st1, st2)
					}
					continue
				}
				if seen < 2 || eps == 0 || !ok1 {
					t.Fatalf("%s pass %d eps=%g found=%v after %d hits: replay before the second touch, of an exact query or of a miss: %+v",
						name, pass, eps, ok1, seen, st1)
				}
				if st1.RunsProbed != 1 || st1.WalkSteps != 0 || st1.CubesGenerated != 0 {
					t.Fatalf("%s: a replay is one probe: %+v", name, st1)
				}
				replays++
				if st2.Path == PathCubes {
					fromCubes++
				}
			}
		}
		hits, misses := cached.CacheStats()
		if hits == 0 || misses == 0 || int(hits) != replays {
			t.Errorf("%s: hits=%d misses=%d, counted %d replays", name, hits, misses, replays)
		}
		if cfg.MaxCubes == 2 && fromCubes == 0 {
			t.Errorf("%s: step budget %d produced no replay of a cube-search hit", name, cfg.MaxCubes)
		}
	}
}

// TestCacheAgreesWithOracle cross-checks the memoized search against the
// Linear oracle on all three touches. With no step budget every answer
// is exact, whatever ε allows.
func TestCacheAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	cfg := Config{Dims: 2, Bits: 6, Seed: 3}
	idx := MustIndex(cfg)
	oracle := NewLinear()
	pts := randomPoints(rng, 300, cfg.Dims, cfg.Bits)
	for i, p := range pts {
		idx.Insert(p, uint64(i))
		oracle.Insert(p, uint64(i))
	}
	for _, q := range randomPoints(rng, 200, cfg.Dims, cfg.Bits) {
		for pass := 0; pass < 3; pass++ {
			id, ok, _, err := idx.Query(q, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			_, want := oracle.QueryDominating(q)
			if ok != want {
				t.Fatalf("pass %d q=%v: memoized search=%v oracle=%v", pass, q, ok, want)
			}
			if ok && !geom.Dominates(pts[id], q) {
				t.Fatalf("pass %d q=%v: %v does not dominate", pass, q, pts[id])
			}
		}
	}
}

// TestCacheCounters checks the accounting under two-touch admission: a
// shape's first hit is noted (miss), its second recorded (miss), the
// third and later replay (hit); a shape that finds nothing is never
// remembered; exact queries never consult the memo.
func TestCacheCounters(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 6})
	idx.Insert([]uint32{40, 40}, 1)
	covered := [][]uint32{{1, 2}, {3, 4}, {5, 6}}
	wantCounters := func(when string, hits, misses uint64) {
		t.Helper()
		if h, m := idx.CacheStats(); h != hits || m != misses {
			t.Fatalf("%s: hits=%d misses=%d, want %d/%d", when, h, m, hits, misses)
		}
	}
	for pass, want := range []struct{ hits, misses uint64 }{{0, 3}, {0, 6}, {3, 6}, {6, 6}} {
		for _, q := range covered {
			if _, ok, _, _ := idx.Query(q, 0.25); !ok {
				t.Fatalf("pass %d: %v has a dominator", pass, q)
			}
		}
		wantCounters("covered shapes", want.hits, want.misses)
	}
	// The entry records the point, not the budget: another ε replays it.
	idx.Query(covered[0], 0.5)
	wantCounters("new eps", 7, 6)
	// A shape with no dominator misses every time and leaves no entry.
	for i := 0; i < 4; i++ {
		if _, ok, st, _ := idx.Query([]uint32{50, 50}, 0.25); ok || st.Path != PathWalk {
			t.Fatalf("uncovered shape: found=%v %+v", ok, st)
		}
	}
	wantCounters("uncovered shape", 7, 10)
	if n := idx.memo.len(); n != len(covered) {
		t.Fatalf("memo holds %d entries, want the %d covered shapes", n, len(covered))
	}
	idx.QueryDominating(covered[0])
	wantCounters("exact query", 7, 10)
}

// TestCacheDisabled verifies CacheSize < 0 turns the memo off.
func TestCacheDisabled(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 6, CacheSize: -1})
	if idx.memo != nil {
		t.Fatal("negative CacheSize must disable the memo")
	}
	idx.Insert([]uint32{9, 9}, 1)
	for i := 0; i < 3; i++ {
		if _, ok, st, _ := idx.Query([]uint32{1, 2}, 0.25); !ok || st.Path != PathWalk {
			t.Fatalf("touch %d: found=%v %+v", i, ok, st)
		}
	}
	if h, m := idx.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled memo reported hits=%d misses=%d", h, m)
	}
}

// TestCacheEvictionBound records far more shapes than the configured
// size and checks the live entry count respects the memo's hard bound,
// its slot count of twice the size — and that the index still answers
// exactly afterwards.
func TestCacheEvictionBound(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 8, CacheSize: 32})
	idx.Insert([]uint32{255, 255}, 1<<20) // every shape has a dominator
	rng := rand.New(rand.NewSource(17))
	qs := randomPoints(rng, 500, 2, 8)
	for _, q := range qs {
		idx.Query(q, 0.25) // noted
		idx.Query(q, 0.25) // recorded, over whatever held the slot
	}
	if n := idx.memo.len(); n < 32 || n > 64 {
		t.Fatalf("memo of size 32 holds %d entries after 500 shapes, want 32..64", n)
	}
	idx.Delete([]uint32{255, 255}, 1<<20)
	oracle := NewLinear()
	for i, p := range randomPoints(rng, 100, 2, 8) {
		idx.Insert(p, uint64(i))
		oracle.Insert(p, uint64(i))
	}
	for _, q := range append(randomPoints(rng, 100, 2, 8), qs[:100]...) {
		_, ok, _, _ := idx.Query(q, 0.25)
		_, want := oracle.QueryDominating(q)
		if ok != want {
			t.Fatalf("post-eviction q=%v: got %v want %v", q, ok, want)
		}
	}
}

// TestCacheHoldsFullWorkingSetAtCeiling cycles through exactly as many
// recurring shapes as the memo's ceiling — a router's churn window —
// against an array of as many entries, which has grown the memo to that
// ceiling, and checks that, once each shape has been noted and recorded,
// nearly all of them replay: set overflow may cost a percent, but neither
// the entries nor the admission filter may thrash on colliding shapes.
func TestCacheHoldsFullWorkingSetAtCeiling(t *testing.T) {
	cfg := Config{Dims: 4, Bits: 10}
	idx := MustIndex(cfg)
	idx.Insert([]uint32{1023, 1023, 1023, 1023}, 0) // every shape has a dominator
	for i, p := range randomPoints(rand.New(rand.NewSource(43)), DefaultCacheSize-1, cfg.Dims, cfg.Bits) {
		idx.Insert(p, uint64(i+1))
	}
	if got, want := idx.memo.slots(), 2*DefaultCacheSize; got != want {
		t.Fatalf("an array of %d entries sized the memo at %d slots, want the ceiling %d", idx.Len(), got, want)
	}
	shapes := randomPoints(rand.New(rand.NewSource(41)), DefaultCacheSize, cfg.Dims, cfg.Bits)
	replays := 0
	for round := 0; round < 4; round++ {
		replays = 0
		for _, q := range shapes {
			if _, _, st, _ := idx.Query(q, 0.3); st.Path == PathMemo {
				replays++
			}
		}
	}
	if replays < len(shapes)*98/100 {
		t.Fatalf("only %d of %d recurring shapes replay in the fourth round", replays, len(shapes))
	}
}

// TestCacheStaleEntry deletes a memoized dominator: the replay's probe
// misses, the query falls through to the walk and returns what an index
// that never had a memo returns — another dominator, whose cell replaces
// the entry, or none, which drops it.
func TestCacheStaleEntry(t *testing.T) {
	q := []uint32{10, 10}
	idx := MustIndex(Config{Dims: 2, Bits: 6})
	plain := MustIndex(Config{Dims: 2, Bits: 6, CacheSize: -1})
	pts := [][]uint32{{20, 30}, {40, 12}, {5, 60}}
	for i, p := range pts {
		idx.Insert(p, uint64(i))
		plain.Insert(p, uint64(i))
	}
	var first uint64
	for touch := 0; touch < 3; touch++ {
		first, _, _, _ = idx.Query(q, 0.3)
	}
	if _, _, st, _ := idx.Query(q, 0.3); st.Path != PathMemo {
		t.Fatalf("fourth touch did not replay: %+v", st)
	}
	idx.Delete(pts[first], first)
	plain.Delete(pts[first], first)

	want, _, _, _ := plain.Query(q, 0.3)
	got, ok, st, _ := idx.Query(q, 0.3)
	if !ok || got != want || got == first {
		t.Fatalf("after deleting the memoized dominator %d: got (%d,%v), the walk says %d", first, got, ok, want)
	}
	if st.Path != PathWalk || st.RunsProbed != st.WalkSteps+1 {
		t.Fatalf("a stale replay costs one probe, then the walk: %+v", st)
	}
	if got2, _, st2, _ := idx.Query(q, 0.3); got2 != got || st2.Path != PathMemo {
		t.Fatalf("the walk's hit should have replaced the stale entry: (%d) %+v", got2, st2)
	}
	idx.Delete(pts[got], got)
	if _, ok, _, _ := idx.Query(q, 0.3); ok {
		t.Fatal("no dominator is left")
	}
	if n := idx.memo.len(); n != 0 {
		t.Fatalf("a miss through a stale entry must drop it, %d live", n)
	}
}

// TestCacheShardedConcurrent exercises the shared memo from concurrent
// queriers on a ShardedIndex (meaningful under -race) and checks every
// answer against the Linear oracle.
func TestCacheShardedConcurrent(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 6, Seed: 11}
	x, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewLinear()
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 400, 2, 6)
	x.ChooseBoundaries(len(pts), func(i int) []uint32 { return pts[i] })
	for i, p := range pts {
		x.Insert(p, uint64(i))
		oracle.Insert(p, uint64(i))
	}
	queries := randomPoints(rng, 64, 2, 6)
	want := make([]bool, len(queries))
	for i, q := range queries {
		_, want[i] = oracle.QueryDominating(q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i, q := range queries {
					id, ok, _, qerr := x.Query(q, 0.25)
					if qerr != nil {
						t.Errorf("goroutine %d q=%v: %v", g, q, qerr)
						return
					}
					if ok != want[i] || (ok && !geom.Dominates(pts[id], q)) {
						t.Errorf("goroutine %d q=%v: got (%d,%v) want %v", g, q, id, ok, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if h, _ := x.CacheStats(); h == 0 {
		t.Error("concurrent repeat workload produced no memo hits")
	}
}
