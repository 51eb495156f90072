package dominance

import (
	"math/rand"
	"testing"

	"sfccover/internal/geom"
)

// TestQueryDeterminism: identical configuration, inserts and queries must
// produce identical results and identical cost statistics.
func TestQueryDeterminism(t *testing.T) {
	build := func() *Index {
		idx := MustIndex(Config{Dims: 3, Bits: 8, Seed: 77})
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 300; i++ {
			p := []uint32{
				uint32(rng.Intn(256)), uint32(rng.Intn(256)), uint32(rng.Intn(256)),
			}
			idx.Insert(p, uint64(i))
		}
		return idx
	}
	a, b := build(), build()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		q := []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256)), uint32(rng.Intn(256))}
		eps := []float64{0, 0.3, 0.05}[trial%3]
		idA, okA, stA, errA := a.Query(q, eps)
		idB, okB, stB, errB := b.Query(q, eps)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if idA != idB || okA != okB {
			t.Fatalf("results differ: (%d,%v) vs (%d,%v)", idA, okA, idB, okB)
		}
		if stA != stB {
			t.Fatalf("stats differ: %+v vs %+v", stA, stB)
		}
	}
}

// TestQueryIsHistoryFree: an answer is a function of the stored set and
// the query, not of the queries asked before it. Two indexes of each kind
// take the same inserts and deletes; one of each pair also answers the
// query set three extra times at ε = 0.3 between the writes. Afterwards
// every query must return the same id, found flag and Stats on both —
// path and step counts included — at every ε, with a step budget tight
// enough that some queries reach the cube search.
func TestQueryIsHistoryFree(t *testing.T) {
	type index interface {
		Insert([]uint32, uint64)
		Delete([]uint32, uint64) bool
		Query([]uint32, float64) (uint64, bool, Stats, error)
	}
	cfg := Config{Dims: 4, Bits: 8, MaxCubes: 3}
	sharded := func() index {
		x, err := NewSharded(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		return locatingDeletes{x}
	}
	for _, tc := range []struct {
		name  string
		build func() index
	}{
		{"Index", func() index { return MustIndex(cfg) }},
		{"ShardedIndex", sharded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(47))
			pts := randomPoints(rng, 1200, cfg.Dims, cfg.Bits)
			queries := randomPoints(rng, 300, cfg.Dims, cfg.Bits)
			quiet, asked := tc.build(), tc.build()
			for round := 0; round < 4; round++ {
				for i := round * 300; i < (round+1)*300; i++ {
					quiet.Insert(pts[i], uint64(i))
					asked.Insert(pts[i], uint64(i))
				}
				for i := round * 300; i < round*300+100; i++ { // a third of the round's points leave again
					if !quiet.Delete(pts[i], uint64(i)) || !asked.Delete(pts[i], uint64(i)) {
						t.Fatalf("round %d: delete of %d failed", round, i)
					}
				}
				for pass := 0; pass < 3; pass++ {
					for _, q := range queries {
						if _, _, _, err := asked.Query(q, 0.3); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			paths := [NumPaths]int{}
			for _, eps := range []float64{0, 0.05, 0.3} {
				for _, q := range queries {
					idA, okA, stA, errA := quiet.Query(q, eps)
					idB, okB, stB, errB := asked.Query(q, eps)
					if errA != nil || errB != nil {
						t.Fatal(errA, errB)
					}
					if idA != idB || okA != okB || stA != stB {
						t.Fatalf("q=%v eps=%g: without history (%d,%v) %+v, after it (%d,%v) %+v",
							q, eps, idA, okA, stA, idB, okB, stB)
					}
					paths[stA.Path]++
				}
			}
			if paths[PathWalk] == 0 || paths[PathCubes] == 0 {
				t.Fatalf("paths %v: the queries must end on the walk and on the cubes", paths)
			}
		})
	}
}

// TestStatsInvariants checks the structural relations the Stats contract
// promises, for the cube search and for the walk in front of it.
func TestStatsInvariants(t *testing.T) {
	idx := MustIndex(Config{Dims: 3, Bits: 8})
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		p := []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256)), uint32(rng.Intn(256))}
		idx.Insert(p, uint64(i))
	}
	for trial := 0; trial < 200; trial++ {
		q := []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256)), uint32(rng.Intn(256))}
		_, wfound, wst, err := idx.Query(q, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		// No budget is configured, so the walk decides every query without
		// generating a cube.
		if wst.Path == PathCubes || wst.Path == PathNone || wst.CubesGenerated != 0 || wst.M != 0 {
			t.Fatalf("unbudgeted query reached the cubes: %+v", wst)
		}
		if wst.RunsProbed != wst.WalkSteps {
			t.Fatalf("descents %d are not the %d walk steps", wst.RunsProbed, wst.WalkSteps)
		}
		if wfound != wst.Found {
			t.Fatal("Found flag inconsistent")
		}
		if !wfound && (wst.VolumeFraction != 1 || wst.SearchedLevel != 0) {
			t.Fatalf("a walk miss is exact and searched the whole region: %+v", wst)
		}

		_, found, st, err := idx.QueryCubes(q, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if found && !wfound {
			t.Fatal("the ε-search found a dominator the exact walk missed")
		}
		if st.Path != PathCubes || st.WalkSteps != 0 {
			t.Fatalf("QueryCubes must run the cube search alone: %+v", st)
		}
		if st.RunsProbed > st.CubesGenerated {
			t.Fatalf("probed %d > generated %d", st.RunsProbed, st.CubesGenerated)
		}
		if st.VolumeFraction < 0 || st.VolumeFraction > 1+1e-9 {
			t.Fatalf("volume fraction %v out of range", st.VolumeFraction)
		}
		if found != st.Found {
			t.Fatal("Found flag inconsistent")
		}
		if !found {
			if st.VolumeFraction < 1-0.25 {
				t.Fatalf("miss searched only %v", st.VolumeFraction)
			}
			if st.RunsProbed != st.CubesGenerated {
				t.Fatal("miss must probe every generated cube")
			}
			searched := searchedLen(st, q, 8)
			if len(searched) == 0 {
				t.Fatal("miss must report its searched region")
			}
			region := geom.QueryRegion(q, 8)
			for i, l := range searched {
				if l > region.Len[i] {
					t.Fatalf("searched region exceeds query region on dim %d", i)
				}
			}
		}
		wantAlpha := geom.QueryRegion(q, 8).AspectRatio()
		if st.AspectRatio != wantAlpha {
			t.Fatalf("aspect ratio %d, want %d", st.AspectRatio, wantAlpha)
		}
	}
}

// TestArraysAgree holds the index over the blocked SFC array to a brute
// force over the points: an exact query returns the dominator with the
// smallest curve key, then the smallest id — the array's tie-break, which
// is what keeps answers identical across array layouts — and an
// approximate one (unbudgeted here, so its walk completes) finds some
// genuine dominator exactly when one exists.
func TestArraysAgree(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 10})
	rng := rand.New(rand.NewSource(45))
	pts := make([][]uint32, 500)
	for i := range pts {
		// A coarse grid, so cells repeat and the id tie-break is exercised.
		pts[i] = []uint32{uint32(rng.Intn(64)) << 4, uint32(rng.Intn(64)) << 4}
		idx.Insert(pts[i], uint64(i))
	}
	rng = rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		q := []uint32{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}
		want, has := 0, false
		for i, p := range pts {
			if geom.Dominates(p, q) && (!has || idx.curve.Key(p).Less(idx.curve.Key(pts[want]))) {
				want, has = i, true
			}
		}
		eps := []float64{0, 0.2}[trial%2]
		id, ok, _, err := idx.Query(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if ok != has {
			t.Fatalf("q=%v eps=%v: found=%v, brute force says %v", q, eps, ok, has)
		}
		if ok && eps == 0 && id != uint64(want) {
			t.Fatalf("q=%v: exact answer %d, brute force's smallest (key, id) is %d", q, id, want)
		}
		if ok && !geom.Dominates(pts[id], q) {
			t.Fatalf("q=%v eps=%v: answer %d at %v does not dominate", q, eps, id, pts[id])
		}
	}
}

// locatingDeletes gives a ShardedIndex Index's Delete: a delete at the
// point's Location.
type locatingDeletes struct{ *ShardedIndex }

func (x locatingDeletes) Delete(p []uint32, id uint64) bool { return x.DeleteAt(x.Locate(p), id) }
