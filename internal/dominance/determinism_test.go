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
		// No budget is configured, so the walk (or, on a repeat, the memo
		// it filled) decides every query without generating a cube.
		if wst.Path == PathCubes || wst.Path == PathNone || wst.CubesGenerated != 0 || wst.M != 0 {
			t.Fatalf("unbudgeted query reached the cubes: %+v", wst)
		}
		if wst.RunsProbed < wst.WalkSteps || wst.RunsProbed > wst.WalkSteps+1 {
			t.Fatalf("descents %d do not add up from %d walk steps and at most one memo probe", wst.RunsProbed, wst.WalkSteps)
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
