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

// TestArraysAgree runs the same queries against treap- and skiplist-backed
// indexes; results must be identical (the array is pure plumbing).
func TestArraysAgree(t *testing.T) {
	mk := func(array string) *Index {
		idx := MustIndex(Config{Dims: 2, Bits: 10, Array: array})
		rng := rand.New(rand.NewSource(45))
		for i := 0; i < 500; i++ {
			idx.Insert([]uint32{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}, uint64(i))
		}
		return idx
	}
	treap, sl := mk("treap"), mk("skiplist")
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		q := []uint32{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}
		eps := []float64{0, 0.2}[trial%2]
		idT, okT, _, err := treap.Query(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		idS, okS, _, err := sl.Query(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if okT != okS || (okT && idT != idS) {
			t.Fatalf("arrays disagree: treap (%d,%v) skiplist (%d,%v)", idT, okT, idS, okS)
		}
	}
}
