package dominance

import (
	"math/rand"
	"testing"

	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/geom"
)

func randomPoints(rng *rand.Rand, n, d, k int) [][]uint32 {
	pts := make([][]uint32, n)
	for i := range pts {
		p := make([]uint32, d)
		for j := range p {
			p[j] = uint32(rng.Int63n(1 << uint(k)))
		}
		pts[i] = p
	}
	return pts
}

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(Config{Dims: 0, Bits: 8}); err == nil {
		t.Error("dims=0 must fail")
	}
	if _, err := NewIndex(Config{Dims: 2, Bits: 40}); err == nil {
		t.Error("bits=40 must fail")
	}
	if _, err := NewIndex(Config{Dims: 4, Bits: 16}); err != nil {
		t.Errorf("defaults should work: %v", err)
	}
}

func TestQueryArgValidation(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 4})
	if _, _, _, err := idx.Query([]uint32{1}, 0); err == nil {
		t.Error("wrong query dims must fail")
	}
	if _, _, _, err := idx.Query([]uint32{1, 1}, -0.5); err == nil {
		t.Error("negative eps must fail")
	}
	if _, _, _, err := idx.Query([]uint32{1, 1}, 1.0); err == nil {
		t.Error("eps=1 must fail")
	}
}

func TestExhaustiveAgreesWithBaselines(t *testing.T) {
	// The exhaustive SFC query and the linear scan must give identical
	// found/not-found answers.
	rng := rand.New(rand.NewSource(61))
	configs := []Config{{Dims: 2, Bits: 6}, {Dims: 3, Bits: 4}, {Dims: 4, Bits: 3}}
	for _, cfg := range configs {
		idx := MustIndex(cfg)
		lin := NewLinear()
		pts := randomPoints(rng, 80, cfg.Dims, cfg.Bits)
		for i, p := range pts {
			idx.Insert(p, uint64(i))
			lin.Insert(p, uint64(i))
		}
		for trial := 0; trial < 150; trial++ {
			q := randomPoints(rng, 1, cfg.Dims, cfg.Bits)[0]
			idSFC, okSFC := idx.QueryDominating(q)
			_, okLin := lin.QueryDominating(q)
			if okSFC != okLin {
				t.Fatalf("d=%d q=%v: sfc=%v lin=%v", cfg.Dims, q, okSFC, okLin)
			}
			if okSFC && !geom.Dominates(pts[idSFC], q) {
				t.Fatalf("d=%d: returned point %v does not dominate %v", cfg.Dims, pts[idSFC], q)
			}
		}
	}
}

func TestApproximateNeverFalsePositive(t *testing.T) {
	// Any point the approximate query returns must genuinely dominate.
	rng := rand.New(rand.NewSource(71))
	idx := MustIndex(Config{Dims: 3, Bits: 8})
	pts := randomPoints(rng, 200, 3, 8)
	for i, p := range pts {
		idx.Insert(p, uint64(i))
	}
	for trial := 0; trial < 60; trial++ {
		q := randomPoints(rng, 1, 3, 8)[0]
		for _, eps := range []float64{0.3, 0.05} {
			for name, query := range map[string]func([]uint32, float64) (uint64, bool, Stats, error){
				"Query": idx.Query, "QueryCubes": idx.QueryCubes,
			} {
				id, found, stats, err := query(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				if found && !geom.Dominates(pts[id], q) {
					t.Fatalf("%s eps=%v q=%v: false positive %v", name, eps, q, pts[id])
				}
				if found != stats.Found {
					t.Fatalf("%s: stats.Found disagrees with result", name)
				}
			}
		}
	}
}

func TestApproximateCompleteWithinSearchedRegion(t *testing.T) {
	// Completeness contract of the paper's search: every indexed point
	// inside R(SearchedLen) must be found, and the searched region must
	// meet the (1−ε) volume bound.
	rng := rand.New(rand.NewSource(83))
	const d, k = 3, 6
	idx := MustIndex(Config{Dims: d, Bits: k})
	pts := randomPoints(rng, 150, d, k)
	for i, p := range pts {
		idx.Insert(p, uint64(i))
	}
	for trial := 0; trial < 100; trial++ {
		q := randomPoints(rng, 1, d, k)[0]
		for _, eps := range []float64{0.4, 0.15, 0.05} {
			_, found, stats, err := idx.QueryCubes(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				continue
			}
			if stats.VolumeFraction < 1-eps {
				t.Fatalf("eps=%v: unsuccessful search covered only %v < %v",
					eps, stats.VolumeFraction, 1-eps)
			}
			searched := geom.MustExtremal(searchedLen(stats, q, k), k).Rect()
			for _, p := range pts {
				if searched.Contains(p) {
					t.Fatalf("eps=%v q=%v: point %v inside searched region %v was missed",
						eps, q, p, searchedLen(stats, q, k))
				}
			}
		}
	}
}

func TestSearchedRegionMatchesTruncationWhenComplete(t *testing.T) {
	// On an empty index with no early volume stop possible before the
	// truncated region is fully covered... the searched region must at
	// least contain R(t(ℓ, m)) truncated further by the volume stop; it is
	// always a sub-rectangle of the truncation and a superset of the query
	// anchor corner.
	const d, k = 2, 10
	idx := MustIndex(Config{Dims: d, Bits: k})
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		q := randomPoints(rng, 1, d, k)[0]
		eps := []float64{0.3, 0.1, 0.03}[trial%3]
		_, _, stats, err := idx.QueryCubes(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		region := geom.QueryRegion(q, k)
		tr, _, err := cubes.TruncateExtremal(region, eps)
		if err != nil {
			t.Fatal(err)
		}
		searched := geom.MustExtremal(searchedLen(stats, q, k), k)
		if !tr.Rect().ContainsRect(searched.Rect()) {
			t.Fatalf("searched region %v escapes truncated region %v", searched.Len, tr.Len)
		}
		if searched.Volume()/region.Volume() < 1-eps {
			t.Fatalf("searched volume below contract: %v", searched.Len)
		}
		maxCorner := []uint32{1<<k - 1, 1<<k - 1}
		if !searched.Rect().Contains(maxCorner) {
			t.Fatal("searched region must contain the anchor corner")
		}
	}
}

func TestApproximateVolumeGuarantee(t *testing.T) {
	// For queries that find nothing, the searched volume fraction must meet
	// the (1-ε) contract and M must match Lemma 3.2's choice.
	idx := MustIndex(Config{Dims: 2, Bits: 10})
	q := []uint32{100, 333}
	for _, eps := range []float64{0.5, 0.25, 0.1, 0.05, 0.01} {
		_, found, stats, err := idx.QueryCubes(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatal("empty index cannot find points")
		}
		wantM, err := cubes.ChooseM(eps, 2)
		if err != nil {
			t.Fatal(err)
		}
		if stats.M != wantM {
			t.Errorf("eps=%v: M=%d want %d", eps, stats.M, wantM)
		}
		if stats.VolumeFraction < 1-eps {
			t.Errorf("eps=%v: volume fraction %v < %v", eps, stats.VolumeFraction, 1-eps)
		}
		if stats.RunsProbed != stats.CubesGenerated {
			t.Errorf("unsuccessful approx query must probe every generated cube: %d vs %d",
				stats.RunsProbed, stats.CubesGenerated)
		}
	}
}

func TestApproxCostIndependentOfSideLength(t *testing.T) {
	// The paper's headline: for α=0 queries, approximate cost depends on ε
	// but not on the region's side length. Exhaustive cost grows with it.
	idx := MustIndex(Config{Dims: 2, Bits: 16})
	const eps = 0.05
	var costs []int
	for _, exp := range []uint{8, 10, 12, 14} {
		l := uint64(1)<<exp + 1<<(exp-1) + 1 // e.g. 110...01: messy boundary
		q := []uint32{uint32(1<<16 - l), uint32(1<<16 - l)}
		_, _, stats, err := idx.QueryCubes(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, stats.CubesGenerated)
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] != costs[0] {
			t.Fatalf("approx cost varies with side length: %v", costs)
		}
	}
}

func TestMaxCubesCap(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 12, MaxCubes: 5})
	// A query region needing many cubes.
	q := []uint32{uint32(1<<12 - 257), uint32(1<<12 - 257)}
	_, _, stats, err := idx.QueryCubes(q, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CubesGenerated > 5 {
		t.Fatalf("cap ignored: %d cubes", stats.CubesGenerated)
	}
	if stats.VolumeFraction <= 0 || stats.VolumeFraction > 1 {
		t.Fatalf("volume fraction %v out of range", stats.VolumeFraction)
	}
	// Through Query the cap bounds the walk's steps and then the cubes.
	// These points each fail the query by one cell, half of them in each
	// coordinate, and with q odd the two faces agree on the key bits above
	// the lowest few wherever v is small, so they interleave along the
	// curve: the leaves there hold both kinds and no summary rules them
	// out. A seek checks every entry of the leaf it lands in, so the walk
	// pays about one step a leaf, not one a key: 2 048 points cost an
	// unbudgeted walk 12 steps to prove the miss (the 128 this test used to
	// plant cost 96 steps one key at a time, and 3 a leaf at a time).
	q = []uint32{2049, 2049}
	for v := uint32(0); v < 1024; v++ {
		idx.Insert([]uint32{q[0] + v, q[1] - 1}, uint64(v))
		idx.Insert([]uint32{q[0] - 1, q[1] + v}, uint64(1024+v))
	}
	if _, found, st, _ := idx.Query(q, 0); found || st.WalkSteps <= 5 {
		t.Fatalf("the population must cost an unbudgeted walk more than 5 steps to miss: found=%v %+v", found, st)
	}
	_, found, stats, err := idx.Query(q, 0.0001)
	if err != nil || found {
		t.Fatalf("no point dominates q: found=%v err=%v", found, err)
	}
	if stats.Path != PathCubes || stats.WalkSteps != 5 || stats.CubesGenerated > 5 || stats.RunsProbed > 10 {
		t.Fatalf("budget of 5 not honoured by walk then cubes: %+v", stats)
	}
}

func TestInsertDeleteAcrossSearchers(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	searchers := map[string]Searcher{
		"sfc":    MustIndex(Config{Dims: 2, Bits: 8}),
		"linear": NewLinear(),
	}
	pts := randomPoints(rng, 60, 2, 8)
	for name, s := range searchers {
		for i, p := range pts {
			s.Insert(p, uint64(i))
		}
		if s.Len() != 60 {
			t.Fatalf("%s: Len=%d", name, s.Len())
		}
		// Delete half.
		for i := 0; i < 30; i++ {
			if !s.Delete(pts[i], uint64(i)) {
				t.Fatalf("%s: delete %d failed", name, i)
			}
			if s.Delete(pts[i], uint64(i)) {
				t.Fatalf("%s: double delete %d succeeded", name, i)
			}
		}
		if s.Len() != 30 {
			t.Fatalf("%s: Len=%d after deletes", name, s.Len())
		}
	}
	// Remaining points agree across searchers.
	for trial := 0; trial < 200; trial++ {
		q := randomPoints(rng, 1, 2, 8)[0]
		_, okSFC := searchers["sfc"].QueryDominating(q)
		_, okLin := searchers["linear"].QueryDominating(q)
		if okSFC != okLin {
			t.Fatalf("post-delete disagreement at %v: sfc=%v lin=%v", q, okSFC, okLin)
		}
	}
}

func TestDominatingPointAtQueryItself(t *testing.T) {
	// A point equal to the query dominates it (covering includes equality).
	for _, mk := range []func() Searcher{
		func() Searcher { return MustIndex(Config{Dims: 3, Bits: 5}) },
		func() Searcher { return NewLinear() },
	} {
		s := mk()
		p := []uint32{7, 3, 31}
		s.Insert(p, 42)
		if id, ok := s.QueryDominating(p); !ok || id != 42 {
			t.Fatalf("%T: self-dominance failed: %d %v", s, id, ok)
		}
	}
}

func TestMaxCornerAlwaysDominates(t *testing.T) {
	// The all-max point dominates every query.
	idx := MustIndex(Config{Dims: 2, Bits: 10})
	maxPt := []uint32{1023, 1023}
	idx.Insert(maxPt, 1)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		q := randomPoints(rng, 1, 2, 10)[0]
		if _, ok := idx.QueryDominating(q); !ok {
			t.Fatalf("exhaustive query missed the max corner for q=%v", q)
		}
		// The max corner lies in every truncated region too (the region is
		// anchored there), so even approximate queries must find it.
		if _, ok, _, _ := idx.Query(q, 0.3); !ok {
			t.Fatalf("approximate query missed the max corner for q=%v", q)
		}
	}
}

func TestLinearDeleteRequiresMatchingPoint(t *testing.T) {
	lin := NewLinear()
	lin.Insert([]uint32{1, 2}, 5)
	if lin.Delete([]uint32{9, 9}, 5) {
		t.Fatal("delete with wrong point should fail")
	}
	if !lin.Delete([]uint32{1, 2}, 5) {
		t.Fatal("delete with right point should succeed")
	}
}

// searchedLen derives the side lengths of the extremal rectangle a search
// of q fully covered from its Stats — R(S_level(t(ℓ, M))) — or nil when
// no level was completed.
func searchedLen(s Stats, q []uint32, k int) []uint64 {
	if s.SearchedLevel < 0 {
		return nil
	}
	lens := make([]uint64, len(q))
	for i, x := range q {
		lens[i] = uint64(1)<<uint(k) - uint64(x)
		if s.M > 0 {
			lens[i] = bits.T(lens[i], s.M)
		}
		lens[i] = bits.S(lens[i], s.SearchedLevel)
	}
	return lens
}
