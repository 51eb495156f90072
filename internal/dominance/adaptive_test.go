package dominance

import (
	"math"
	"math/rand"
	"testing"

	"sfccover/internal/geom"
)

// TestAdaptiveSoundness: whatever budget the adaptive policy picks, a
// reported point must genuinely dominate the query — soundness is
// independent of ε and the cube cap.
func TestAdaptiveSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := Config{Dims: 2, Bits: 7, Seed: 9, Adaptive: true, MaxCubes: 512}
	idx := MustIndex(cfg)
	pts := randomPoints(rng, 500, cfg.Dims, cfg.Bits)
	for i, p := range pts {
		idx.Insert(p, uint64(i))
	}
	for _, q := range randomPoints(rng, 400, cfg.Dims, cfg.Bits) {
		id, ok, stats, err := idx.Query(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		p := pts[id]
		for j := range q {
			if p[j] < q[j] {
				t.Fatalf("adaptive query %v returned non-dominating point %v (id %d)", q, p, id)
			}
		}
		if !stats.Found {
			t.Fatalf("ok=true but stats.Found=false for q=%v", q)
		}
	}
}

// TestAdaptiveExhaustiveUntouched: ε = 0 queries bypass the policy
// entirely — adaptive mode must never turn an exhaustive query
// approximate.
func TestAdaptiveExhaustiveUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cfg := Config{Dims: 2, Bits: 6, Seed: 4, Adaptive: true}
	idx := MustIndex(cfg)
	oracle := NewLinear()
	for i, p := range randomPoints(rng, 300, cfg.Dims, cfg.Bits) {
		idx.Insert(p, uint64(i))
		oracle.Insert(p, uint64(i))
	}
	// Warm the policy with approximate traffic first so its counters are
	// live when the exhaustive queries run.
	for _, q := range randomPoints(rng, 64, cfg.Dims, cfg.Bits) {
		idx.Query(q, 0.3)
	}
	for _, q := range randomPoints(rng, 200, cfg.Dims, cfg.Bits) {
		_, ok := idx.QueryDominating(q)
		_, want := oracle.QueryDominating(q)
		if ok != want {
			t.Fatalf("adaptive exhaustive q=%v: got %v want %v", q, ok, want)
		}
	}
}

// TestAdaptiveIgnoresWalkAnswers: the policy tunes ε and the cube cap,
// which only the cube search spends, so queries the walk or the memo
// answer must leave its counters untouched; one that overruns into the
// cubes is recorded.
func TestAdaptiveIgnoresWalkAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	cfg := Config{Dims: 2, Bits: 7, Seed: 9, Adaptive: true, MaxCubes: 1 << 12}
	idx := MustIndex(cfg)
	for i, p := range randomPoints(rng, 500, cfg.Dims, cfg.Bits) {
		idx.Insert(p, uint64(i))
	}
	for _, q := range randomPoints(rng, 100, cfg.Dims, cfg.Bits) {
		for touch := 0; touch < 3; touch++ {
			if _, _, st, err := idx.Query(q, 0.2); err != nil || st.Path == PathCubes {
				t.Fatalf("q=%v: err=%v %+v", q, err, st)
			}
		}
	}
	if n := idx.budget.queries.Load() + idx.budget.cubes.Load() + idx.budget.alphaSum.Load() + idx.budget.short.Load(); n != 0 {
		t.Fatalf("walk- and memo-answered queries moved the policy's counters: %+v", idx.budget)
	}

	tight := cfg
	tight.MaxCubes = 1
	idx = MustIndex(tight)
	for i, p := range randomPoints(rng, 500, cfg.Dims, cfg.Bits) {
		idx.Insert(p, uint64(i))
	}
	cubeSearches := uint64(0)
	for _, q := range randomPoints(rng, 100, cfg.Dims, cfg.Bits) {
		if _, _, st, _ := idx.Query(q, 0.2); st.Path == PathCubes {
			cubeSearches++
		}
	}
	if got := idx.budget.queries.Load(); got != cubeSearches || got == 0 {
		t.Fatalf("policy observed %d queries, %d reached the cubes", got, cubeSearches)
	}
}

// TestAdaptBudgetPolicy unit-tests the policy arithmetic: the derived ε
// respects the configured floor, the grid, and the adaptiveMaxEps cap;
// the derived cube budget is a power of two in [adaptiveMinCubes,
// configured cap].
func TestAdaptBudgetPolicy(t *testing.T) {
	region := geom.QueryRegion([]uint32{1, 1}, 8)
	b := &budgetState{}

	// Before warmup the policy passes budgets through (ε snaps to grid).
	eps, maxc := b.adapt(0.25, 1024, 2, region)
	if eps != 0.25 || maxc != 1024 {
		t.Fatalf("cold policy changed budget: eps=%g maxc=%d", eps, maxc)
	}
	// Exhaustive queries are never adapted.
	if e, m := b.adapt(0, 1024, 2, region); e != 0 || m != 1024 {
		t.Fatalf("exhaustive budget adapted: eps=%g maxc=%d", e, m)
	}

	// Feed a workload: small cube counts, low aspect ratios, no
	// shortfalls — the cap should contract toward the observed mean.
	for i := 0; i < 100; i++ {
		st := Stats{CubesGenerated: 10, AspectRatio: 0, VolumeFraction: 1, Found: true}
		b.record(&st, 0.25)
	}
	eps, maxc = b.adapt(0.25, 1<<20, 2, region)
	if eps < 0.25 {
		t.Fatalf("eps %g fell below configured floor", eps)
	}
	if eps > adaptiveMaxEps {
		t.Fatalf("eps %g exceeds adaptiveMaxEps", eps)
	}
	if g := eps * adaptiveEpsGrid; g != math.Trunc(g) {
		t.Fatalf("eps %g is off the 1/%d grid", eps, adaptiveEpsGrid)
	}
	if maxc < adaptiveMinCubes || maxc > defaultAdaptiveTarget {
		t.Fatalf("derived cap %d outside [%d, %d]", maxc, adaptiveMinCubes, defaultAdaptiveTarget)
	}
	if maxc&(maxc-1) != 0 {
		t.Fatalf("derived cap %d is not a power of two", maxc)
	}
	// The configured cap stays a ceiling when it is tighter.
	if _, m := b.adapt(0.25, 300, 2, region); m > 300 {
		t.Fatalf("derived cap %d exceeds configured ceiling 300", m)
	}

	// A shortfall-heavy workload coarsens ε but never past the cap.
	bs := &budgetState{}
	for i := 0; i < 100; i++ {
		st := Stats{CubesGenerated: 5000, AspectRatio: 6, VolumeFraction: 0.1}
		bs.record(&st, 0.25)
	}
	eps2, _ := bs.adapt(0.25, 0, 2, region)
	if eps2 <= 0.25 {
		t.Fatalf("shortfall workload did not coarsen eps (still %g)", eps2)
	}
	if eps2 > adaptiveMaxEps {
		t.Fatalf("coarsened eps %g exceeds adaptiveMaxEps", eps2)
	}
	// Extreme configured ε survives the grid ceil without reaching 1.
	eps3, _ := bs.adapt(0.99, 0, 2, region)
	if eps3 >= 1 {
		t.Fatalf("adapted eps %g reached 1", eps3)
	}
	if eps3 < 0.99 {
		t.Fatalf("adapted eps %g below configured floor 0.99", eps3)
	}
}

// TestAdaptiveShardedConcurrent hammers the policy's atomic counters
// from concurrent queriers (meaningful under -race).
func TestAdaptiveShardedConcurrent(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 6, Seed: 2, Adaptive: true}
	x, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	pts := randomPoints(rng, 300, 2, 6)
	x.ChooseBoundaries(len(pts), func(i int) []uint32 { return pts[i] })
	for i, p := range pts {
		x.Insert(p, uint64(i))
	}
	queries := randomPoints(rng, 64, 2, 6)
	done := make(chan struct{})
	for g := 0; g < 6; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for round := 0; round < 3; round++ {
				for _, q := range queries {
					if id, ok, _, err := x.Query(q, 0.2); err != nil {
						t.Errorf("query error: %v", err)
						return
					} else if ok {
						p := pts[id]
						for j := range q {
							if p[j] < q[j] {
								t.Errorf("non-dominating answer %v for %v", p, q)
								return
							}
						}
					}
				}
			}
		}()
	}
	for g := 0; g < 6; g++ {
		<-done
	}
}
