package dominance

import (
	"math/rand"
	"sync"
	"testing"

	"sfccover/internal/geom"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// TestWalkMatchesLinearUnderChurn: with no step budget every answer is
// the walk's, so found must equal the brute-force scan's while points
// come and go and the same shapes are asked again and again.
func TestWalkMatchesLinearUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	cfg := Config{Dims: 3, Bits: 5, Seed: 5}
	idx := MustIndex(cfg)
	lin := NewLinear()
	type entry struct {
		p  []uint32
		id uint64
	}
	var live []entry
	byID := map[uint64][]uint32{}
	queries := randomPoints(rng, 40, cfg.Dims, cfg.Bits) // recurring
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(10); {
		case r < 3 || len(live) < 20:
			e := entry{randomPoints(rng, 1, cfg.Dims, cfg.Bits)[0], uint64(op)}
			idx.Insert(e.p, e.id)
			lin.Insert(e.p, e.id)
			live = append(live, e)
			byID[e.id] = e.p
		case r < 6:
			i := rng.Intn(len(live))
			e := live[i]
			if !idx.Delete(e.p, e.id) || !lin.Delete(e.p, e.id) {
				t.Fatalf("op %d: delete of live entry %d failed", op, e.id)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(byID, e.id)
		default:
			q := queries[rng.Intn(len(queries))]
			eps := []float64{0, 0.3}[rng.Intn(2)]
			id, ok, st, err := idx.Query(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := lin.QueryDominating(q); ok != want {
				t.Fatalf("op %d q=%v eps=%g: found=%v, linear scan says %v (%+v)", op, q, eps, ok, want, st)
			}
			if ok && (byID[id] == nil || !geom.Dominates(byID[id], q)) {
				t.Fatalf("op %d q=%v: id %d (%v) is not a live dominator", op, q, id, byID[id])
			}
			if st.Path == PathCubes {
				t.Fatalf("an unbudgeted walk overran: %+v", st)
			}
		}
	}
}

// TestCacheAgreesWithOracle cross-checks the search against the Linear
// oracle on a static population, asking each query three times: a
// repeated query is walked again, not replayed, and must give the same
// answer each time. With no step budget every answer is exact, whatever
// ε allows.
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
				t.Fatalf("pass %d q=%v: search=%v oracle=%v", pass, q, ok, want)
			}
			if ok && !geom.Dominates(pts[id], q) {
				t.Fatalf("pass %d q=%v: %v does not dominate", pass, q, pts[id])
			}
		}
	}
}

// TestExactQueryMatchesExhaustiveCubes: under ε = 0 the walk returns the
// dominating entry with the smallest key, then the smallest id — the
// very entry the exhaustive cube search (runs probed in key order)
// returns — on a single index and across 1, 4 and 16 slices, with
// several ids sharing cells.
func TestExactQueryMatchesExhaustiveCubes(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	cfg := Config{Dims: 2, Bits: 6}
	ref := MustIndex(cfg)
	indexes := []interface {
		Insert([]uint32, uint64)
		Query([]uint32, float64) (uint64, bool, Stats, error)
	}{MustIndex(cfg)}
	pts := randomPoints(rng, 150, cfg.Dims, cfg.Bits)
	for _, n := range []int{1, 4, 16} {
		x, err := NewSharded(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		x.ChooseBoundaries(keysOf(x, pts))
		indexes = append(indexes, x)
	}
	ids := rng.Perm(3 * len(pts)) // ids in no relation to insertion or key order
	for i, id := range ids {
		p := pts[i%len(pts)] // every cell holds three ids
		ref.Insert(p, uint64(id))
		for _, x := range indexes {
			x.Insert(p, uint64(id))
		}
	}
	for _, q := range randomPoints(rng, 300, cfg.Dims, cfg.Bits) {
		wantID, want, _, err := ref.QueryCubes(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range indexes {
			id, ok, st, err := x.Query(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ok != want || id != wantID {
				t.Fatalf("index %d q=%v: walk (%d,%v), exhaustive cube search (%d,%v)", i, q, id, ok, wantID, want)
			}
			if st.Path != PathWalk {
				t.Fatalf("exact queries are the walk's alone: %+v", st)
			}
		}
	}
}

// TestWalkProbesTopCubeFirst: an approximate query spends its first step
// on the largest cube at the region's max corner, so a broad dominator up
// there costs one descent however many stored keys lie between the thin
// runs next to the query point; an exact query walks up from the bottom
// and returns the dominator with the smallest key instead.
func TestWalkProbesTopCubeFirst(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 8})
	q := []uint32{101, 77}
	for v := uint32(0); v < 100; v++ { // one cell outside the region, all along its lower faces
		idx.Insert([]uint32{q[0] + v, q[1] - 1}, uint64(v))
		idx.Insert([]uint32{q[0] - 1, q[1] + v}, uint64(1000+v))
	}
	idx.Insert([]uint32{250, 250}, 5000) // inside the top cube [128,255]²
	idx.Insert([]uint32{102, 78}, 6000)  // next to the query point
	id, ok, st, err := idx.Query(q, 0.3)
	if err != nil || !ok || id != 5000 || st.Path != PathWalk || st.WalkSteps != 1 || st.RunsProbed != 1 {
		t.Fatalf("approximate: (%d,%v,%v) %+v, want the top cube's point in one step", id, ok, err, st)
	}
	wantID, _, _, _ := idx.QueryCubes(q, 0)
	id, ok, st, err = idx.Query(q, 0)
	if err != nil || !ok || id != wantID || st.Path != PathWalk {
		t.Fatalf("exact: (%d,%v,%v) %+v, want the exhaustive search's %d", id, ok, err, st, wantID)
	}
}

// TestWalkOverrunFallsBackToCubes forces the step budget to one and to
// seven: every query the walk cannot decide within it must return exactly
// what QueryCubes returns under the same cube cap. A seek checks the leaf
// it lands in, so uniform walks in this universe end within a few steps;
// the population is the near-miss one, 4 000 points and the 200 queries
// around its query, where a walk still visits more than seven leaves that
// admit the query without holding its dominator.
func TestWalkOverrunFallsBackToCubes(t *testing.T) {
	for _, maxCubes := range []int{1, 7} {
		cfg := Config{Dims: 3, Bits: 6, MaxCubes: maxCubes}
		idx := MustIndex(cfg)
		pts, queries := nearMissWalkPopulation(t, cfg, 4000)
		for i, p := range pts {
			idx.Insert(p, uint64(i))
		}
		overruns := 0
		for _, q := range queries {
			id, ok, st, err := idx.Query(q, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if st.Path != PathCubes {
				if st.WalkSteps > maxCubes {
					t.Fatalf("walk took %d steps on a budget of %d", st.WalkSteps, maxCubes)
				}
				continue
			}
			overruns++
			wantID, want, wantSt, err := idx.QueryCubes(q, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if id != wantID || ok != want {
				t.Fatalf("budget %d q=%v: fallback (%d,%v), QueryCubes (%d,%v)", maxCubes, q, id, ok, wantID, want)
			}
			if st.WalkSteps != maxCubes || st.CubesGenerated != wantSt.CubesGenerated ||
				st.RunsProbed != maxCubes+wantSt.RunsProbed || st.VolumeFraction != wantSt.VolumeFraction ||
				st.M != wantSt.M || st.SearchedLevel != wantSt.SearchedLevel {
				t.Fatalf("budget %d q=%v: fallback stats %+v are not the walk's %d steps plus QueryCubes' %+v", maxCubes, q, st, maxCubes, wantSt)
			}
		}
		if overruns == 0 {
			t.Fatalf("budget %d: no query overran", maxCubes)
		}
	}
}

// TestWalkDuringEqualizePair walks a planted population while a churner
// piles entries onto one side of the key space and a mover keeps
// equalizing the slices, so boundaries (and the planted entries with
// them) migrate throughout. A seek that crosses a swapped table must
// retry, never skip a migrated entry: the churned points lie on the
// universe's lower faces and dominate no query, so every answer — the
// exact walk's, or the approximate walk's with its top cube first — has
// to stay the one computed before the moves began. It runs in both key
// forms: two word-form universes (the second asking approximate queries,
// so the top-cube probe runs by word too) and one past the word.
// Meaningful under -race.
func TestWalkDuringEqualizePair(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		eps  []float64
	}{
		{"exact-2x8", Config{Dims: 2, Bits: 8}, []float64{0}},
		{"words-4x10", Config{Dims: 4, Bits: 10}, []float64{0, 0.3}},
		{"keys-5x13", Config{Dims: 5, Bits: 13}, []float64{0, 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts, queries := uniformWalkPopulation(tc.cfg)
			walkDuringEqualizePair(t, tc.cfg, tc.eps, pts, queries)
		})
	}
	// The near-miss population: most seeks run on past their own slice,
	// and the slices they pass unlocked, by the mirrored summaries, are
	// the ones the mover is re-bounding.
	t.Run("nearmiss-4x10", func(t *testing.T) {
		cfg := Config{Dims: 4, Bits: 10}
		pts, queries := nearMissWalkPopulation(t, cfg, 2000)
		walkDuringEqualizePair(t, cfg, []float64{0, 0.3}, pts, queries)
	})
}

// uniformWalkPopulation is 2 000 uniform points and 200 queries with
// every coordinate at least 1: shrunken toward the origin for hits and
// pushed toward the max corner for misses, however many dimensions.
func uniformWalkPopulation(cfg Config) (pts, queries [][]uint32) {
	rng := rand.New(rand.NewSource(229))
	for i := 0; i < 2000; i++ {
		pts = append(pts, randomPoints(rng, 1, cfg.Dims, cfg.Bits)[0])
	}
	queries = randomPoints(rng, 200, cfg.Dims, cfg.Bits)
	for i, q := range queries {
		for j := range q {
			if q[j] >>= uint(i % 4); i%2 == 1 {
				q[j] = 1<<uint(cfg.Bits) - 1 - q[j]
			}
			q[j] = max(q[j], 1)
		}
	}
	return pts, queries
}

// nearMissWalkPopulation is workload.NearMiss's n points and 200 queries
// around its query q: q itself, which every point misses by one
// coordinate, and q with one coordinate lowered into the band the points
// miss it by (a hit for the points failing there that reach it) or
// raised (a miss with a smaller region).
func nearMissWalkPopulation(t *testing.T, cfg Config, n int) (pts, queries [][]uint32) {
	pts, q, err := workload.NearMiss(cfg.Dims, cfg.Bits, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(239))
	for i := 0; i < 200; i++ {
		v := append([]uint32(nil), q...)
		switch j := i % cfg.Dims; i % 3 {
		case 1:
			v[j] -= uint32(rng.Intn(int(q[j]/4) + 1))
		case 2:
			v[j] += uint32(rng.Intn(int(q[j]) / 2))
		}
		queries = append(queries, v)
	}
	return pts, queries
}

func walkDuringEqualizePair(t *testing.T, cfg Config, epsilons []float64, pts, queries [][]uint32) {
	x, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		x.Insert(p, uint64(i))
	}
	type answer struct {
		id uint64
		ok bool
	}
	want := make([][]answer, len(queries))
	found := 0
	for i, q := range queries {
		want[i] = make([]answer, len(epsilons))
		for e, eps := range epsilons {
			want[i][e].id, want[i][e].ok, _, _ = x.Query(q, eps)
			if want[i][e].ok {
				found++
			}
		}
	}
	if found == 0 || found == len(queries)*len(epsilons) {
		t.Fatalf("%d of %d answers are hits: the walkers need both outcomes", found, len(queries)*len(epsilons))
	}
	stop := make(chan struct{})
	var background sync.WaitGroup
	migrated := 0
	background.Add(2)
	go func() { // boundary mover
		defer background.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				migrated += x.EqualizePair(i % (x.NumShards() - 1))
			}
		}
	}()
	go func() { // churner: bursts along the axes, all coordinates but one zero
		defer background.Done()
		crng := rand.New(rand.NewSource(233))
		for burst := 0; ; burst++ {
			face := make([][]uint32, 300)
			for i := range face {
				face[i] = make([]uint32, cfg.Dims)
				face[i][burst%cfg.Dims] = uint32(crng.Intn(1 << uint(cfg.Bits)))
				x.Insert(face[i], 1<<32+uint64(i))
			}
			for i, p := range face {
				if !x.DeleteAt(x.Locate(p), 1<<32+uint64(i)) {
					t.Errorf("burst %d: churned entry %d lost", burst, i)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var walkers sync.WaitGroup
	for g := 0; g < 4; g++ {
		walkers.Add(1)
		go func() {
			defer walkers.Done()
			for round := 0; round < 20; round++ {
				for i, q := range queries {
					for e, eps := range epsilons {
						id, ok, _, err := x.Query(q, eps)
						if err != nil || ok != want[i][e].ok || id != want[i][e].id {
							t.Errorf("q=%v eps=%g during migration: (%d,%v,%v), want (%d,%v)", q, eps, id, ok, err, want[i][e].id, want[i][e].ok)
							return
						}
					}
				}
			}
		}()
	}
	walkers.Wait()
	close(stop)
	background.Wait()
	if migrated == 0 {
		t.Fatal("no entry migrated while the walkers ran")
	}
	t.Logf("%d entries migrated under the walkers", migrated)
}

// TestNearMissLeafCheckSteps pins the walk on the widest one-word
// near-miss universe, d 8 × k 8 (d·k 64) at n 16 384 with no step budget:
// the query is an exact miss, and a step is one descent plus at most one
// leaf check, so the count is bounded by the leaves that admit the query,
// not by the stored keys between its runs. It reads 26 steps; when a seek
// stopped at the landing slot of the first admitting leaf it read 1 201.
// A change to the number means the walk visits different leaves, not that
// it got slower.
func TestNearMissLeafCheckSteps(t *testing.T) {
	cfg := Config{Dims: 8, Bits: 8}
	pts, q, err := workload.NearMiss(cfg.Dims, cfg.Bits, 16384, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	idx := MustIndex(cfg)
	idx.InsertBatch(pts, ids)
	const wantSteps = 26
	if _, found, st, err := idx.Query(q, 0.3); err != nil || found || st.Path != PathWalk || st.WalkSteps != wantSteps {
		t.Fatalf("near-miss query: found=%v err=%v %+v, want an exact walk miss in %d steps", found, err, st, wantSteps)
	}
}

// TestWalkAfterRebuildKeepsSummaries: every SFC array a ShardedIndex holds
// keeps the curve's summaries — those a bulk load behind ChooseBoundaries
// fills, and the one a large EqualizePair move rebuilds cold. A slice that
// lost them would still answer every query right, only walk as if it had
// none, so the test reads steps: on the near-miss population, where the
// summaries cut the walk by an order of magnitude, the sharded walk stays
// within twice the single index's.
func TestWalkAfterRebuildKeepsSummaries(t *testing.T) {
	cfg := Config{Dims: 4, Bits: 10}
	pts, q, err := workload.NearMiss(cfg.Dims, cfg.Bits, 16384, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	single := MustIndex(cfg)
	single.InsertBatch(pts, ids)
	_, found, want, err := single.Query(q, 0)
	if err != nil || found {
		t.Fatalf("near-miss query on one array: found=%v err=%v", found, err)
	}
	within := func(name string, x *ShardedIndex) {
		t.Helper()
		if _, found, st, err := x.Query(q, 0); err != nil || found || st.WalkSteps > 2*want.WalkSteps {
			t.Fatalf("%s: found=%v err=%v in %d steps; one array misses in %d", name, found, err, st.WalkSteps, want.WalkSteps)
		}
	}
	bulk, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	bulk.ChooseBoundaries(keysOf(bulk, pts))
	bulk.InsertBatch(pts, ids)
	within("bulk load", bulk)
	// An unplaced table routes every point to the last slice; equalizing
	// the last pair moves half of them, which rebuilds that slice cold.
	cold, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	cold.InsertBatch(pts, ids)
	if moved := cold.EqualizePair(6); moved*4 <= len(pts)-moved {
		t.Fatalf("moved %d of %d entries: not a cold rebuild", moved, len(pts))
	}
	within("cold rebuild", cold)
}

// poolDiscards reports whether sync.Pool is throwing Puts away at random,
// as it does under the race detector: the sharded index then rebuilds a
// pooled scratch every few queries, which says nothing about the path.
func poolDiscards() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestQueryPathsAllocateNothing pins the steady-state query path: a walk
// hit, a walk miss and a top-cube hit allocate nothing, on the single
// index and on the sharded one.
func TestQueryPathsAllocateNothing(t *testing.T) {
	cfg := Config{Dims: 4, Bits: 10, MaxCubes: 50000}
	rng := rand.New(rand.NewSource(239))
	pts := randomPoints(rng, 2000, cfg.Dims, cfg.Bits)
	single := MustIndex(cfg)
	sharded, err := NewSharded(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	sharded.ChooseBoundaries(keysOf(sharded, pts))
	for i, p := range pts {
		single.Insert(p, uint64(i))
		sharded.Insert(p, uint64(i))
	}
	hit, miss, top := []uint32{10, 10, 10, 10}, []uint32{1000, 1000, 1000, 1000}, []uint32{20, 20, 20, 20}
	for name, query := range map[string]func([]uint32, float64) (uint64, bool, Stats, error){
		"Index": single.Query, "ShardedIndex": sharded.Query,
	} {
		if name == "ShardedIndex" && poolDiscards() {
			t.Log("sync.Pool discards Puts here (-race): the pooled scratch is not steady, ShardedIndex skipped")
			continue
		}
		for _, tc := range []struct {
			name  string
			q     []uint32
			eps   float64
			found bool
			path  Path
		}{
			{"walk hit", hit, 0, true, PathWalk},
			{"walk miss", miss, 0.3, false, PathWalk},
			{"top-cube hit", top, 0.3, true, PathWalk},
		} {
			if _, ok, st, err := query(tc.q, tc.eps); err != nil || ok != tc.found || st.Path != tc.path {
				t.Fatalf("%s %s: found=%v err=%v %+v", name, tc.name, ok, err, st)
			}
			if allocs := testing.AllocsPerRun(200, func() { query(tc.q, tc.eps) }); allocs != 0 {
				t.Errorf("%s %s: %v allocs per query, want 0", name, tc.name, allocs)
			}
		}
	}
}

// BenchmarkWalkMissTail times the slow tail of the repository benchmark's
// query_miss workload on the index alone: 16 384 planted parents
// (workload.Covers, slack 0.2, schema volume,price × 10 bits, so d 4 ×
// k 10) bulk-loaded into an 8-slice ShardedIndex as a default engine loads
// them, queried at ε 0.3 with the uniform 10 %-width shapes whose walk
// takes 3 or more steps — picked out at set-up from 16 384 shapes, about
// one in twenty. Those queries set query_miss's p99: their walks land in
// leaves whose summaries admit the query although no entry dominates it,
// so each step pays for the leaf check.
func BenchmarkWalkMissTail(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 16384, SlackFrac: 0.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	shapes, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: 16384, WidthFrac: 0.1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	x, err := NewSharded(Config{Dims: schema.Dims(), Bits: schema.Bits(), MaxCubes: 50000}, 8)
	if err != nil {
		b.Fatal(err)
	}
	pts, ids := make([][]uint32, len(pairs)), make([]uint64, len(pairs))
	for i, p := range pairs {
		pts[i], ids[i] = p.Parent.Point(), uint64(i)
	}
	keys := keysOf(x, pts)
	x.ChooseBoundaries(keys)
	x.InsertKeys(keys, ids)
	var tail [][]uint32
	for _, s := range shapes {
		if _, _, st, err := x.Query(s.Point(), 0.3); err != nil {
			b.Fatal(err)
		} else if st.WalkSteps >= 3 {
			tail = append(tail, s.Point())
		}
	}
	if len(tail) == 0 {
		b.Fatal("no shape walks 3 or more steps")
	}
	steps, n := 0, 0
	for b.Loop() {
		_, _, st, _ := x.Query(tail[n%len(tail)], 0.3)
		steps += st.WalkSteps
		n++
	}
	b.ReportMetric(float64(steps)/float64(n), "steps/op")
}
