package dominance

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sfccover/internal/bits"
	"sfccover/internal/geom"
	"sfccover/internal/obs"
)

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(Config{Dims: 2, Bits: 6}, 0); err == nil {
		t.Error("0 shards must fail")
	}
	if _, err := NewSharded(Config{Dims: 0, Bits: 6}, 4); err == nil {
		t.Error("dims=0 must fail")
	}
	if _, err := NewSharded(Config{Dims: 1, Bits: 2}, 8); err != nil {
		t.Errorf("more shards than keys is legal (a slice may own no key): %v", err)
	}
	if _, err := NewSharded(Config{Dims: 2, Bits: 6}, 4); err != nil {
		t.Errorf("defaults should work: %v", err)
	}
}

// TestShardedParity: over the same point set, the sharded index answers
// as the single-array index does — the same id, found/not-found and cube
// count — exhaustive and approximate, at every shard count. Walk steps may
// differ: the slices' leaves are not the single array's, and the
// summaries skip by leaf.
func TestShardedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	cfg := Config{Dims: 3, Bits: 6, MaxCubes: 5000}
	single := MustIndex(cfg)
	pts := randomPoints(rng, 2000, 3, 6)
	sharded := make([]*ShardedIndex, 0, 3)
	for _, n := range []int{1, 4, 16} {
		x, err := NewSharded(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		x.ChooseBoundaries(keysOf(x, pts))
		sharded = append(sharded, x)
	}
	for i, p := range pts {
		single.Insert(p, uint64(i))
		for _, x := range sharded {
			x.Insert(p, uint64(i))
		}
	}
	for _, eps := range []float64{0, 0.3} {
		for qi := 0; qi < 200; qi++ {
			q := randomPoints(rng, 1, 3, 6)[0]
			wantID, wantOK, wantStats, err := single.Query(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range sharded {
				gotID, gotOK, gotStats, err := x.Query(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				if gotOK != wantOK || gotID != wantID {
					t.Fatalf("eps %v shards %d query %d: (%d,%v), single index (%d,%v)",
						eps, x.NumShards(), qi, gotID, gotOK, wantID, wantOK)
				}
				if gotStats.CubesGenerated != wantStats.CubesGenerated || gotStats.Path != wantStats.Path {
					t.Fatalf("eps %v shards %d query %d: stats (%d cubes, %v) != single (%d cubes, %v)",
						eps, x.NumShards(), qi,
						gotStats.CubesGenerated, gotStats.Path,
						wantStats.CubesGenerated, wantStats.Path)
				}
			}
		}
	}
}

func TestShardedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	x, err := NewSharded(Config{Dims: 4, Bits: 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	pts := randomPoints(rng, 500, 4, 8)
	x.ChooseBoundaries(keysOf(x, pts))
	for i, p := range pts {
		x.Insert(p, uint64(i))
	}
	if x.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(pts))
	}
	total := 0
	for _, n := range x.ShardSizes() {
		total += n
	}
	if total != len(pts) {
		t.Fatalf("ShardSizes sum = %d, want %d", total, len(pts))
	}
	for i, p := range pts {
		if !x.DeleteAt(x.Locate(p), uint64(i)) {
			t.Fatalf("Delete(%d) found nothing", i)
		}
		if x.DeleteAt(x.Locate(p), uint64(i)) {
			t.Fatalf("double Delete(%d) succeeded", i)
		}
	}
	if x.Len() != 0 {
		t.Fatalf("Len after deletion = %d", x.Len())
	}
}

func TestShardedQueryValidation(t *testing.T) {
	x, err := NewSharded(Config{Dims: 2, Bits: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := x.Query([]uint32{1}, 0); err == nil {
		t.Error("wrong query dims must fail")
	}
	if _, _, _, err := x.Query([]uint32{1, 1}, 1.0); err == nil {
		t.Error("eps=1 must fail")
	}
}

// TestShardedInitialBoundaries pins where an index's boundaries come
// from: none at birth (the last slice owns every key), then the quantiles
// of the first batch to enter it empty — the same table for the same
// batch, whatever the batch's distribution — and never from a batch that
// finds entries already there.
func TestShardedInitialBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := Config{Dims: 3, Bits: 6}
	// Clustered low in every coordinate: a uniform split of the key space
	// would put all of it in the first slice.
	pts := make([][]uint32, 4000)
	for i := range pts {
		pts[i] = []uint32{uint32(rng.Intn(8)), uint32(rng.Intn(8)), uint32(rng.Intn(8))}
	}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	for _, n := range []int{1, 3, 4, 16} {
		x, err := NewSharded(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		tab := x.Boundaries()
		if len(tab) != n {
			t.Fatalf("n=%d: %d boundaries", n, len(tab))
		}
		for i, k := range tab {
			if !k.IsZero() {
				t.Fatalf("n=%d: boundary %d of an empty index = %v, want the zero key", n, i, k)
			}
		}
		if got := x.Locate(pts[0]).Slice; got != n-1 {
			t.Fatalf("n=%d: an unplaced index routes to slice %d, want the last", n, got)
		}

		x.ChooseBoundaries(keysOf(x, pts))
		tab = x.Boundaries()
		for i := 1; i < n; i++ {
			if tab[i].Less(tab[i-1]) {
				t.Fatalf("n=%d: boundaries out of order: %v", n, tab)
			}
		}
		x.InsertBatch(pts, ids)
		sizes := x.ShardSizes()
		lo, hi := sizes[0], sizes[0]
		for _, s := range sizes {
			lo, hi = min(lo, s), max(hi, s)
		}
		// Only 512 distinct keys exist, each ~8 entries deep, and a key
		// never splits across slices: allow that granularity.
		if n > 1 && hi > 2*lo {
			t.Fatalf("n=%d: quantile boundaries loaded %v", n, sizes)
		}

		twin, _ := NewSharded(cfg, n)
		twin.ChooseBoundaries(keysOf(twin, pts))
		if got := twin.Boundaries(); !slices.Equal(got, tab) {
			t.Fatalf("n=%d: two loads of one batch chose %v and %v", n, tab, got)
		}

		x.ChooseBoundaries(keysOf(x, slices.Repeat([][]uint32{{63, 63, 63}}, len(pts))))
		if got := x.Boundaries(); !slices.Equal(got, tab) {
			t.Fatalf("n=%d: a batch moved the boundaries of a loaded index: %v -> %v", n, tab, got)
		}
	}
}

// TestEqualizePairMigration loads one slice far heavier than the rest,
// equalizes, and checks that no entry is lost, every entry remains
// deletable (deletes route by the NEW boundaries), and queries answer
// exactly as an unsharded oracle before and after each move.
func TestEqualizePairMigration(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 8}
	x, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := MustIndex(cfg)
	rng := rand.New(rand.NewSource(72))
	// One insert at a time, nothing has placed the boundaries: every
	// entry lands in the last slice.
	pts := make([][]uint32, 0, 1200)
	for i := 0; i < 1000; i++ {
		pts = append(pts, []uint32{uint32(rng.Intn(16)), uint32(rng.Intn(16))})
	}
	for i := 0; i < 200; i++ {
		pts = append(pts, []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256))})
	}
	for i, p := range pts {
		x.Insert(p, uint64(i))
		oracle.Insert(p, uint64(i))
	}
	check := func(stage string) {
		t.Helper()
		if x.Len() != len(pts) {
			t.Fatalf("%s: Len = %d, want %d", stage, x.Len(), len(pts))
		}
		for qi := 0; qi < 120; qi++ {
			q := randomPoints(rng, 1, 2, 8)[0]
			_, wantOK, _, _ := oracle.Query(q, 0)
			_, gotOK, _, err := x.Query(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK {
				t.Fatalf("%s: query %d found=%v, oracle found=%v", stage, qi, gotOK, wantOK)
			}
		}
	}
	check("before")
	// Adjacent equalization diffuses load one neighbor at a time; sweep
	// until quiescent, checking answers after every sweep.
	totalMigrated := 0
	for sweep := 0; sweep < 12; sweep++ {
		moved := 0
		for pair := 0; pair < 3; pair++ {
			moved += x.EqualizePair(pair)
		}
		totalMigrated += moved
		check(fmt.Sprintf("after sweep %d", sweep))
		if moved == 0 {
			break
		}
	}
	if totalMigrated == 0 {
		t.Fatal("clustered load migrated nothing")
	}
	sizes := x.ShardSizes()
	max, min := sizes[0], sizes[0]
	for _, n := range sizes {
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if max > 3*(min+1) {
		t.Fatalf("sizes still badly skewed after equalization: %v", sizes)
	}
	// Every entry must remain deletable wherever it migrated to.
	for i, p := range pts {
		if !x.DeleteAt(x.Locate(p), uint64(i)) {
			t.Fatalf("entry %d lost after migration", i)
		}
	}
	if x.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", x.Len())
	}
}

// TestEqualizePairDegenerate: an all-one-key pair cannot split, and
// out-of-range pairs are rejected quietly.
func TestEqualizePairDegenerate(t *testing.T) {
	x, err := NewSharded(Config{Dims: 2, Bits: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x.EqualizePair(-1) != 0 || x.EqualizePair(1) != 0 {
		t.Fatal("out-of-range pair must not migrate")
	}
	if x.EqualizePair(0) != 0 {
		t.Fatal("empty pair must not migrate")
	}
	p := []uint32{1, 1}
	for i := 0; i < 50; i++ {
		x.Insert(p, uint64(i))
	}
	if x.EqualizePair(0) != 0 {
		t.Fatal("a single-key population must never split across a boundary")
	}
	if x.Len() != 50 {
		t.Fatalf("Len = %d after degenerate equalize", x.Len())
	}
}

// keysOf lays out pts' keys as a bulk load carries them.
func keysOf(x *ShardedIndex, pts [][]uint32) []uint64 { return x.appendKeys(nil, pts) }

// TestSplitPoint pins the split chooser directly: candidates on BOTH
// sides of the middle must be weighed (an inadmissible or non-improving
// candidate below the middle must not mask a strictly improving one
// above it), equal-key runs never split, and no-improvement pairs
// report -1.
func TestSplitPoint(t *testing.T) {
	k := func(vs ...uint64) []uint64 { return vs }
	cases := []struct {
		name string
		keys []uint64
		na   int
		want int
	}{
		// The middle (s=2) splits the 2,2 run; s=1 does not improve on
		// |2*4-5|=3, but s=3 (imbalance 1) does — it must be found.
		{"blocked-middle-right-wins", k(1, 2, 2, 3, 4), 4, 3},
		{"blocked-middle-left-wins", k(1, 3, 3, 3, 4), 0, 1},
		{"clean-median", k(1, 2, 3, 4), 4, 2},
		{"already-even", k(1, 2, 3, 4), 2, -1},
		{"single-key-run", k(7, 7, 7, 7), 4, -1},
		{"off-by-one-cannot-improve", k(1, 2, 3, 4, 5), 3, -1},
	}
	for _, tc := range cases {
		if got := splitPoint(tc.keys, 1, tc.na); got != tc.want {
			t.Errorf("%s: splitPoint = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestShardedConcurrentMigration hammers queries, inserts and deletes
// while boundaries move; meaningful under -race. Queries run in exact
// mode against a stable planted population, so every answer is checkable
// mid-migration.
func TestShardedConcurrentMigration(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 8, MaxCubes: 2000}
	x, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	// Stable planted points: never deleted, so a query dominated by one
	// must find SOMETHING at every instant of the churn below.
	planted := make([][]uint32, 400)
	for i := range planted {
		planted[i] = []uint32{uint32(rng.Intn(32)), uint32(rng.Intn(32))}
	}
	for i, p := range planted {
		x.Insert(p, uint64(i))
	}
	stop := make(chan struct{})
	moverDone := make(chan struct{})
	go func() { // boundary mover
		defer close(moverDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				x.EqualizePair(i % (x.NumShards() - 1))
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(80 + g)))
			base := uint64(10_000 * (g + 1))
			for i := 0; i < 300; i++ {
				p := []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256))}
				x.Insert(p, base+uint64(i))
				// A query at the origin is dominated by every planted
				// point; exact search must find one mid-migration.
				if _, ok, _, err := x.Query([]uint32{0, 0}, 0); err != nil || !ok {
					t.Errorf("goroutine %d op %d: origin query = (%v, %v), want a hit", g, i, ok, err)
					return
				}
				if !x.DeleteAt(x.Locate(p), base+uint64(i)) {
					t.Errorf("goroutine %d op %d: delete of fresh insert failed", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-moverDone
	if x.Len() != len(planted) {
		t.Fatalf("Len = %d after churn, want %d", x.Len(), len(planted))
	}
}

// TestShardedConcurrent interleaves inserts, deletes and queries from many
// goroutines; meaningful under -race.
func TestShardedConcurrent(t *testing.T) {
	x, err := NewSharded(Config{Dims: 4, Bits: 8, MaxCubes: 500}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(64 + g)))
			pts := randomPoints(rng, 200, 4, 8)
			for i, p := range pts {
				x.Insert(p, uint64(g*1000+i))
			}
			for i := 0; i < 100; i++ {
				q := randomPoints(rng, 1, 4, 8)[0]
				if _, _, _, err := x.Query(q, 0.4); err != nil {
					t.Error(err)
					return
				}
			}
			for i, p := range pts {
				if !x.DeleteAt(x.Locate(p), uint64(g*1000+i)) {
					t.Errorf("goroutine %d: delete %d failed", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if x.Len() != 0 {
		t.Fatalf("Len after concurrent churn = %d", x.Len())
	}
}

// TestShardedConcurrentQueriesMatchLinear runs the same queries from
// concurrent goroutines on a ShardedIndex (meaningful under -race), each
// checking out its own pooled scratch, and checks every answer against
// the Linear oracle.
func TestShardedConcurrentQueriesMatchLinear(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 6, Seed: 11}
	x, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewLinear()
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 400, 2, 6)
	x.ChooseBoundaries(keysOf(x, pts))
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
}

// TestChooseBoundariesConcurrent races batches into an empty index, each
// asking for boundaries placed for itself first, beside single inserts;
// meaningful under -race. Whoever wins, the table swap must strand
// nothing: every entry stays findable and deletable by its key.
func TestChooseBoundariesConcurrent(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 8, MaxCubes: 2000}
	for round := 0; round < 10; round++ {
		x, err := NewSharded(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*round + g)))
				// Each batch crowds its own corner, so each would choose a
				// different table.
				pts := randomPoints(rng, 300, 2, 6)
				for _, p := range pts {
					p[0] += uint32(g%2) << 7
					p[1] += uint32(g/2) << 7
				}
				ids := make([]uint64, len(pts))
				for i := range ids {
					ids[i] = uint64(g*1000 + i)
				}
				if g == 3 {
					for i, p := range pts {
						x.Insert(p, ids[i])
					}
				} else {
					x.ChooseBoundaries(keysOf(x, pts))
					x.InsertBatch(pts, ids)
				}
				for i, p := range pts {
					if _, ok, _, err := x.Query(p, 0); err != nil || !ok {
						t.Errorf("goroutine %d: a stored point is not found at its own position (%v, %v)", g, ok, err)
						return
					}
					if !x.DeleteAt(x.Locate(p), ids[i]) {
						t.Errorf("goroutine %d: entry %d lost", g, i)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if x.Len() != 0 {
			t.Fatalf("round %d: Len = %d after deleting everything", round, x.Len())
		}
	}
}

// checkOwnership fails unless every entry of every slice sits in the slice
// the current table routes its key to, and returns the entry count.
func checkOwnership(t *testing.T, x *ShardedIndex) int {
	t.Helper()
	tab := x.Boundaries()
	n := 0
	for i := range x.shards {
		x.shards[i].arr.VisitRange(bits.Key{}, bits.LowMask(bits.KeyBits), func(k bits.Key, id uint64) bool {
			if s := routeKey(tab, k); s != i {
				t.Errorf("entry %d sits in slice %d, the table routes its key to %d", id, i, s)
			}
			n++
			return true
		})
	}
	return n
}

// TestStaleLocationLandsInOwningSlice: a Location routed before a boundary
// move must not insert into, or delete from, the slice it names once the
// key moved out.
func TestStaleLocationLandsInOwningSlice(t *testing.T) {
	x, err := NewSharded(Config{Dims: 2, Bits: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Everything lands in the last slice until a move places a boundary.
	for i := 0; i < 64; i++ {
		x.Insert([]uint32{uint32(i), uint32(i)}, uint64(i))
	}
	p := []uint32{1, 0}
	loc := x.Locate(p)
	if loc.Slice != 1 {
		t.Fatalf("before any move the key routes to slice %d, want the last", loc.Slice)
	}
	del := x.LocateWord(loc.Key.LowWord())
	if del != loc {
		t.Fatalf("LocateWord of the key = %+v, Locate = %+v", del, loc)
	}
	if x.EqualizePair(0) == 0 {
		t.Fatal("the pair did not move")
	}
	if fresh := x.Locate(p); fresh.Slice != 0 {
		t.Fatalf("after the move the key routes to slice %d, want 0", fresh.Slice)
	}
	x.InsertAt(loc, 1000)
	if got := checkOwnership(t, x); got != 65 {
		t.Fatalf("%d entries, want 65", got)
	}
	if !x.DeleteAt(del, 1000) {
		t.Fatal("the stale-routed entry is not deletable under a stale route of its key")
	}
	if got := checkOwnership(t, x); got != 64 {
		t.Fatalf("%d entries, want 64", got)
	}
}

// TestStaleBatchSharesLandInOwningSlices: a bulk load whose batch was cut
// by a table that a boundary move has since replaced loads into each
// slice only what the published table routes there, and hands the rest
// back still sorted; the rounds that follow leave the layout a load under
// the published table alone builds.
func TestStaleBatchSharesLandInOwningSlices(t *testing.T) {
	cfg := Config{Dims: 4, Bits: 10}
	pts := randomPoints(rand.New(rand.NewSource(17)), 3000, cfg.Dims, cfg.Bits)
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	build := func() *ShardedIndex {
		x, err := NewSharded(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		x.ChooseBoundaries(keysOf(x, pts))
		return x
	}
	want := build()
	want.InsertBatch(pts, ids)
	cur := want.Boundaries()
	for name, stale := range map[string][]bits.Key{
		"unplaced":             make([]bits.Key, 4),
		"slice 2 starts early": {cur[0], cur[1], cur[1], cur[3]},
		"slice 1 starts late":  {cur[0], cur[2], cur[2], cur[3]},
	} {
		x := build()
		w := x.KeyStride()
		keys, rest := SortBatch(keysOf(x, pts), w, ids)
		keys, rest = x.loadShares(&stale, keys, w, rest)
		if len(rest) == 0 {
			t.Fatalf("%s: a stale cut deferred nothing", name)
		}
		for j := 1; j < len(rest); j++ {
			if entryOrder(keys, w, rest, j-1, j) >= 0 {
				t.Fatalf("%s: deferred entries %d and %d out of (key, id) order", name, j-1, j)
			}
		}
		for len(rest) > 0 {
			keys, rest = x.loadShares(x.table.Load(), keys, w, rest)
		}
		if got := checkOwnership(t, x); got != len(pts) {
			t.Fatalf("%s: %d entries after the rounds, want %d", name, got, len(pts))
		}
		if !bytes.Equal(x.AppendLayout(nil), want.AppendLayout(nil)) {
			t.Fatalf("%s: the rounds built another layout than one load under the published table", name)
		}
	}
}

// entryOrder compares entries a and b of a batch (keys w words each) by
// key, then id.
func entryOrder(keys []uint64, w int, ids []uint64, a, b int) int {
	if c := slices.Compare(keys[a*w:a*w+w], keys[b*w:b*w+w]); c != 0 {
		return c
	}
	return cmp.Compare(ids[a], ids[b])
}

// TestRoutedWritesRaceEqualizePair races Insert, InsertAt and DeleteAt
// (routed by LocateWord, as the engine's remove routes) against a
// boundary mover; meaningful under -race. Every write must land
// in — and every delete find its entry in — the slice owning its key.
func TestRoutedWritesRaceEqualizePair(t *testing.T) {
	x, err := NewSharded(Config{Dims: 2, Bits: 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	moverDone := make(chan struct{})
	go func() {
		defer close(moverDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				x.EqualizePair(i % (x.NumShards() - 1))
			}
		}
	}()
	const perWriter = 600
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			base := uint64(10_000 * (g + 1))
			for i := 0; i < perWriter; i++ {
				p := []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256))}
				id := base + uint64(i)
				if i%2 == 0 {
					x.Insert(p, id)
				} else {
					x.InsertAt(x.Locate(p), id)
				}
				// Every third entry leaves again; the rest stay for the
				// ownership check.
				if i%3 == 0 && !x.DeleteAt(x.LocateWord(x.Locate(p).Key.LowWord()), id) {
					t.Errorf("writer %d: delete of entry %d failed", g, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-moverDone
	want := 4 * (perWriter - (perWriter+2)/3)
	if got := checkOwnership(t, x); got != want || x.Len() != want {
		t.Fatalf("%d entries visited, Len %d, want %d", got, x.Len(), want)
	}
}

// TestSliceSummaryMirrorsArray: every write a slice takes — Insert, Delete,
// InsertBatch, both sides of an EqualizePair, the shedding side's delete
// drain and its cold rebuild — leaves the slot's lock-free mirror equal to
// its array's one-word summary, so no seek passes a slice on a stale
// low bound. On keys wider than a word there is no summary to mirror.
func TestSliceSummaryMirrorsArray(t *testing.T) {
	for _, cfg := range []Config{{Dims: 4, Bits: 10}, {Dims: 2, Bits: 6}, {Dims: 5, Bits: 13}} {
		t.Run(fmt.Sprintf("%dx%d", cfg.Dims, cfg.Bits), func(t *testing.T) {
			rng := rand.New(rand.NewSource(251))
			x, err := NewSharded(cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			check := func(op string) {
				t.Helper()
				for i := range x.shards {
					s := &x.shards[i]
					if got, top := s.sum.Load(), s.arr.Summary(); got != top {
						t.Fatalf("after %s: slice %d mirrors %#x, array summary %#x", op, i, got, top)
					}
				}
			}
			type entry struct {
				p  []uint32
				id uint64
			}
			var live []entry
			next := uint64(0)
			migrated := 0
			check("NewSharded")
			for op := 0; op < 3000; op++ {
				// The second half drains the index: leaves merge and drain
				// away, and the summaries fall with them.
				grow := op < 1500
				ins := 2
				if grow {
					ins = 9
				}
				switch r := rng.Intn(20); {
				case r < ins:
					p := randomPoints(rng, 1, cfg.Dims, cfg.Bits)[0]
					x.Insert(p, next)
					live = append(live, entry{p, next})
					next++
					check("Insert")
				case r < 16 && len(live) > 0:
					i := rng.Intn(len(live))
					if !x.DeleteAt(x.Locate(live[i].p), live[i].id) {
						t.Fatalf("Delete of live entry %d failed", live[i].id)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					check("Delete")
				case r < 18 && grow:
					n := 1 + rng.Intn(20)
					ps := randomPoints(rng, n, cfg.Dims, cfg.Bits)
					ids := make([]uint64, n)
					for i := range ids {
						ids[i] = next
						live = append(live, entry{ps[i], next})
						next++
					}
					x.InsertBatch(ps, ids)
					check("InsertBatch")
				default:
					migrated += x.EqualizePair(rng.Intn(x.NumShards() - 1))
					check("EqualizePair")
				}
			}
			if migrated == 0 || x.Len() != len(live) {
				t.Fatalf("%d entries migrated; index holds %d of %d live", migrated, x.Len(), len(live))
			}
		})
	}
}

// TestProbeTopMatchesWalk holds an untraced approximate query, which
// probes its top cube before it takes a scratch (probeTop), to the same
// query traced, which walks from the scratch as every query did before:
// the same answer and the same Stats, bit for bit, on one slice and on
// eight, under a step budget tight enough that some queries reach the cube
// search. A top-cube hit's Stats also equal a single array's, whose walk
// takes no such shortcut. The queries must hit and miss the top cube.
func TestProbeTopMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cfg := Config{Dims: 4, Bits: 8, MaxCubes: 3}
	pts := randomPoints(rng, 3000, cfg.Dims, cfg.Bits)
	queries := randomPoints(rng, 600, cfg.Dims, cfg.Bits)
	single := MustIndex(cfg)
	for i, p := range pts {
		single.Insert(p, uint64(i))
	}
	for _, n := range []int{1, 8} {
		x, err := NewSharded(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		x.ChooseBoundaries(keysOf(x, pts))
		for i, p := range pts {
			x.Insert(p, uint64(i))
		}
		var topHits, topMisses, cubes int
		for _, eps := range []float64{0.05, 0.3} {
			for _, q := range queries {
				var st, want Stats
				id, ok, err := x.QueryInto(q, eps, nil, &st)
				if err != nil {
					t.Fatal(err)
				}
				wantID, wantOK, err := x.QueryInto(q, eps, &obs.QueryTrace{Op: "query"}, &want)
				if err != nil {
					t.Fatal(err)
				}
				if id != wantID || ok != wantOK || st != want {
					t.Fatalf("%d slices, eps %g, q %v: untraced (%d,%v) %+v, walked (%d,%v) %+v", n, eps, q, id, ok, st, wantID, wantOK, want)
				}
				if st.Path == PathCubes {
					cubes++
				}
				if st.Path != PathWalk || st.WalkSteps != 1 || !ok {
					topMisses++
					continue
				}
				topHits++
				singleID, singleOK, singleSt, err := single.Query(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				if singleID != id || !singleOK || singleSt != st {
					t.Fatalf("%d slices, eps %g, q %v: top-cube hit (%d) %+v, single array (%d,%v) %+v", n, eps, q, id, st, singleID, singleOK, singleSt)
				}
			}
		}
		if topHits == 0 || topMisses == 0 || cubes == 0 {
			t.Fatalf("%d slices: %d top-cube hits, %d misses, %d cube searches: the queries must have all three", n, topHits, topMisses, cubes)
		}
	}
}
