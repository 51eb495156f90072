package dominance

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sfccover/internal/geom"
)

// TestMemoGrowsWithArray pins the memo's sizing rule on both index kinds:
// at most one set a stripe for an empty or one-entry array, at least two
// slots an entry up to the ceiling as inserts arrive (through Insert and
// InsertBatch alike), nothing given back when entries are deleted, and a
// configured ceiling respected.
func TestMemoGrowsWithArray(t *testing.T) {
	cfg := Config{Dims: 4, Bits: 10}
	ceiling := 2 * DefaultCacheSize
	pts := randomPoints(rand.New(rand.NewSource(61)), 3*DefaultCacheSize, cfg.Dims, cfg.Bits)
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	single := MustIndex(cfg)
	sharded, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	sharded.ChooseBoundaries(len(pts), func(i int) []uint32 { return pts[i] })
	check := func(name string, m *hitMemo, n int) {
		t.Helper()
		slots := m.slots()
		if n <= 1 && slots > 128 {
			t.Fatalf("%s: %d slots at n=%d, want <= 128", name, slots, n)
		}
		if slots < min(2*n, ceiling) || slots > ceiling {
			t.Fatalf("%s: %d slots at n=%d, want 2n up to the ceiling %d", name, slots, n, ceiling)
		}
	}
	check("Index", single.memo, 0)
	check("ShardedIndex", sharded.memo, 0)
	for i, p := range pts {
		single.Insert(p, ids[i])
		sharded.Insert(p, ids[i])
		n := i + 1
		check("Index", single.memo, n)
		check("ShardedIndex", sharded.memo, n)
		// The single index knows its length: it doubles exactly as far as
		// the rule asks.
		want := 128
		for want < 2*n && want < ceiling {
			want *= 2
		}
		if slots := single.memo.slots(); slots != want {
			t.Fatalf("Index: %d slots at n=%d, the rule asks for %d", slots, n, want)
		}
	}

	singleSlots, shardedSlots := single.memo.slots(), sharded.memo.slots()
	for i, p := range pts[:len(pts)/2] {
		if !single.Delete(p, ids[i]) || !sharded.Delete(p, ids[i]) {
			t.Fatalf("entry %d not deleted", i)
		}
	}
	if single.memo.slots() != singleSlots || sharded.memo.slots() != shardedSlots {
		t.Fatalf("deleting half the entries resized the memos: %d -> %d and %d -> %d slots",
			singleSlots, single.memo.slots(), shardedSlots, sharded.memo.slots())
	}

	const batch = 1000
	batched := MustIndex(cfg)
	batched.InsertBatch(pts[:batch], ids[:batch])
	check("Index batch", batched.memo, batch)
	batchedSharded, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	batchedSharded.ChooseBoundaries(batch, func(i int) []uint32 { return pts[i] })
	batchedSharded.InsertBatch(pts[:batch], ids[:batch])
	check("ShardedIndex batch", batchedSharded.memo, batch)

	small := MustIndex(Config{Dims: 4, Bits: 10, CacheSize: 32})
	for i, p := range pts[:batch] {
		small.Insert(p, ids[i])
	}
	if slots := small.memo.slots(); slots > 64 {
		t.Fatalf("CacheSize 32: %d slots after %d inserts, want the ceiling of 64", slots, batch)
	}
}

// memoIndex is what TestMemoGrowthIsDeterministic drives of both index
// kinds.
type memoIndex interface {
	InsertBatch(ps [][]uint32, ids []uint64)
	Insert(p []uint32, id uint64)
	Delete(p []uint32, id uint64) bool
	Query(q []uint32, eps float64) (uint64, bool, Stats, error)
}

// TestMemoGrowthIsDeterministic feeds two single indexes and two sharded
// ones the same operations — recurring queries between rounds of inserts
// and deletes that carry the memo across two doublings — and checks that
// each pair answers every query with the same id, found flag and path,
// and every index with a genuine dominator exactly when an index without
// a memo finds one (a replay may return another dominator than the walk
// once the population has changed): a stripe that restarts cold loses
// entries, never answers, and which entries it loses depends on the
// operations alone.
func TestMemoGrowthIsDeterministic(t *testing.T) {
	cfg := Config{Dims: 3, Bits: 6}
	rng := rand.New(rand.NewSource(59))
	pts := randomPoints(rng, 200, cfg.Dims, cfg.Bits)
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	shapes := randomPoints(rng, 60, cfg.Dims, cfg.Bits)
	plainCfg := cfg
	plainCfg.CacheSize = -1
	plain := MustIndex(plainCfg)

	type run struct {
		name    string
		x       memoIndex
		memo    *hitMemo
		sizes   map[int]bool
		replays int
	}
	var runs []*run
	for _, name := range []string{"Index", "Index", "ShardedIndex", "ShardedIndex"} {
		r := &run{name: name, sizes: map[int]bool{}}
		if name == "Index" {
			x := MustIndex(cfg)
			r.x, r.memo = x, x.memo
		} else {
			x, err := NewSharded(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			x.ChooseBoundaries(40, func(i int) []uint32 { return pts[i] })
			r.x, r.memo = x, x.memo
		}
		runs = append(runs, r)
	}
	each := func(fn func(x memoIndex)) {
		fn(plain)
		for _, r := range runs {
			fn(r.x)
		}
	}

	each(func(x memoIndex) { x.InsertBatch(pts[:40], ids[:40]) })
	n := 40
	for step := 0; ; step++ {
		for _, r := range runs {
			r.sizes[r.memo.slots()] = true
		}
		// Three rounds: each covered shape is noted, recorded, replayed —
		// or, where its stripe just grew, starts over.
		for round := 0; round < 3; round++ {
			for _, q := range shapes {
				_, wantOK, _, err := plain.Query(q, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				var prevID uint64
				var prev Stats
				for i, r := range runs {
					id, ok, st, err := r.x.Query(q, 0.3)
					if err != nil || ok != wantOK || ok && !geom.Dominates(pts[id], q) {
						t.Fatalf("step %d %s q=%v: (%d,%v,%v), without a memo found=%v", step, r.name, q, id, ok, err, wantOK)
					}
					if i%2 == 1 && (id != prevID || st.Path != prev.Path) {
						t.Fatalf("step %d %s q=%v: replicas answered %d by %v and %d by %v", step, r.name, q, prevID, prev.Path, id, st.Path)
					}
					prevID, prev = id, st
					if st.Path == PathMemo {
						r.replays++
					}
				}
			}
		}
		if n == len(pts) {
			break
		}
		for k := 0; k < 30 && n < len(pts); k++ {
			each(func(x memoIndex) { x.Insert(pts[n], ids[n]) })
			n++
		}
		each(func(x memoIndex) {
			if !x.Delete(pts[step], ids[step]) {
				t.Fatalf("step %d: entry %d not deleted", step, step)
			}
		})
	}
	for _, r := range runs {
		if len(r.sizes) < 3 {
			t.Errorf("%s: the memo took sizes %v, want two doublings mid-sequence", r.name, r.sizes)
		}
		if r.replays == 0 {
			t.Errorf("%s: no query replayed", r.name)
		}
	}
}

// TestMemoGrowsBesideConcurrentQueries runs queriers on a ShardedIndex
// while a writer inserts enough points, singly and in batches, to double
// the memo several times (meaningful under -race: stripes reallocate
// under their locks while other stripes replay). Every answer must be a
// genuine dominator, and with no step budget the walk is exact, so a
// shape that has found a cover never loses it while points only arrive.
func TestMemoGrowsBesideConcurrentQueries(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 8}
	x, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	pts := randomPoints(rng, 1500, cfg.Dims, cfg.Bits)
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	shapes := randomPoints(rng, 48, cfg.Dims, cfg.Bits)
	start := x.memo.slots()

	done := make(chan struct{})
	var ready, wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		ready.Add(1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			readied := sync.OnceFunc(ready.Done)
			defer readied() // a querier that fails early must not hold the writer back
			found := make([]bool, len(shapes))
			for round := 0; ; round++ {
				if round == 1 {
					readied()
				}
				select {
				case <-done:
					return
				default:
				}
				for i, q := range shapes {
					id, ok, _, err := x.Query(q, 0.25)
					if err != nil {
						t.Errorf("querier %d q=%v: %v", g, q, err)
						return
					}
					if ok && !geom.Dominates(pts[id], q) {
						t.Errorf("querier %d q=%v: %v does not dominate", g, q, pts[id])
						return
					}
					if found[i] && !ok {
						t.Errorf("querier %d q=%v: a cover was lost while points only arrived", g, q)
						return
					}
					found[i] = ok
				}
			}
		}(g)
	}
	ready.Wait()
	for lo := 0; lo < len(pts); lo += 100 {
		hi := min(lo+100, len(pts))
		if lo/100%2 == 0 {
			for i := lo; i < hi; i++ {
				x.Insert(pts[i], ids[i])
			}
		} else {
			x.InsertBatch(pts[lo:hi], ids[lo:hi])
		}
	}
	close(done)
	wg.Wait()

	if end := x.memo.slots(); end < 4*start {
		t.Fatalf("the memo went %d -> %d slots over %d inserts, want at least two doublings", start, end, len(pts))
	}
	oracle := NewLinear()
	for i, p := range pts {
		oracle.Insert(p, ids[i])
	}
	for _, q := range shapes {
		_, ok, _, _ := x.Query(q, 0.25)
		if _, want := oracle.QueryDominating(q); ok != want {
			t.Fatalf("after the inserts q=%v: found=%v, oracle %v", q, ok, want)
		}
	}
	if h, _ := x.CacheStats(); h == 0 {
		t.Error("no memo replay during the run")
	}
}

// TestMemoAllocatesOnlyOnGrowth is the allocation guard of the memo's
// growth: a stripe allocates its tables on its first note after the
// population outgrew them, and not otherwise — once the population stops
// growing, queries that note and record shapes allocate nothing. Growth
// itself must show up as allocations, or the guard would see nothing.
func TestMemoAllocatesOnlyOnGrowth(t *testing.T) {
	cfg := Config{Dims: 4, Bits: 10}
	idx := MustIndex(cfg)
	rng := rand.New(rand.NewSource(71))
	idx.Insert([]uint32{1023, 1023, 1023, 1023}, 0) // every shape is covered, so every query learns
	shapes := randomPoints(rng, 2048, cfg.Dims, cfg.Bits)
	next := 0
	learn := func() {
		q := shapes[next%len(shapes)]
		next++
		if _, ok, _, err := idx.Query(q, 0.3); err != nil || !ok {
			t.Fatalf("q=%v: found=%v err=%v", q, ok, err)
		}
	}
	synced := func() bool {
		target := int(idx.memo.target.Load())
		for i := range idx.memo.stripes {
			s := &idx.memo.stripes[i]
			s.mu.Lock()
			sets := s.sets
			s.mu.Unlock()
			if sets != target {
				return false
			}
		}
		return true
	}
	prev := idx.memo.slots()
	for _, n := range []int{1, 200, 1000, 3000} {
		for idx.Len() < n {
			idx.Insert(randomPoints(rng, 1, cfg.Dims, cfg.Bits)[0], uint64(idx.Len()))
		}
		if slots := idx.memo.slots(); slots > prev {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 100; i++ {
				learn()
			}
			runtime.ReadMemStats(&after)
			if after.Mallocs == before.Mallocs {
				t.Errorf("n=%d: the memo grew %d -> %d slots and no stripe reallocated", n, prev, slots)
			}
			prev = slots
		}
		for i := 0; !synced(); i++ {
			if i == len(shapes) {
				t.Fatalf("n=%d: %d learning queries left a stripe below the target", n, i)
			}
			learn()
		}
		if allocs := testing.AllocsPerRun(200, learn); allocs != 0 {
			t.Errorf("n=%d: %v allocs per learning query at a steady population, want 0", n, allocs)
		}
	}
	if prev != 2*DefaultCacheSize {
		t.Fatalf("the memo ended at %d slots, want the ceiling", prev)
	}
}
