package dominance

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sfccover/internal/obs"
)

// TestCornerLineLayout pins the corner words' padded cell: a cornerLine is
// one 64-byte cache line with its first atomic word at offset 0, a slice's
// lines are one allocation aligned to a line, and no line of it holds the
// slot's lock, which the slice's walkers and writers write — 8-byte
// aligned on 32-bit targets too.
func TestCornerLineLayout(t *testing.T) {
	var c cornerLine
	if size := unsafe.Sizeof(c); size != 64 {
		t.Fatalf("cornerLine is %d bytes, want one 64-byte cache line", size)
	}
	if off := uintptr(unsafe.Pointer(&c[0])) - uintptr(unsafe.Pointer(&c)); off != 0 {
		t.Fatalf("cornerLine's first atomic word sits at offset %d, want 0", off)
	}
	for _, cfg := range []Config{{Dims: 2, Bits: 7}, {Dims: 4, Bits: 10}, {Dims: 2, Bits: 32}} {
		x, err := NewSharded(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x.shards {
			s := &x.shards[i]
			if levels := len(s.corner) * len(c); levels < cfg.Bits+1 || levels >= cfg.Bits+1+len(c) {
				t.Fatalf("%+v: %d corner lines for %d levels", cfg, len(s.corner), cfg.Bits+1)
			}
			lo := uintptr(unsafe.Pointer(&s.corner[0]))
			hi := lo + uintptr(len(s.corner))*unsafe.Sizeof(c)
			if lo%64 != 0 {
				t.Fatalf("%+v: slice %d's corner lines start at %#x, not on a line", cfg, i, lo)
			}
			if mu := uintptr(unsafe.Pointer(&s.mu)); mu+unsafe.Sizeof(s.mu) > lo && mu < hi {
				t.Fatalf("%+v: slice %d's lock at %#x shares a line of its corner words [%#x, %#x)", cfg, i, mu, lo, hi)
			}
		}
	}
	if x, _ := NewSharded(Config{Dims: 5, Bits: 13}, 2); x.shards[0].corner != nil {
		t.Fatal("an index on keys wider than a word keeps corner words")
	}
}

// cornerKey returns a random key in the top cube of side 2^level: the
// key space's suffix [lo(level), MAX].
func cornerKey(rng *rand.Rand, x *ShardedIndex, level int) uint64 {
	lo, hi := x.curve.TopCubeRangeWord(uint64(1) << uint(level))
	return lo | rng.Uint64()&(hi-lo)
}

// checkCorners holds every slice's published words to a locked probe of
// its array, level by level, and every level's lock-free answer to the
// locked probe across the slices.
func checkCorners(t *testing.T, x *ShardedIndex, op string) {
	t.Helper()
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.RLock()
		for l := 0; l <= x.cfg.Bits; l++ {
			lo, hi := x.curve.TopCubeRangeWord(uint64(1) << uint(l))
			want := uint64(cornerNone)
			if id, ok := s.arr.FirstInRangeWord(lo, hi); ok {
				want = cornerEntry{id: id, ok: true}.word()
			}
			if got := s.word(l).Load(); got != want {
				s.mu.RUnlock()
				t.Fatalf("after %s: slice %d level %d publishes %#x, its array answers %#x", op, i, l, got, want)
			}
		}
		s.mu.RUnlock()
	}
	for l := 0; l <= x.cfg.Bits; l++ {
		lo, hi := x.curve.TopCubeRangeWord(uint64(1) << uint(l))
		id, ok := x.topCorner(l)
		wantID, wantOK := probe[uint64, wordForm](x, lo, hi, nil)
		if id != wantID || ok != wantOK {
			t.Fatalf("after %s: level %d answers (%d, %v), the locked probe (%d, %v)", op, l, id, ok, wantID, wantOK)
		}
	}
}

// TestCornerWordsMatchProbe is the published table's model test: random
// single inserts (uniform, into the top corner, and onto held keys) and
// deletes (random entries, and published answers), bulk loads, boundary
// moves both ways, emptied slices and ids the words cannot encode; after
// every one, each slice's word at every level equals a locked probe of
// [lo(L), MAX] on its array. It runs below and at d·k = 64, where lo(0)
// is the all-ones key.
func TestCornerWordsMatchProbe(t *testing.T) {
	for _, cfg := range []Config{{Dims: 2, Bits: 8}, {Dims: 3, Bits: 7}, {Dims: 4, Bits: 16}, {Dims: 8, Bits: 8}} {
		t.Run(fmt.Sprintf("%dx%d", cfg.Dims, cfg.Bits), func(t *testing.T) {
			cornerModel(t, cfg)
		})
	}
}

func cornerModel(t *testing.T, cfg Config) {
	const slices = 6
	rng := rand.New(rand.NewSource(int64(cfg.Dims*100 + cfg.Bits)))
	x, err := NewSharded(cfg, slices)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ key, id uint64 }
	var live []entry
	nextID := uint64(0)
	randKey := func() uint64 {
		if rng.Intn(2) == 0 {
			return cornerKey(rng, x, cfg.Bits)
		}
		return cornerKey(rng, x, rng.Intn(cfg.Bits+1))
	}
	del := func(j int) {
		e := live[j]
		if !x.DeleteAt(x.LocateWord(e.key), e.id) {
			t.Fatalf("entry (%#x, %d) lost", e.key, e.id)
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	bulk := func(n int) {
		keys, ids := make([]uint64, n), make([]uint64, n)
		for i := range keys {
			keys[i], ids[i] = randKey(), nextID
			live = append(live, entry{keys[i], nextID})
			nextID++
		}
		x.ChooseBoundaries(keys)
		x.InsertKeys(keys, ids)
	}
	bulk(300)
	checkCorners(t, x, "the first load")
	var answerDeletes, emptied, leftward, rightward int
	for step := 0; step < 3000; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 30:
			op = "insert"
			key, id := randKey(), nextID
			if r < 10 && len(live) > 0 {
				op, key = "insert onto a held key", live[rng.Intn(len(live))].key
			}
			if step%500 == 250 {
				// ids the words cannot encode, in the top corner.
				op, key, id = "insert of an unencodable id", cornerKey(rng, x, rng.Intn(2)), cornerUnknown-uint64(rng.Intn(2))
			} else {
				nextID++
			}
			x.InsertAt(x.LocateWord(key), id)
			live = append(live, entry{key, id})
		case r < 55 && len(live) > 0:
			op = "delete"
			del(rng.Intn(len(live)))
		case r < 70:
			op = "delete of a published answer"
			s := &x.shards[rng.Intn(slices)]
			w := s.word(rng.Intn(cfg.Bits + 1)).Load()
			if w == cornerNone || w == cornerUnknown {
				continue
			}
			for j, e := range live {
				if e.id == w-1 {
					del(j)
					answerDeletes++
					break
				}
			}
		case r < 80:
			op = "bulk load"
			bulk(1 + rng.Intn(40))
		case r < 95:
			i := rng.Intn(slices - 1)
			before := x.Boundaries()[i+1]
			if x.EqualizePair(i) == 0 {
				continue
			}
			if after := x.Boundaries()[i+1]; before.Less(after) {
				op = "a move leftward"
				leftward++
			} else {
				op = "a move rightward"
				rightward++
			}
		default:
			op = "emptying a slice"
			s := rng.Intn(slices)
			n := 0
			for j := 0; j < len(live); {
				if x.LocateWord(live[j].key).Slice == s {
					del(j)
					n++
					continue
				}
				j++
			}
			if n > 0 {
				emptied++
			}
		}
		checkCorners(t, x, fmt.Sprintf("step %d, %s", step, op))
	}
	if answerDeletes == 0 || emptied == 0 || leftward == 0 || rightward == 0 {
		t.Fatalf("%d deletes of answers, %d slices emptied, %d moves leftward, %d rightward: the model needs them all",
			answerDeletes, emptied, leftward, rightward)
	}
	t.Logf("%d live; %d deletes of answers, %d slices emptied, %d moves leftward, %d rightward", len(live), answerDeletes, emptied, leftward, rightward)
}

// TestTopCornerDuringEqualizePair reads the published words the way a
// warm query does — topCorner, no lock — while a churner fills and drains
// the top corner and a mover equalizes adjacent slices, so boundaries sweep
// across the stable answers. The stable entries stay held throughout, so
// a level's answer at any instant is its stable answer or a churned entry
// of the level's cube ordered below it: never another stable entry, and
// never none. A reader that took a shedding slice's words, published
// before the table that moved its entries, would skip a moved answer for a
// later one. At quiescence every level and every query answers as the
// locked probe and the locked walk do. Meaningful under -race.
func TestTopCornerDuringEqualizePair(t *testing.T) {
	for _, cfg := range []Config{{Dims: 3, Bits: 8}, {Dims: 4, Bits: 16}} {
		t.Run(fmt.Sprintf("%dx%d", cfg.Dims, cfg.Bits), func(t *testing.T) {
			topCornerDuringEqualizePair(t, cfg)
		})
	}
}

// cornerAnswerFault reads level l's answer lock-free and says what is
// wrong with it, or "": it must be the level's first stable entry (key,
// id), held throughout, or a churned entry of the level's cube ordered
// below it; none only where no stable entry lies in the cube.
func cornerAnswerFault(x *ShardedIndex, l int, key, id uint64, held bool, churn []uint64, churnBase uint64) string {
	got, ok := x.topCorner(l)
	switch {
	case !ok && held:
		return fmt.Sprintf("level %d: no answer, while stable %d was held throughout", l, id)
	case !ok:
		return ""
	case got < churnBase:
		if !held || got != id {
			return fmt.Sprintf("level %d: stable entry %d answers, the level's first stable entry is %d (held %v)", l, got, id, held)
		}
		return ""
	}
	lo, _ := x.curve.TopCubeRangeWord(uint64(1) << uint(l))
	if k := churn[got-churnBase]; k < lo || held && (k > key || k == key && got > id) {
		return fmt.Sprintf("level %d: churned (%#x, %d) answers, outside [lo %#x, stable (%#x, %d))", l, k, got, lo, key, id)
	}
	return ""
}

func topCornerDuringEqualizePair(t *testing.T, cfg Config) {
	const churnBase = 1 << 40
	rng := rand.New(rand.NewSource(int64(cfg.Dims*100 + cfg.Bits)))
	x, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	levels := cfg.Bits + 1
	// The stable keys spread over the levels' cubes, so the slice
	// boundaries fall among the levels' first keys; the churned ones, many
	// times as many, fill the two smallest cubes, so that a burst in, then
	// out, swings every boundary up across those first keys — its slice
	// shedding them leftward — and back.
	keys, ids := make([]uint64, 400), make([]uint64, 400)
	for i := range keys {
		keys[i], ids[i] = cornerKey(rng, x, rng.Intn(levels)), uint64(i)
	}
	churn := make([]uint64, 3000)
	for i := range churn {
		churn[i] = cornerKey(rng, x, rng.Intn(2))
	}
	x.ChooseBoundaries(keys)
	x.InsertKeys(keys, ids)
	type answer struct {
		key, id uint64
		ok      bool
	}
	stable := make([]answer, levels)
	for l := range stable {
		lo, hi := x.curve.TopCubeRangeWord(uint64(1) << uint(l))
		id, ok := probe[uint64, wordForm](x, lo, hi, nil)
		stable[l] = answer{keys[id], id, ok}
	}
	queries := make([][]uint32, 400)
	for i := range queries {
		queries[i] = make([]uint32, cfg.Dims)
		side := uint32(1) << uint(rng.Intn(levels))
		for j := range queries[i] {
			queries[i][j] = uint32(1)<<uint(cfg.Bits) - side + uint32(rng.Int63n(int64(side)))
		}
	}

	stop := make(chan struct{})
	var background sync.WaitGroup
	var moves atomic.Int64
	background.Add(2)
	go func() { // boundary mover
		defer background.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if x.EqualizePair(i%(x.NumShards()-1)) > 0 {
					moves.Add(1)
				}
			}
		}
	}()
	go func() { // churner: the top corner in, then out
		defer background.Done()
		for {
			for i, key := range churn {
				x.InsertAt(x.LocateWord(key), churnBase+uint64(i))
			}
			for i, key := range churn {
				if !x.DeleteAt(x.LocateWord(key), churnBase+uint64(i)) {
					t.Errorf("churned entry %d lost", i)
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
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			// At least 2 000 rounds, and on until the boundaries have
			// moved 300 times or three seconds have passed. A reader
			// yields once a round: one that never did would hold its
			// thread for a whole time slice while the mover, preempted
			// inside a move, waited behind it.
			deadline := time.Now().Add(3 * time.Second)
			for round := 0; round < 2000 || moves.Load() < 300 && time.Now().Before(deadline); round++ {
				runtime.Gosched()
				for l := range stable {
					if msg := cornerAnswerFault(x, l, stable[l].key, stable[l].id, stable[l].ok, churn, churnBase); msg != "" {
						t.Error(msg)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	background.Wait()
	if moves.Load() == 0 {
		t.Fatal("no boundary moved while the readers ran")
	}
	checkCorners(t, x, "quiescence")
	for l, want := range stable {
		if id, ok := x.topCorner(l); id != want.id || ok != want.ok {
			t.Fatalf("quiescent level %d answers (%d, %v), stable (%d, %v)", l, id, ok, want.id, want.ok)
		}
	}
	for _, q := range queries {
		var st, walked Stats
		id, ok, err := x.QueryInto(q, 0.3, nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		wantID, wantOK, err := x.QueryInto(q, 0.3, &obs.QueryTrace{Op: "query"}, &walked)
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID || ok != wantOK || st != walked {
			t.Fatalf("quiescent q %v: (%d, %v) %+v, the locked walk (%d, %v) %+v", q, id, ok, st, wantID, wantOK, walked)
		}
	}
	t.Logf("%d boundary moves under the readers", moves.Load())
}
