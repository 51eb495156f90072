package dominance

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sfccover/internal/bits"
	"sfccover/internal/sfc"
	"sfccover/internal/sfcarray"
)

// modelEntry is one stored (key, id) of the model walk's sorted slice.
type modelEntry struct {
	key bits.Key
	id  uint64
}

// modelWalk is the walk spelled out over a sorted slice and the curve's
// own NextInExtremal, in Keys throughout — what both key forms of the
// real one must reproduce seek for seek: the top cube's range first when
// topFirst, then seek, test, jump from the region's first key.
func modelWalk(curve *sfc.ZCurve, entries []modelEntry, q []uint32, topFirst bool) (id uint64, found bool, steps int) {
	seek := func(lo bits.Key) int {
		return sort.Search(len(entries), func(i int) bool { return entries[i].key.Cmp(lo) >= 0 })
	}
	if topFirst {
		minLen := uint64(1) << uint(curve.Bits())
		for _, x := range q {
			minLen = min(minLen, uint64(1)<<uint(curve.Bits())-uint64(x))
		}
		side := uint64(1) << uint(bits.B(minLen)-1)
		corner := make([]uint32, len(q))
		for i := range corner {
			corner[i] = uint32(uint64(1)<<uint(curve.Bits()) - side)
		}
		top := sfc.CubeRange(curve, corner, side)
		steps++
		if i := seek(top.Lo); i < len(entries) && entries[i].key.Cmp(top.Hi) <= 0 {
			return entries[i].id, true, steps
		}
	}
	cursor, inRegion := curve.NextInExtremal(q, bits.Key{})
	for inRegion {
		steps++
		i := seek(cursor)
		if i == len(entries) {
			break
		}
		key := entries[i].key
		if key != cursor {
			if cursor, inRegion = curve.NextInExtremal(q, key); !inRegion || cursor != key {
				continue
			}
		}
		return entries[i].id, true, steps
	}
	return 0, false, steps
}

// TestWalkMatchesModelWalk holds the walk's two key forms to one
// function: on the single array and across 1 and 16 slices, before and
// after every pair of slices has been equalized, each query returns the
// model walk's id and found by the model walk's cut, in at most the model
// walk's number of steps — at key widths on both sides of the word (16,
// 40, 63 and 64 bits run on words, 64 being where the past-the-universe
// shift must be skipped; 65, 66, 80 and 128 on Keys). The model seeks
// every stored key; the arrays pass leaves whose summaries rule out a
// dominator, which only keys of one word keep, so there the walk must
// take fewer steps in all and elsewhere exactly as many.
func TestWalkMatchesModelWalk(t *testing.T) {
	for _, tc := range []struct{ dims, bits int }{
		{4, 10}, {7, 9}, {4, 16}, {8, 8}, {2, 8}, // words
		{5, 13}, {8, 10}, {8, 16}, {3, 22}, // Keys
	} {
		t.Run(fmt.Sprintf("z-%dx%d", tc.dims, tc.bits), func(t *testing.T) {
			cfg := Config{Dims: tc.dims, Bits: tc.bits}
			if got, want := cfg.WordKeys(), tc.dims*tc.bits <= 64; got != want {
				t.Fatalf("WordKeys() = %v at %d bits", got, tc.dims*tc.bits)
			}
			rng := rand.New(rand.NewSource(int64(251 + tc.dims*tc.bits)))
			// Half the points crowd the low corner, so the slices start
			// uneven and EqualizePair has entries to move; two ids a cell.
			pts := randomPoints(rng, 400, tc.dims, tc.bits)
			for _, p := range randomPoints(rng, 400, tc.dims, tc.bits) {
				for j := range p {
					p[j] >>= 3
				}
				pts = append(pts, p)
			}
			single := MustIndex(cfg)
			sharded := map[int]*ShardedIndex{}
			for _, n := range []int{1, 16} {
				x, err := NewSharded(cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				sharded[n] = x
			}
			entries := make([]modelEntry, 0, 2*len(pts))
			for i, p := range pts {
				for _, id := range []uint64{uint64(2*len(pts) - i), uint64(i)} {
					single.Insert(p, id)
					for _, x := range sharded {
						x.Insert(p, id)
					}
					entries = append(entries, modelEntry{single.curve.Key(p), id})
				}
			}
			sort.Slice(entries, func(a, b int) bool {
				return sfcarray.EntryLess(entries[a].key, entries[a].id, entries[b].key, entries[b].id)
			})
			// Queries at every scale: shrunken toward the origin they hit,
			// pushed toward the max corner they miss.
			queries := randomPoints(rng, 150, tc.dims, tc.bits)
			for i, q := range queries {
				for j := range q {
					if q[j] >>= uint(i % 5); i%2 == 0 {
						q[j] = 1<<uint(tc.bits) - 1 - q[j]
					}
				}
			}
			pruned := cfg.WordKeys()
			hits, misses, longest := 0, 0, 0
			check := func(name string, query func([]uint32, float64) (uint64, bool, Stats, error)) {
				t.Helper()
				steps, modelSteps := 0, 0
				for _, q := range queries {
					for _, eps := range []float64{0, 0.3} {
						wantID, want, wantSteps := modelWalk(single.curve, entries, q, eps > 0)
						id, ok, st, err := query(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						if ok != want || id != wantID || st.WalkSteps > wantSteps || st.RunsProbed != st.WalkSteps || st.Path != PathWalk || st.Found != want {
							t.Fatalf("%s q=%v eps=%g: (%d,%v) %+v, model walk (%d,%v) in %d steps", name, q, eps, id, ok, st, wantID, want, wantSteps)
						}
						if ok {
							hits++
						} else {
							misses++
						}
						longest = max(longest, wantSteps)
						steps, modelSteps = steps+st.WalkSteps, modelSteps+wantSteps
					}
				}
				if pruned && steps >= modelSteps || !pruned && steps != modelSteps {
					t.Fatalf("%s: %d steps in all, the model walk %d; summaries on: %v", name, steps, modelSteps, pruned)
				}
			}
			check("Index", single.Query)
			for n, x := range sharded {
				check(fmt.Sprintf("ShardedIndex/%d", n), x.Query)
			}
			migrated := 0
			for round := 0; round < 4; round++ {
				for i := 0; i < 15; i++ {
					migrated += sharded[16].EqualizePair(i)
				}
			}
			if migrated == 0 {
				t.Fatal("EqualizePair moved nothing: the second pass would repeat the first")
			}
			check("ShardedIndex/16 equalized", sharded[16].Query)
			if sharded[1].EqualizePair(0) != 0 {
				t.Fatal("a single slice has no pair to equalize")
			}
			if hits == 0 || misses == 0 || longest < 5 {
				t.Fatalf("queries too uniform to tell the forms apart: %d hits, %d misses, longest walk %d steps", hits, misses, longest)
			}
		})
	}
}

// TestWordRouteMatchesRouteKey holds the one-word route, which reads each
// boundary's low word, to routeKey over the table's keys: on tables with
// runs of equal starts (slices that own nothing) at the bottom, inside and
// at the top of the word, on one slice, and on random tables drawn from
// few values, for keys at, just below and just above every boundary.
func TestWordRouteMatchesRouteKey(t *testing.T) {
	tables := [][]uint64{
		{0},
		{0, 0, 0, 0},
		{0, 0, 5, 5, 5, 9, 9, 9},
		{0, 100, 100, 100, 200, 300, 300, 400},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 1 << 40, 1 << 40, ^uint64(0), ^uint64(0)},
	}
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 64; i++ {
		words := make([]uint64, 1+rng.Intn(12))
		for j := 1; j < len(words); j++ {
			words[j] = uint64(rng.Intn(6)) << uint(rng.Intn(60))
		}
		slices.Sort(words)
		tables = append(tables, words)
	}
	for _, words := range tables {
		starts := make([]bits.Key, len(words))
		for i, w := range words {
			starts[i] = bits.KeyFromUint64(w)
		}
		for _, w := range words {
			for _, k := range []uint64{w - 1, w, w + 1} {
				want := routeKey(starts, bits.KeyFromUint64(k))
				if got := (wordForm{}).route(starts, k); got != want {
					t.Fatalf("table %v, key %#x: word route %d, routeKey %d", words, k, got, want)
				}
			}
		}
	}
}
