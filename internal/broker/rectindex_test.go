package broker

import (
	"math/rand"
	"testing"

	"sfccover/internal/subscription"
)

// TestRectIndexMatchesModel holds the handle index to a map from
// rectangle to handle under random churn (re-inserts of held rectangles,
// deletes of random ones) and FIFO churn (the oldest retired as a new one
// arrives), with hashRect and with hashes that force rectangles to
// collide — into two homes, the first slot and the last, so probe runs
// wrap around the array. Handles are minted and freed as rectTable does,
// the most recently freed reused first. After every op each held
// rectangle finds its handle, a retired one finds none, and the index
// counts the model's size; at the end the slot count is the one the peak
// live count sizes, whatever the churn before.
func TestRectIndexMatchesModel(t *testing.T) {
	collide := func(r subscription.Rect) uint64 { return -uint64(r[1] & 1) }
	for _, tc := range []struct {
		name string
		hash func(subscription.Rect) uint64
		fifo bool
		live int // the live count churn holds around
		ops  int
	}{
		{"random", hashRect, false, 300, 6000},
		{"fifo", hashRect, true, 300, 6000},
		{"random-colliding", collide, false, 48, 3000},
		{"fifo-colliding", collide, true, 48, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			x := rectIndex{hash: tc.hash}
			var keys []subscription.Rect
			var free []handle
			model := map[subscription.Rect]handle{}
			var order []subscription.Rect // live rectangles, oldest first
			var retired []subscription.Rect
			peak := 0
			next := 0 // FIFO churn's next fresh rectangle
			fresh := func() subscription.Rect {
				if tc.fifo {
					next++
					return subscription.Rect{uint32(next), uint32(next >> 3), uint32(next % 7)}
				}
				return subscription.Rect{uint32(rng.Intn(2 * tc.live)), uint32(rng.Intn(4)), uint32(rng.Intn(3))}
			}
			insert := func(r subscription.Rect) {
				if h, ok := x.find(keys, r); ok {
					if want, held := model[r]; !held || h != want {
						t.Fatalf("%v found at handle %d, model (%d, %v)", r, h, want, held)
					}
					return
				}
				if _, held := model[r]; held {
					t.Fatalf("held %v not found", r)
				}
				var h handle
				if n := len(free); n > 0 {
					h, free = free[n-1], free[:n-1]
					keys[h] = r
				} else {
					h = handle(len(keys))
					keys = append(keys, r)
				}
				x.insert(keys, h)
				model[r] = h
				order = append(order, r)
				peak = max(peak, len(model))
			}
			remove := func(i int) {
				r := order[i]
				order = append(order[:i], order[i+1:]...)
				h := model[r]
				x.remove(keys, h)
				delete(model, r)
				free = append(free, h)
				retired = append(retired, r)
			}
			for op := range tc.ops {
				switch {
				case tc.fifo && len(order) < tc.live:
					insert(fresh())
				case tc.fifo:
					remove(0)
					insert(fresh())
				case len(order) > 0 && rng.Intn(2*tc.live) < len(order):
					remove(rng.Intn(len(order)))
				default:
					insert(fresh())
				}
				if x.used != len(model) {
					t.Fatalf("op %d: index counts %d, model holds %d", op, x.used, len(model))
				}
				for r, want := range model {
					if h, ok := x.find(keys, r); !ok || h != want {
						t.Fatalf("op %d: %v finds (%d, %v), want handle %d", op, r, h, ok, want)
					}
				}
				for _, r := range retired[max(0, len(retired)-8):] {
					if _, held := model[r]; !held {
						if h, ok := x.find(keys, r); ok {
							t.Fatalf("op %d: retired %v finds handle %d", op, r, h)
						}
					}
				}
			}
			want := 8
			for 4*peak > 3*want {
				want *= 2
			}
			if len(x.slots) != want {
				t.Fatalf("%d slots after churn at a peak of %d live, want %d", len(x.slots), peak, want)
			}
			if len(retired) < tc.ops/3 {
				t.Fatalf("only %d retirements in %d ops", len(retired), tc.ops)
			}
		})
	}
}
