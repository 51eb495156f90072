package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sfccover/internal/sfc"
	"sfccover/internal/subscription"
)

// TestListingSortsEveryForm captures held sets of rectangles and held sets
// of one-word keys, the second on an engine's curve, and holds every read —
// two at once, then one more after an iteration cut short — to the same
// ids in ascending order with the same rectangles: across several tables,
// with id 0 (held beside a table's array) and ids that differ in every
// byte.
func TestListingSortsEveryForm(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	curve, err := sfc.NewZ(sfc.Config{Dims: schema.Dims(), Bits: schema.Bits()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	want := map[uint64]subscription.Rect{}
	rects, words := make([]HeldSet, 3), make([]HeldSet, 3)
	for i := range rects {
		rects[i], words[i] = NewHeldSet(schema, nil), NewHeldSet(schema, curve)
	}
	put := func(id uint64, s *subscription.Subscription) {
		want[id] = s.Rect()
		k := int(id % 3)
		rects[k].Hold(id, 0, s.Rect())
		words[k].Hold(id, curve.KeyWord(s.Point()), subscription.Rect{})
	}
	for i := 0; i < 5000; i++ {
		v, p := rng.Intn(1000), rng.Intn(1000)
		s := subscription.MustParse(schema, fmt.Sprintf("volume in [%d,%d] && price in [%d,%d]", v, v+rng.Intn(24), p, p+rng.Intn(24)))
		id := rng.Uint64() >> uint(rng.Intn(64))
		if i == 0 {
			id = 0
		}
		put(id, s)
	}
	ids := make([]uint64, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if ids[0] != 0 {
		t.Fatalf("the fixture holds no id 0")
	}

	byRect, byWord := NewListing(0), NewListing(len(ids))
	for i := range rects {
		rects[i].CopyTo(byRect)
		words[i].CopyTo(byWord)
	}
	empty := NewHeldSet(schema, nil)
	empty.CopyTo(byWord) // an empty set adds nothing
	for name, l := range map[string]*Listing{"rectangles": byRect, "words": byWord} {
		if l.Len() != len(ids) {
			t.Fatalf("%s: Len = %d, want %d", name, l.Len(), len(ids))
		}
		// Two reads at once, then a third: the first read sorts.
		reads := make([][]Held, 3)
		var wg sync.WaitGroup
		for r := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reads[r] = l.Held()
			}()
		}
		wg.Wait()
		reads[2] = l.Held()
		for read, held := range reads {
			if len(held) != len(ids) {
				t.Fatalf("%s: read %d lists %d, want %d", name, read, len(held), len(ids))
			}
			for i, h := range held {
				if h.ID != ids[i] || h.Rect != want[h.ID] {
					t.Fatalf("%s: read %d entry %d is id %d, want id %d with its rectangle", name, read, i, h.ID, ids[i])
				}
			}
		}
		n := 0
		for range l.All() {
			if n++; n == 3 {
				break
			}
		}
	}
	// The sets changing after the capture change no listing.
	var buf [2 * subscription.MaxAttrs]uint32
	for i := range rects {
		for id := range want {
			rects[i].Release(id, buf[:])
			words[i].Release(id, buf[:])
		}
	}
	if byRect.Len() != len(ids) || len(byWord.Held()) != len(ids) {
		t.Fatalf("a listing changed with the sets it was copied from")
	}
}

// BenchmarkWordRect times the decode of one held one-word key into its
// rectangle at d 4 × k 10, the default engine's universe: what a
// snapshot and a listing's read pay per subscription. One op is one key.
func BenchmarkWordRect(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	curve, err := sfc.NewZ(sfc.Config{Dims: schema.Dims(), Bits: schema.Bits()})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1024)
	for i := range keys {
		s := subscription.New(schema)
		for _, attr := range schema.Attrs() {
			lo, hi := uint32(rng.Intn(1024)), uint32(rng.Intn(1024))
			if err := s.SetRange(attr, min(lo, hi), max(lo, hi)); err != nil {
				b.Fatal(err)
			}
		}
		keys[i] = curve.KeyWord(s.Point())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordRectSink = WordRect(schema, curve, keys[i%len(keys)])
	}
}

// wordRectSink keeps BenchmarkWordRect's decode from being optimized away.
var wordRectSink subscription.Rect
