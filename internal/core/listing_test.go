package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sfccover/internal/idtable"
	"sfccover/internal/sfc"
	"sfccover/internal/subscription"
)

// TestListingSortsEveryForm captures tables of rectangles and tables of
// one-word keys, the second on an engine's curve, and holds every read —
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
	rects := make([]*idtable.Table[subscription.Rect], 3)
	words := make([]*idtable.Table[uint64], 3)
	for i := range rects {
		rects[i], words[i] = new(idtable.Table[subscription.Rect]), new(idtable.Table[uint64])
	}
	put := func(id uint64, s *subscription.Subscription) {
		want[id] = s.Rect()
		k := int(id % 3)
		rects[k].Put(id, s.Rect())
		words[k].Put(id, curve.KeyWord(s.Point()))
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

	byRect, byWord := NewListing(nil, nil, 0), NewListing(schema, curve, len(ids))
	for i := range rects {
		byRect.CopyRects(rects[i])
		byWord.CopyWords(words[i])
	}
	byWord.CopyRects(new(idtable.Table[subscription.Rect])) // an empty table adds nothing
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
	// The tables changing after the capture change no listing.
	for i := range rects {
		for id := range want {
			rects[i].Delete(id)
			words[i].Delete(id)
		}
	}
	if byRect.Len() != len(ids) || len(byWord.Held()) != len(ids) {
		t.Fatalf("a listing changed with the tables it was copied from")
	}
}
