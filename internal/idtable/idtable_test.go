package idtable

import (
	"math/rand"
	"testing"
)

// slotsFor is the slot count a table must have after holding at most peak
// nonzero ids at once: the smallest power of two, from minSlots, at most
// 3/4 full at the peak.
func slotsFor(peak int) int {
	if peak == 0 {
		return 0
	}
	n := minSlots
	for 4*peak > 3*n {
		n *= 2
	}
	return n
}

// modelKeys is the key range the model tests draw from: id 0, small ids,
// and ids whose home is the last slot at every size up to 64 slots, so
// their run wraps past the end of the array to slot 0.
func modelKeys() []uint64 {
	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for k := uint64(13); len(keys) < 24; k++ {
		if (k*0x9e3779b97f4a7c15)>>58 == 63 {
			keys = append(keys, k)
		}
	}
	return keys
}

// runModel applies ops to a Table and to a map and compares them after
// every op: Len, Get on every key in keys, All, and the slot count the
// peak live count dictates. Each op byte picks a key by its high bits and
// Put (0, 1), Delete (2) or a lone Get (3) by its low two.
func runModel(t *testing.T, keys []uint64, ops []byte) {
	t.Helper()
	var tb Table[int]
	model := map[uint64]int{}
	peak := 0
	for n, op := range ops {
		key := keys[int(op>>2)%len(keys)]
		switch op & 3 {
		case 0, 1:
			tb.Put(key, n)
			model[key] = n
		case 2:
			v, ok := tb.Delete(key)
			want, wantOK := model[key]
			if ok != wantOK || v != want {
				t.Fatalf("op %d: Delete(%d) = %d, %v, want %d, %v", n, key, v, ok, want, wantOK)
			}
			delete(model, key)
		}
		used := len(model)
		if _, ok := model[0]; ok {
			used--
		}
		peak = max(peak, used)
		if got := tb.Len(); got != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", n, got, len(model))
		}
		if got, want := len(tb.slots), slotsFor(peak); got != want {
			t.Fatalf("op %d: %d slots after a peak of %d ids, want %d", n, got, peak, want)
		}
		for _, k := range keys {
			v, ok := tb.Get(k)
			want, wantOK := model[k]
			if ok != wantOK || v != want {
				t.Fatalf("op %d: Get(%d) = %d, %v, want %d, %v", n, k, v, ok, want, wantOK)
			}
		}
		seen := map[uint64]bool{}
		for k, v := range tb.All() {
			if want, ok := model[k]; !ok || v != want || seen[k] {
				t.Fatalf("op %d: All yields %d -> %d (held %v, want %d, seen before %v)", n, k, v, ok, want, seen[k])
			}
			seen[k] = true
		}
		if len(seen) != len(model) {
			t.Fatalf("op %d: All yields %d ids, want %d", n, len(seen), len(model))
		}
	}
}

// TestTableMatchesMap holds the table to a Go map over a seeded op stream
// on a key range small enough that puts, overwrites and deletes of held
// ids, id 0 and runs that wrap past the array's end all recur.
func TestTableMatchesMap(t *testing.T) {
	var nilTable *Table[int]
	if _, ok := nilTable.Get(1); ok || nilTable.Len() != 0 {
		t.Fatal("a nil table reads as non-empty")
	}
	for range nilTable.All() {
		t.Fatal("a nil table yields an id")
	}
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 20000)
	rng.Read(ops)
	runModel(t, modelKeys(), ops)
}

// FuzzTable is TestTableMatchesMap with the op stream from the fuzzer.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 6, 10})
	f.Add([]byte{0x34, 0x38, 0x3c, 0x40, 0x44, 0x36, 0x3a, 0x3e, 0x42, 0x46})
	grow := make([]byte, 0, 80)
	for k := byte(0); k < 24; k++ {
		grow = append(grow, k<<2)
	}
	for k := byte(0); k < 24; k += 3 {
		grow = append(grow, k<<2|2)
	}
	f.Add(grow)
	keys := modelKeys()
	f.Fuzz(func(t *testing.T, ops []byte) {
		runModel(t, keys, ops)
	})
}

// TestFIFOChurnKeepsCapacity retires the oldest id as each new one arrives
// at 20 480 live ids — one engine stripe's ids, local*8 + 3 — for a million
// ops. The slot count must stay what the peak alone dictates, and the
// live ids must sit near their homes: a hash that read the low bits would
// put all of them on an eighth of the slots.
func TestFIFOChurnKeepsCapacity(t *testing.T) {
	const live, ops = 20480, 1 << 20
	id := func(local int) uint64 { return uint64(local)*8 + 3 }
	var tb Table[int]
	for i := 0; i < live; i++ {
		tb.Put(id(i), i)
	}
	want := slotsFor(live)
	for i := live; i < live+ops/2; i++ {
		old := i - live
		if v, ok := tb.Delete(id(old)); !ok || v != old {
			t.Fatalf("Delete(%d) = %d, %v, want %d, true", id(old), v, ok, old)
		}
		tb.Put(id(i), i)
	}
	if got := len(tb.slots); got != want {
		t.Fatalf("%d slots after FIFO churn at %d live ids, want %d", got, live, want)
	}
	if tb.Len() != live {
		t.Fatalf("Len = %d, want %d", tb.Len(), live)
	}
	mask, probes := len(tb.slots)-1, 0
	for i, s := range tb.slots {
		if s.ID != 0 {
			probes += (i-tb.home(s.ID))&mask + 1
		}
	}
	if mean := float64(probes) / live; mean > 2.5 {
		t.Fatalf("a live id takes %.2f probes on average, want ≤ 2.5", mean)
	}
}

// BenchmarkTableChurn times one FIFO churn step — insert a new id, look it
// up, delete the oldest — at 20 480 live ids of one engine stripe, on the
// table and on the Go map it replaced.
func BenchmarkTableChurn(b *testing.B) {
	const live = 20480
	id := func(local int) uint64 { return uint64(local)*8 + 3 }
	b.Run("idtable", func(b *testing.B) {
		var tb Table[*int]
		v := new(int)
		for i := 0; i < live; i++ {
			tb.Put(id(i), v)
		}
		b.ResetTimer()
		for i := live; i < live+b.N; i++ {
			tb.Put(id(i), v)
			if _, ok := tb.Get(id(i)); !ok {
				b.Fatal("lost an id")
			}
			tb.Delete(id(i - live))
		}
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[uint64]*int)
		v := new(int)
		for i := 0; i < live; i++ {
			m[id(i)] = v
		}
		b.ResetTimer()
		for i := live; i < live+b.N; i++ {
			m[id(i)] = v
			if _, ok := m[id(i)]; !ok {
				b.Fatal("lost an id")
			}
			delete(m, id(i-live))
		}
	})
}

// TestGrowReservesOnce: a table grown for n more ids takes n new ids
// without re-placing any, and reads the same as one that grew by doubling —
// Len, Get and Delete, on a table that held ids before the reserve too.
func TestGrowReservesOnce(t *testing.T) {
	for _, before := range []int{0, 5, 100} {
		for _, n := range []int{1, 6, 7, 2048, 3000} {
			var grown, doubled Table[int]
			for i := 0; i < before; i++ {
				grown.Put(uint64(i)*8+3, i)
				doubled.Put(uint64(i)*8+3, i)
			}
			grown.Grow(n)
			slots := len(grown.slots)
			if want := slotsFor(before + n); slots != want {
				t.Fatalf("before %d, Grow(%d): %d slots, want %d", before, n, slots, want)
			}
			for i := before; i < before+n; i++ {
				grown.Put(uint64(i)*8+3, i)
				doubled.Put(uint64(i)*8+3, i)
			}
			if len(grown.slots) != slots {
				t.Fatalf("before %d, Grow(%d): %d puts grew the table from %d to %d slots", before, n, n, slots, len(grown.slots))
			}
			if grown.Len() != doubled.Len() {
				t.Fatalf("before %d, Grow(%d): Len %d, want %d", before, n, grown.Len(), doubled.Len())
			}
			for i := 0; i < before+n+8; i++ {
				id := uint64(i)*8 + 3
				v, ok := grown.Get(id)
				w, wok := doubled.Get(id)
				if v != w || ok != wok {
					t.Fatalf("before %d, Grow(%d): Get(%d) = %d, %v, want %d, %v", before, n, id, v, ok, w, wok)
				}
			}
			for i := 0; i < before+n+8; i += 3 {
				id := uint64(i)*8 + 3
				v, ok := grown.Delete(id)
				w, wok := doubled.Delete(id)
				if v != w || ok != wok {
					t.Fatalf("before %d, Grow(%d): Delete(%d) = %d, %v, want %d, %v", before, n, id, v, ok, w, wok)
				}
			}
			if grown.Len() != doubled.Len() {
				t.Fatalf("before %d, Grow(%d): Len %d after deletes, want %d", before, n, grown.Len(), doubled.Len())
			}
			grown.Grow(0)
			if len(grown.slots) != slots {
				t.Fatalf("Grow(0) resized a table holding fewer ids than it reserved")
			}
		}
	}
}
