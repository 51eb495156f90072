package sfcarray

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sfccover/internal/bits"
)

// refModel is a trivially correct reference implementation used to validate
// the blocked array under random operation sequences.
type refModel struct {
	entries []refEntry
}

type refEntry struct {
	key bits.Key
	id  uint64
}

func (m *refModel) Insert(k bits.Key, id uint64) {
	i := sort.Search(len(m.entries), func(i int) bool { return EntryLess(k, id, m.entries[i].key, m.entries[i].id) })
	m.entries = slices.Insert(m.entries, i, refEntry{k, id})
}

func (m *refModel) Delete(k bits.Key, id uint64) bool {
	for i, e := range m.entries {
		if e.key.Equal(k) && e.id == id {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			return true
		}
	}
	return false
}

func (m *refModel) FirstInRange(lo, hi bits.Key) (uint64, bool) {
	for _, e := range m.entries {
		if e.key.Cmp(lo) >= 0 {
			if e.key.Cmp(hi) <= 0 {
				return e.id, true
			}
			return 0, false
		}
	}
	return 0, false
}

func (m *refModel) VisitRange(lo, hi bits.Key, visit func(bits.Key, uint64) bool) {
	for _, e := range m.entries {
		if e.key.Cmp(lo) >= 0 && e.key.Cmp(hi) <= 0 {
			if !visit(e.key, e.id) {
				return
			}
		}
	}
}

func (m *refModel) Len() int { return len(m.entries) }

// newArray builds an empty array under one of the two names the
// conformance tests have always iterated: the names of the structures the
// blocked array replaced, which New still accepts. So that the second pass
// over every test is not a repeat of the first, "skiplist" starts at the
// full KeyWords stride (a wide key inserted and deleted again) where
// "treap" starts at the stride its keys need.
func newArray(t *testing.T, name string) *Index {
	t.Helper()
	idx, err := New(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if name == "skiplist" {
		wide := bits.LowMask(bits.KeyBits)
		idx.Insert(wide, 0)
		if !idx.Delete(wide, 0) || idx.Len() != 0 || idx.w != bits.KeyWords {
			t.Fatalf("widening to %d words left Len %d, stride %d", bits.KeyWords, idx.Len(), idx.w)
		}
	}
	return &idx
}

func implementations(t *testing.T) map[string]*Index {
	t.Helper()
	return map[string]*Index{"treap": newArray(t, "treap"), "skiplist": newArray(t, "skiplist")}
}

func TestNewUnknownImpl(t *testing.T) {
	if _, err := New("btree", 1); err == nil {
		t.Fatal("unknown implementation must fail")
	}
}

func TestBasicInsertFind(t *testing.T) {
	for name, idx := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			k := func(v uint64) bits.Key { return bits.KeyFromUint64(v) }
			idx.Insert(k(10), 1)
			idx.Insert(k(20), 2)
			idx.Insert(k(30), 3)
			if idx.Len() != 3 {
				t.Fatalf("Len = %d", idx.Len())
			}
			if id, ok := idx.FirstInRange(k(15), k(25)); !ok || id != 2 {
				t.Fatalf("FirstInRange(15,25) = %d,%v", id, ok)
			}
			if _, ok := idx.FirstInRange(k(21), k(29)); ok {
				t.Fatal("empty range reported non-empty")
			}
			if id, ok := idx.FirstInRange(k(0), k(100)); !ok || id != 1 {
				t.Fatalf("FirstInRange(0,100) = %d,%v; want smallest key's id", id, ok)
			}
			if !idx.Delete(k(20), 2) {
				t.Fatal("delete existing failed")
			}
			if idx.Delete(k(20), 2) {
				t.Fatal("double delete succeeded")
			}
			if _, ok := idx.FirstInRange(k(15), k(25)); ok {
				t.Fatal("deleted entry still found")
			}
		})
	}
}

func TestDuplicateKeysDistinctIDs(t *testing.T) {
	for name, idx := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			k := bits.KeyFromUint64(42)
			idx.Insert(k, 7)
			idx.Insert(k, 3)
			idx.Insert(k, 9)
			if id, ok := idx.FirstInRange(k, k); !ok || id != 3 {
				t.Fatalf("FirstInRange on duplicates = %d,%v; want smallest id 3", id, ok)
			}
			if !idx.Delete(k, 3) {
				t.Fatal("delete by id failed")
			}
			if id, ok := idx.FirstInRange(k, k); !ok || id != 7 {
				t.Fatalf("after delete: %d,%v; want 7", id, ok)
			}
			if idx.Len() != 2 {
				t.Fatalf("Len = %d, want 2", idx.Len())
			}
		})
	}
}

func TestRandomOpsAgainstReference(t *testing.T) {
	for name := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			idx := newArray(t, name)
			ref := &refModel{}
			rng := rand.New(rand.NewSource(123))
			var live []refEntry
			for op := 0; op < 3000; op++ {
				switch {
				case len(live) == 0 || rng.Float64() < 0.5:
					k := bits.KeyFromUint64(uint64(rng.Intn(500)))
					id := uint64(rng.Intn(100))
					idx.Insert(k, id)
					ref.Insert(k, id)
					live = append(live, refEntry{k, id})
				case rng.Float64() < 0.6:
					i := rng.Intn(len(live))
					e := live[i]
					got := idx.Delete(e.key, e.id)
					want := ref.Delete(e.key, e.id)
					if got != want {
						t.Fatalf("op %d: Delete mismatch got=%v want=%v", op, got, want)
					}
					live = append(live[:i], live[i+1:]...)
				default:
					// Delete of a likely-absent entry.
					k := bits.KeyFromUint64(uint64(rng.Intn(500)))
					id := uint64(rng.Intn(100))
					got := idx.Delete(k, id)
					want := ref.Delete(k, id)
					if got != want {
						t.Fatalf("op %d: absent Delete mismatch got=%v want=%v", op, got, want)
					}
					if want {
						for i, e := range live {
							if e.key.Equal(k) && e.id == id {
								live = append(live[:i], live[i+1:]...)
								break
							}
						}
					}
				}
				if idx.Len() != ref.Len() {
					t.Fatalf("op %d: Len mismatch %d vs %d", op, idx.Len(), ref.Len())
				}
				// Random range queries after each op.
				lo := uint64(rng.Intn(500))
				hi := lo + uint64(rng.Intn(100))
				kLo, kHi := bits.KeyFromUint64(lo), bits.KeyFromUint64(hi)
				gotID, gotOK := idx.FirstInRange(kLo, kHi)
				wantID, wantOK := ref.FirstInRange(kLo, kHi)
				if gotOK != wantOK || (gotOK && gotID != wantID) {
					t.Fatalf("op %d: FirstInRange(%d,%d) = (%d,%v), want (%d,%v)",
						op, lo, hi, gotID, gotOK, wantID, wantOK)
				}
			}
		})
	}
}

// dump collects the full (key, id) sequence of an index in visit order.
func dump(idx *Index) []refEntry {
	var out []refEntry
	idx.VisitRange(bits.Key{}, bits.LowMask(bits.KeyBits), func(k bits.Key, id uint64) bool {
		out = append(out, refEntry{k, id})
		return true
	})
	return out
}

func TestInsertSortedMatchesReference(t *testing.T) {
	for name := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			idx := newArray(t, name)
			ref := &refModel{}
			rng := rand.New(rand.NewSource(5))
			// Warm structure: random item-by-item inserts first, so the
			// sorted batches below merge into existing content.
			for i := 0; i < 300; i++ {
				k := bits.KeyFromUint64(uint64(rng.Intn(1000)))
				id := uint64(i)
				idx.Insert(k, id)
				ref.Insert(k, id)
			}
			// Several sorted batches: interleaved keys, duplicates of both
			// keys and (key, id) pairs already present.
			for batch := 0; batch < 5; batch++ {
				n := 100 + rng.Intn(200)
				entries := make([]refEntry, n)
				for i := range entries {
					entries[i] = refEntry{bits.KeyFromUint64(uint64(rng.Intn(1000))), uint64(rng.Intn(400))}
				}
				sort.Slice(entries, func(i, j int) bool {
					return EntryLess(entries[i].key, entries[i].id, entries[j].key, entries[j].id)
				})
				keys := make([]bits.Key, n)
				ids := make([]uint64, n)
				for i, e := range entries {
					keys[i], ids[i] = e.key, e.id
					ref.Insert(e.key, e.id)
				}
				idx.InsertSorted(keys, ids)
				if idx.Len() != ref.Len() {
					t.Fatalf("batch %d: Len = %d, want %d", batch, idx.Len(), ref.Len())
				}
			}
			got, want := dump(idx), ref.entries
			if len(got) != len(want) {
				t.Fatalf("dump has %d entries, want %d", len(got), len(want))
			}
			for i := range got {
				if !got[i].key.Equal(want[i].key) || got[i].id != want[i].id {
					t.Fatalf("entry %d: got %v, want %v", i, got[i], want[i])
				}
			}
			// The merged structure must still answer range probes and
			// support deletion of batch-loaded entries.
			if !idx.Delete(want[0].key, want[0].id) {
				t.Fatal("cannot delete a bulk-loaded entry")
			}
		})
	}
}

func TestInsertSortedColdBuild(t *testing.T) {
	for name := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			idx := newArray(t, name)
			idx.InsertSorted(nil, nil) // empty batch is a no-op
			n := 5000
			keys := make([]bits.Key, n)
			ids := make([]uint64, n)
			for i := 0; i < n; i++ {
				keys[i] = bits.KeyFromUint64(uint64(i * 3))
				ids[i] = uint64(i)
			}
			idx.InsertSorted(keys, ids)
			if idx.Len() != n {
				t.Fatalf("Len = %d, want %d", idx.Len(), n)
			}
			// Cold-built structures must stay efficiently searchable: probe
			// every 97th key and a few misses.
			for i := 0; i < n; i += 97 {
				if id, ok := idx.FirstInRange(keys[i], keys[i]); !ok || id != ids[i] {
					t.Fatalf("FirstInRange(key %d) = %d,%v", i, id, ok)
				}
			}
			if _, ok := idx.FirstInRange(bits.KeyFromUint64(1), bits.KeyFromUint64(2)); ok {
				t.Fatal("found an entry between the stride")
			}
		})
	}
}

func TestVisitRangeOrderAndEarlyStop(t *testing.T) {
	for name, idx := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			inserted := make([]refEntry, 0, 200)
			for i := 0; i < 200; i++ {
				k := bits.KeyFromUint64(uint64(rng.Intn(100)))
				id := uint64(i)
				idx.Insert(k, id)
				inserted = append(inserted, refEntry{k, id})
			}
			sort.Slice(inserted, func(i, j int) bool {
				return EntryLess(inserted[i].key, inserted[i].id, inserted[j].key, inserted[j].id)
			})
			lo, hi := bits.KeyFromUint64(20), bits.KeyFromUint64(60)
			var want []refEntry
			for _, e := range inserted {
				if e.key.Cmp(lo) >= 0 && e.key.Cmp(hi) <= 0 {
					want = append(want, e)
				}
			}
			var got []refEntry
			idx.VisitRange(lo, hi, func(k bits.Key, id uint64) bool {
				got = append(got, refEntry{k, id})
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("visited %d entries, want %d", len(got), len(want))
			}
			for i := range got {
				if !got[i].key.Equal(want[i].key) || got[i].id != want[i].id {
					t.Fatalf("entry %d: got %v want %v", i, got[i], want[i])
				}
			}
			// Early stop: visit only 3.
			count := 0
			idx.VisitRange(lo, hi, func(bits.Key, uint64) bool {
				count++
				return count < 3
			})
			if count != 3 {
				t.Fatalf("early stop visited %d, want 3", count)
			}
		})
	}
}

func TestEmptyIndexQueries(t *testing.T) {
	for name, idx := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if idx.Len() != 0 {
				t.Fatal("new index not empty")
			}
			if _, ok := idx.FirstInRange(bits.KeyFromUint64(0), bits.KeyFromUint64(100)); ok {
				t.Fatal("empty index found something")
			}
			if idx.Delete(bits.KeyFromUint64(5), 1) {
				t.Fatal("delete on empty succeeded")
			}
			visited := false
			idx.VisitRange(bits.KeyFromUint64(0), bits.KeyFromUint64(100), func(bits.Key, uint64) bool {
				visited = true
				return true
			})
			if visited {
				t.Fatal("VisitRange on empty index visited entries")
			}
		})
	}
}

func TestWideKeysBeyond64Bits(t *testing.T) {
	// Keys wider than one word must order correctly.
	for name, idx := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			var hiKey bits.Key
			hiKey = hiKey.SetBit(200, 1)
			loKey := bits.KeyFromUint64(^uint64(0)) // large 64-bit value, still < hiKey
			idx.Insert(hiKey, 2)
			idx.Insert(loKey, 1)
			id, ok := idx.FirstInRange(bits.KeyFromUint64(0), hiKey)
			if !ok || id != 1 {
				t.Fatalf("expected 64-bit key first, got %d,%v", id, ok)
			}
			var lo201 bits.Key
			lo201 = lo201.SetBit(199, 1)
			id, ok = idx.FirstInRange(lo201, hiKey)
			if !ok || id != 2 {
				t.Fatalf("expected wide key, got %d,%v", id, ok)
			}
		})
	}
}

// TestSeekConformance drives Seek through the states the
// successor walk meets: an empty structure, a cursor past the last key,
// duplicate keys (smallest id first), a cursor equal to a stored key, a
// bulk-loaded structure and one with entries deleted. FirstInRange must
// agree with Seek in every state, since it is defined through it.
func TestSeekConformance(t *testing.T) {
	k := bits.KeyFromUint64
	wide := bits.KeyFromUint64(5).ShlN(200) // beyond 64 bits
	type entry struct {
		key bits.Key
		id  uint64
	}
	type want struct {
		lo  bits.Key
		key bits.Key
		id  uint64
		ok  bool
	}
	cases := []struct {
		name   string
		insert []entry // one Insert each
		sorted []entry // one InsertSorted batch, ascending (key, id)
		delete []entry
		wants  []want
	}{
		{
			name:  "empty",
			wants: []want{{lo: k(0)}, {lo: k(7)}, {lo: wide}},
		},
		{
			name:   "past the last key",
			insert: []entry{{k(10), 1}, {k(20), 2}},
			wants:  []want{{lo: k(21)}, {lo: wide}, {lo: k(20), key: k(20), id: 2, ok: true}},
		},
		{
			name:   "duplicates return the smallest id",
			insert: []entry{{k(42), 7}, {k(42), 3}, {k(42), 9}, {k(50), 1}},
			wants: []want{
				{lo: k(0), key: k(42), id: 3, ok: true},
				{lo: k(42), key: k(42), id: 3, ok: true},
				{lo: k(43), key: k(50), id: 1, ok: true},
			},
		},
		{
			name:   "cursor equal to a stored key",
			insert: []entry{{k(5), 5}, {k(6), 6}, {wide, 8}},
			wants: []want{
				{lo: k(5), key: k(5), id: 5, ok: true},
				{lo: k(6), key: k(6), id: 6, ok: true},
				{lo: k(7), key: wide, id: 8, ok: true},
				{lo: wide, key: wide, id: 8, ok: true},
			},
		},
		{
			name:   "after InsertSorted",
			insert: []entry{{k(15), 15}},
			sorted: []entry{{k(10), 2}, {k(10), 4}, {k(20), 1}, {k(30), 3}},
			wants: []want{
				{lo: k(0), key: k(10), id: 2, ok: true},
				{lo: k(11), key: k(15), id: 15, ok: true},
				{lo: k(16), key: k(20), id: 1, ok: true},
				{lo: k(31)},
			},
		},
		{
			name:   "after deletes",
			insert: []entry{{k(10), 1}, {k(10), 2}, {k(20), 3}, {k(30), 4}},
			delete: []entry{{k(10), 1}, {k(20), 3}},
			wants: []want{
				{lo: k(0), key: k(10), id: 2, ok: true},
				{lo: k(11), key: k(30), id: 4, ok: true},
				{lo: k(30), key: k(30), id: 4, ok: true},
			},
		},
	}
	for _, tc := range cases {
		for name, idx := range implementations(t) {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				for _, e := range tc.insert {
					idx.Insert(e.key, e.id)
				}
				keys, ids := make([]bits.Key, len(tc.sorted)), make([]uint64, len(tc.sorted))
				for i, e := range tc.sorted {
					keys[i], ids[i] = e.key, e.id
				}
				idx.InsertSorted(keys, ids)
				for _, e := range tc.delete {
					if !idx.Delete(e.key, e.id) {
						t.Fatalf("delete (%v,%d) failed", e.key, e.id)
					}
				}
				full := bits.LowMask(bits.KeyBits)
				for _, w := range tc.wants {
					key, id, ok := idx.Seek(w.lo)
					if ok != w.ok || (ok && (!key.Equal(w.key) || id != w.id)) {
						t.Fatalf("Seek(%v) = (%v,%d,%v), want (%v,%d,%v)", w.lo, key, id, ok, w.key, w.id, w.ok)
					}
					if fid, fok := idx.FirstInRange(w.lo, full); fok != ok || (ok && fid != id) {
						t.Fatalf("FirstInRange(%v,max) = (%d,%v), Seek says (%d,%v)", w.lo, fid, fok, id, ok)
					}
					if ok {
						if prev, borrow := key.Dec(); borrow && prev.Cmp(w.lo) >= 0 {
							if _, fok := idx.FirstInRange(w.lo, prev); fok {
								t.Fatalf("FirstInRange(%v,%v) found an entry below Seek's key %v", w.lo, prev, key)
							}
						}
					}
				}
			})
		}
	}
}

// TestAppendEntriesMatchesVisit: the word gather lists what VisitRange
// does, in the same order, at the array's stride and padded past it, and
// a batch gathered from one array rebuilds the same entries in another, at
// the stride its keys need whatever stride the batch was laid out at.
func TestAppendEntriesMatchesVisit(t *testing.T) {
	for name, idx := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 700; i++ {
				idx.Insert(bits.KeyFromUint64(uint64(rng.Intn(300))), uint64(rng.Intn(50)))
			}
			want := dump(idx)
			for _, w := range []int{idx.w, min(idx.w+1, bits.KeyWords)} {
				keys, ids := idx.AppendEntries([]uint64{7}, w, []uint64{9})
				keys, ids = keys[1:], ids[1:]
				if len(ids) != len(want) || len(keys) != len(want)*w {
					t.Fatalf("stride %d: gathered %d ids, %d words, want %d entries", w, len(ids), len(keys), len(want))
				}
				for i, e := range want {
					if k := bits.KeyFromLow(keys[i*w : i*w+w]); !k.Equal(e.key) || ids[i] != e.id {
						t.Fatalf("stride %d, entry %d: got (%v, %d), want (%v, %d)", w, i, k, ids[i], e.key, e.id)
					}
				}
				rebuilt := newArray(t, name)
				rebuilt.InsertSortedWords(keys, w, ids)
				if rebuilt.w != idx.w {
					t.Fatalf("a batch at stride %d rebuilt the array at stride %d, want the %d its keys need", w, rebuilt.w, idx.w)
				}
				if got := dump(rebuilt); !slices.EqualFunc(got, want, func(a, b refEntry) bool { return a.key.Equal(b.key) && a.id == b.id }) {
					t.Fatalf("stride %d: rebuilt array holds %d entries unlike the gathered %d", w, len(got), len(want))
				}
			}
		})
	}
}
