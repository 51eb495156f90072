package sfcarray

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sfccover/internal/bits"
	"sfccover/internal/sfc"
)

// checkInvariants verifies the blocked layout itself: leaves within
// capacity and never empty, entries in strict (key, id) order across leaf
// boundaries (equal pairs allowed), one separator per leaf equal to its
// first key, the entry count, and a stride no narrower than any key held.
func checkInvariants(t *testing.T, x *Index) {
	t.Helper()
	w := x.w
	if len(x.seps) != len(x.leaves)*w {
		t.Fatalf("%d separator words for %d leaves at stride %d", len(x.seps), len(x.leaves), w)
	}
	n := 0
	var prevKey []uint64
	var prevID uint64
	for j := range x.leaves {
		lf := &x.leaves[j]
		if len(lf.ids) == 0 || len(lf.ids) > leafCap || len(lf.keys) != len(lf.ids)*w {
			t.Fatalf("leaf %d: %d ids, %d key words at stride %d", j, len(lf.ids), len(lf.keys), w)
		}
		if cmpWords(x.seps[j*w:j*w+w], lf.key(0, w)) != 0 {
			t.Fatalf("leaf %d: separator %v, first key %v", j, x.seps[j*w:j*w+w], lf.key(0, w))
		}
		for s := range lf.ids {
			k := lf.key(s, w)
			if prevKey != nil {
				if c := cmpWords(prevKey, k); c > 0 || c == 0 && prevID > lf.ids[s] {
					t.Fatalf("leaf %d slot %d: (%v,%d) after (%v,%d)", j, s, k, lf.ids[s], prevKey, prevID)
				}
			}
			prevKey, prevID = k, lf.ids[s]
			n++
		}
	}
	if n != x.n {
		t.Fatalf("leaves hold %d entries, Len says %d", n, x.n)
	}
	checkSummaries(t, x)
}

// checkSummaries verifies the dominance summaries of an array built with
// masks: kept at stride one only (an array without masks, or widened past
// one word, has no array-wide summary either), one block per blockLeaves
// leaves, no bits outside the masks, no leaf's, block's or the array's
// summary below the true maximum of key&m over its entries for any mask m,
// and the array's summary equal to the maximum of the block summaries —
// which every rebuild recomputes it from and every insert raises alongside
// them. Each leaf's slot groups must tile it — starts beginning at 0,
// never decreasing, never past the leaf's length — and no group's summary
// may fall below the maximum of key&m over the keys in the group's slots.
// A group's summary is never above its leaf's, nor a leaf's above its
// block's: an insert stops raising at the first summary that already
// reaches the key.
func checkSummaries(t *testing.T, x *Index) {
	t.Helper()
	d := len(x.masks)
	if d == 0 {
		if x.top != 0 || x.blocks != nil {
			t.Fatalf("array without masks (stride %d) keeps summaries: top %#x, %d block words", x.w, x.top, len(x.blocks))
		}
		return
	}
	if x.w > 1 {
		t.Fatalf("summaries kept at stride %d", x.w)
	}
	var all uint64
	for _, m := range x.masks {
		all |= m
	}
	// below reports the first mask under which sum falls short of the
	// maxima of keys (0 when none does, or keys is empty).
	below := func(sum uint64, keys ...uint64) uint64 {
		for _, m := range x.masks {
			for _, k := range keys {
				if sum&m < k&m {
					return m
				}
			}
		}
		return 0
	}
	if x.top&^all != 0 {
		t.Fatalf("array summary %#x has bits outside the masks %#x", x.top, all)
	}
	for _, m := range x.masks {
		var blocks uint64
		for _, b := range x.blocks {
			blocks = max(blocks, b&m)
		}
		if x.top&m != blocks {
			t.Fatalf("mask %#x: array summary %#x, block summaries' maximum %#x", m, x.top&m, blocks)
		}
	}
	if want := (len(x.leaves) + blockLeaves - 1) / blockLeaves; len(x.blocks) != want {
		t.Fatalf("%d block summary words for %d leaves, want %d", len(x.blocks), len(x.leaves), want)
	}
	for j := range x.leaves {
		lf := &x.leaves[j]
		if m := below(x.top, lf.keys...); m != 0 {
			t.Fatalf("mask %#x: array summary %#x below a key of leaf %d", m, x.top, j)
		}
		if m := below(lf.sum, lf.keys...); m != 0 {
			t.Fatalf("leaf %d mask %#x: summary %#x below the true maximum", j, m, lf.sum)
		}
		if blk := x.blocks[j/blockLeaves]; below(blk, lf.sum) != 0 || blk&^all != 0 || lf.sum&^all != 0 {
			t.Fatalf("block %d summary %#x, leaf %d summary %#x: block below the leaf, or bits outside the masks %#x", j/blockLeaves, blk, j, lf.sum, all)
		}
		if lf.groups == nil {
			t.Fatalf("leaf %d of an array with masks has no slot groups", j)
		}
		if m := below(lf.sum, lf.groups[:]...); m != 0 {
			t.Fatalf("leaf %d mask %#x: summary %#x below a group's %#x", j, m, lf.sum, lf.groups)
		}
		var bounds [leafGroups + 1]int // group g holds slots bounds[g] to bounds[g+1]-1
		bounds[leafGroups] = len(lf.ids)
		for g := range leafGroups {
			bounds[g] = int(lf.starts >> (8 * g) & 0xff)
			if g == 0 && bounds[g] != 0 || g > 0 && bounds[g] < bounds[g-1] || bounds[g] > len(lf.ids) {
				t.Fatalf("leaf %d of %d entries: group %d starts at slot %d (starts %#x)", j, len(lf.ids), g, bounds[g], lf.starts)
			}
		}
		for g := range leafGroups {
			start, end := bounds[g], bounds[g+1]
			if m := below(lf.groups[g], lf.keys[start:end]...); m != 0 {
				t.Fatalf("leaf %d group %d (slots %d–%d) mask %#x: summary %#x below the true maximum", j, g, start, end-1, m, lf.groups[g])
			}
			if lf.groups[g]&^all != 0 {
				t.Fatalf("leaf %d group %d: summary %#x has bits outside the masks %#x", j, g, lf.groups[g], all)
			}
		}
	}
}

// opMasks are the dimension masks of a 3-d Z curve at 2 bits a coordinate:
// six bits, enough for the one-word pool of opStream's keys (0..47).
var opMasks = sfc.MustZ(3, 2).DimMasks()

// checkAgainst compares every read the array offers with the oracle.
func checkAgainst(t *testing.T, x *Index, ref *refModel, probes []bits.Key) {
	t.Helper()
	checkInvariants(t, x)
	if x.Len() != ref.Len() {
		t.Fatalf("Len = %d, oracle has %d", x.Len(), ref.Len())
	}
	got := dump(x)
	for i, e := range ref.entries {
		if i >= len(got) || got[i] != e {
			t.Fatalf("entry %d of the full visit differs from the oracle's %v", i, e)
		}
	}
	for _, lo := range probes {
		i := sort.Search(len(ref.entries), func(i int) bool { return ref.entries[i].key.Cmp(lo) >= 0 })
		key, id, ok := x.Seek(lo)
		if ok != (i < len(ref.entries)) || ok && (key != ref.entries[i].key || id != ref.entries[i].id) {
			t.Fatalf("Seek(%v) = (%v,%d,%v), oracle index %d of %d", lo, key, id, ok, i, len(ref.entries))
		}
		for _, hi := range probes {
			wantID, wantOK := ref.FirstInRange(lo, hi)
			if gotID, gotOK := x.FirstInRange(lo, hi); gotOK != wantOK || gotOK && gotID != wantID {
				t.Fatalf("FirstInRange(%v,%v) = (%d,%v), oracle (%d,%v)", lo, hi, gotID, gotOK, wantID, wantOK)
			}
		}
	}
}

// opStream turns bytes into array operations, so one driver serves the
// seeded model test and the fuzzer. Keys come from three pools: a small
// one-word domain (many ids land on one key, and ids are drawn from a
// small range so equal pairs occur), two-word keys and full eight-word
// keys. A stream that starts narrow and draws a wide key later widens the
// array mid-life.
type opStream struct {
	data []byte
	pos  int
}

func (s *opStream) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

func (s *opStream) done() bool { return s.pos >= len(s.data) }

func (s *opStream) key() bits.Key {
	b := s.byte()
	k := bits.KeyFromUint64(uint64(s.byte() % 48))
	switch {
	case b < 200: // one word
	case b < 240: // two words
		k = k.Or(bits.KeyFromUint64(uint64(b%3 + 1)).ShlN(64))
	default: // eight words, top bit region
		k = k.Or(bits.KeyFromUint64(uint64(b%3 + 1)).ShlN(bits.KeyBits - 8))
	}
	return k
}

// runOps applies the stream to a fresh array and the oracle side by side.
// The array keeps summaries until a key past one word re-strides it.
func runOps(t *testing.T, data []byte) {
	s := &opStream{data: data}
	arr, ref := WithMasks(opMasks), new(refModel)
	x := &arr
	var probes []bits.Key
	for step := 0; !s.done(); step++ {
		switch op := s.byte() % 16; {
		case op < 6:
			k, id := s.key(), uint64(s.byte()%8)
			x.Insert(k, id)
			ref.Insert(k, id)
			probes = append(probes, k)
		case op < 10 && ref.Len() > 0: // delete a live entry
			e := ref.entries[int(s.byte())*ref.Len()/256]
			if !x.Delete(e.key, e.id) {
				t.Fatalf("step %d: Delete(%v,%d) of a live entry failed", step, e.key, e.id)
			}
			ref.Delete(e.key, e.id)
		case op < 11: // delete something probably absent
			k, id := s.key(), uint64(s.byte()%8)
			if got, want := x.Delete(k, id), ref.Delete(k, id); got != want {
				t.Fatalf("step %d: Delete(%v,%d) = %v, oracle %v", step, k, id, got, want)
			}
		case op < 13: // sorted batch: small ones take the per-entry path, large ones the leaf pass
			n := int(s.byte())
			if op == 11 {
				n %= 8
			}
			batch := make([]refEntry, n)
			for i := range batch {
				batch[i] = refEntry{s.key(), uint64(s.byte() % 8)}
			}
			sort.Slice(batch, func(i, j int) bool {
				return EntryLess(batch[i].key, batch[i].id, batch[j].key, batch[j].id)
			})
			keys, ids := make([]bits.Key, n), make([]uint64, n)
			for i, e := range batch {
				keys[i], ids[i] = e.key, e.id
				ref.Insert(e.key, e.id)
			}
			x.InsertSorted(keys, ids)
		case op < 14: // bounded visit with an early stop
			lo, hi, limit := s.key(), s.key(), int(s.byte()%5)
			var got, want []refEntry
			x.VisitRange(lo, hi, func(k bits.Key, id uint64) bool {
				got = append(got, refEntry{k, id})
				return len(got) <= limit
			})
			ref.VisitRange(lo, hi, func(k bits.Key, id uint64) bool {
				want = append(want, refEntry{k, id})
				return len(want) <= limit
			})
			if len(got) != len(want) {
				t.Fatalf("step %d: VisitRange(%v,%v) visited %d entries, oracle %d", step, lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: VisitRange entry %d = %v, oracle %v", step, i, got[i], want[i])
				}
			}
		default:
			probes = append(probes, s.key())
		}
		if len(probes) > 6 {
			probes = probes[len(probes)-6:]
		}
		if step%16 == 0 {
			checkAgainst(t, x, ref, probes)
		} else {
			checkSummaries(t, x)
		}
	}
	past, _ := bits.LowMask(bits.KeyBits - 1).Inc()
	checkAgainst(t, x, ref, append(probes, bits.Key{}, past, bits.LowMask(bits.KeyBits)))
	// Drain to empty, then reuse: the array must come back from nothing.
	for ref.Len() > 0 {
		e := ref.entries[ref.Len()/2]
		if !x.Delete(e.key, e.id) {
			t.Fatalf("drain: Delete(%v,%d) failed", e.key, e.id)
		}
		ref.Delete(e.key, e.id)
	}
	checkAgainst(t, x, ref, probes)
	x.Insert(bits.KeyFromUint64(7), 7)
	ref.Insert(bits.KeyFromUint64(7), 7)
	checkAgainst(t, x, ref, probes)
}

// TestBlockedArrayModel runs seeded random operation streams against the
// sorted-slice oracle.
func TestBlockedArrayModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 6000)
		rng.Read(data)
		narrow := 0
		switch {
		case seed > 12:
			// Narrow keys only: the summaries live the whole stream.
			narrow = len(data)
		case seed%3 == 0:
			// Narrow keys only for the first half: the array widens mid-life.
			narrow = len(data) / 2
		}
		for i := 0; i < narrow; i++ {
			data[i] %= 200
		}
		runOps(t, data)
	}
}

// groupBoundarySeeds are opStream streams on one summarized leaf: a sorted
// batch of the even one-word keys 0–46 (id 0) builds a single leaf of 24
// entries, its leafGroups groups 3 slots each, group g holding keys 6g,
// 6g+2 and 6g+4. At each group boundary a stream then inserts an odd key
// at either side of it — 6g−3 ends group g−1, 6g−1 sorts at the boundary
// slot — and deletes both, then deletes the keys on either side of the
// boundary, 6g−2 and 6g, and puts them back; past the last group it
// appends key 47 and deletes it. An odd key is a new maximum under some
// mask of the group it joins, so a summary raised in the wrong group
// shows. One stream takes each boundary alone, the last all of them in
// turn.
func groupBoundarySeeds() [][]byte {
	const n = 24
	batch := []byte{12, n}
	var keys []int // the live keys, ascending: the model of the stream
	for k := 0; k < 2*n; k += 2 {
		batch = append(batch, 0, byte(k), 0) // a one-word key k under id 0
		keys = append(keys, k)
	}
	ins := func(ops []byte, k int) []byte {
		i, _ := slices.BinarySearch(keys, k)
		keys = slices.Insert(keys, i, k)
		return append(ops, 0, 0, byte(k), 0)
	}
	// del deletes key k at slot i of l live keys: runOps deletes entry
	// byte*l/256.
	del := func(ops []byte, k int) []byte {
		i, _ := slices.BinarySearch(keys, k)
		l := len(keys)
		keys = slices.Delete(keys, i, i+1)
		return append(ops, 6, byte((i*256+l-1)/l))
	}
	var seeds [][]byte
	all := slices.Clone(batch)
	for g := 0; g <= leafGroups; g++ {
		var ops []byte
		switch k := 6 * g; {
		case g == 0:
			ops = ins(del(nil, 0), 0)
		case g == leafGroups:
			ops = del(ins(nil, 2*n-1), 2*n-1)
		default:
			ops = del(del(ins(ins(nil, k-3), k-1), k-3), k-1)
			ops = ins(ins(del(del(ops, k-2), k), k-2), k)
		}
		seeds = append(seeds, slices.Concat(batch, ops))
		all = append(all, ops...)
	}
	return append(seeds, all)
}

// FuzzBlockedArray lets the fuzzer write the operation stream.
func FuzzBlockedArray(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{12, 200, 1, 2, 3, 1, 5, 1, 250, 9, 1, 0, 240, 3, 2, 6, 0, 0, 13, 0, 0, 255, 0, 3})
	for _, seed := range groupBoundarySeeds() {
		f.Add(seed)
	}
	rng := rand.New(rand.NewSource(99))
	seed := make([]byte, 2048)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("stream longer than the oracle's quadratic inserts are worth")
		}
		runOps(t, data)
	})
}

// TestLeafSplitMergeBoundaries walks one array through every fill level
// around the split and merge thresholds — ascending, descending and
// middle-out inserts up past a block of full leaves (so splits and merges
// cross block boundaries), then deletes from the front, the back and the
// middle down to empty — checking layout, summaries (one-word keys keep
// them) and answers after every single operation.
func TestLeafSplitMergeBoundaries(t *testing.T) {
	masks := sfc.MustZ(2, 32).DimMasks()
	const n = (blockLeaves+1)*leafCap + 2
	orders := map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return n - 1 - i },
		"middle-out": func(i int) int {
			if i%2 == 0 {
				return n/2 + i/2
			}
			return n/2 - 1 - i/2
		},
	}
	for _, width := range []int{0, 64, bits.KeyBits - 16} { // one-, two- and eight-word keys
		key := func(v int) bits.Key { return bits.KeyFromUint64(uint64(v) + 1).ShlN(width) }
		for insName, ins := range orders {
			for delName, del := range orders {
				arr, ref := WithMasks(masks), new(refModel)
				x := &arr
				for i := 0; i < n; i++ {
					v := ins(i)
					x.Insert(key(v), uint64(v))
					ref.Insert(key(v), uint64(v))
					checkAgainst(t, x, ref, []bits.Key{key(v), key(v + 1)})
				}
				for i := 0; i < n; i++ {
					v := del(i)
					if !x.Delete(key(v), uint64(v)) {
						t.Fatalf("width %d insert %s delete %s: entry %d missing", width, insName, delName, v)
					}
					ref.Delete(key(v), uint64(v))
					checkAgainst(t, x, ref, []bits.Key{key(v), key(v + 1)})
				}
				if len(x.leaves) != 0 || len(x.seps) != 0 {
					t.Fatalf("an emptied array keeps %d leaves", len(x.leaves))
				}
			}
		}
	}
}

// TestManyIDsOnOneKey fills several leaves with a single key: the smallest
// id must answer, inserts and deletes must find their place among leaves
// that all start with the same key, and neighbors on both sides stay put.
func TestManyIDsOnOneKey(t *testing.T) {
	x, ref := new(Index), new(refModel)
	lo, k, hi := bits.KeyFromUint64(10), bits.KeyFromUint64(20), bits.KeyFromUint64(30)
	for _, e := range []refEntry{{lo, 1}, {hi, 2}} {
		x.Insert(e.key, e.id)
		ref.Insert(e.key, e.id)
	}
	ids := rand.New(rand.NewSource(3)).Perm(5 * leafCap)
	for _, id := range ids {
		x.Insert(k, uint64(id))
		ref.Insert(k, uint64(id))
	}
	checkAgainst(t, x, ref, []bits.Key{lo, k, hi})
	if key, id, ok := x.Seek(bits.KeyFromUint64(11)); !ok || key != k || id != 0 {
		t.Fatalf("Seek(11) = (%v,%d,%v), want the key's smallest id 0", key, id, ok)
	}
	if x.Delete(k, uint64(len(ids))) {
		t.Fatal("deleted an id the key never had")
	}
	for i, id := range ids {
		if !x.Delete(k, uint64(id)) {
			t.Fatalf("Delete(%d) failed", id)
		}
		ref.Delete(k, uint64(id))
		if i%17 == 0 {
			checkAgainst(t, x, ref, []bits.Key{lo, k, hi})
		}
	}
	checkAgainst(t, x, ref, []bits.Key{lo, k, hi})
}
