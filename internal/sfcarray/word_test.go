package sfcarray

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sfccover/internal/bits"
	"sfccover/internal/sfc"
)

// checkWordForms holds the two key forms to one function: for every
// ordered pair of probes, SeekWord(lo) is Seek(KeyFromUint64(lo)) — with
// ok false where Seek's answer is a key wider than a word, which SeekWord
// cannot name — and FirstInRangeWord is FirstInRange outright.
func checkWordForms(t *testing.T, x *Index, probes []uint64) {
	t.Helper()
	for _, lo := range probes {
		k, id, ok := x.Seek(bits.KeyFromUint64(lo))
		want, fits := k.Uint64()
		ok = ok && fits
		if key, gotID, gotOK := x.SeekWord(lo, 0); gotOK != ok || ok && (key != want || gotID != id) || !ok && (key != 0 || gotID != 0) {
			t.Fatalf("stride %d: SeekWord(%#x) = (%#x,%d,%v), Seek says (%#x,%d,%v)", x.w, lo, key, gotID, gotOK, want, id, ok)
		}
		for _, hi := range probes {
			id, ok := x.FirstInRange(bits.KeyFromUint64(lo), bits.KeyFromUint64(hi))
			if gotID, gotOK := x.FirstInRangeWord(lo, hi); gotOK != ok || gotID != id {
				t.Fatalf("stride %d: FirstInRangeWord(%#x,%#x) = (%d,%v), FirstInRange says (%d,%v)", x.w, lo, hi, gotID, gotOK, id, ok)
			}
		}
	}
}

// runWordOps turns bytes into inserts, deletes, runs of one key long
// enough to span leaves and — at most once — a two-word key that
// re-strides the array, comparing the key forms after every operation on
// the keys just touched, their neighbors and both ends of the word.
func runWordOps(t *testing.T, data []byte) {
	s := &opStream{data: data}
	word := func() uint64 {
		if b := s.byte(); b < 128 {
			return uint64(b % 32) // a small domain: keys repeat
		}
		var raw [8]byte
		for i := range raw {
			raw[i] = s.byte()
		}
		return binary.BigEndian.Uint64(raw[:])
	}
	x := new(Index)
	probes := []uint64{0, math.MaxUint64}
	checkWordForms(t, x, probes) // the empty array
	var live []refEntry
	for !s.done() {
		var touched uint64
		switch op := s.byte() % 8; {
		case op < 3:
			k, id := word(), uint64(s.byte()%8)
			x.Insert(bits.KeyFromUint64(k), id)
			live = append(live, refEntry{bits.KeyFromUint64(k), id})
			touched = k
		case op < 4: // one key under enough ids to fill leaves
			k := word()
			for id, n := uint64(0), uint64(s.byte()); id < n; id++ {
				x.Insert(bits.KeyFromUint64(k), id)
				live = append(live, refEntry{bits.KeyFromUint64(k), id})
			}
			touched = k
		case op < 6 && len(live) > 0:
			i := int(s.byte()) * len(live) / 256
			if !x.Delete(live[i].key, live[i].id) {
				t.Fatalf("Delete(%v,%d) of a live entry failed", live[i].key, live[i].id)
			}
			touched, _ = live[i].key.Uint64()
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 7: // a key past the word: the array re-strides to two
			wide := bits.KeyFromUint64(word()).Or(bits.KeyFromUint64(1).ShlN(64))
			x.Insert(wide, 0)
		default:
			touched = word()
		}
		probes = append(probes, touched-1, touched, touched+1)
		if len(probes) > 11 {
			probes = append(probes[:2], probes[len(probes)-9:]...)
		}
		checkWordForms(t, x, probes)
	}
	checkInvariants(t, x)
}

// TestSeekWordMatchesSeek runs seeded streams, narrow only and widened.
func TestSeekWordMatchesSeek(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		runWordOps(t, data)
	}
}

// FuzzSeekWordMatchesSeek lets the fuzzer write the stream. The seeds
// are the cases by name: the empty array, one key spanning leaves beside
// neighbors, probes past the last key, and an array re-strided to two
// words before and after it fills.
func FuzzSeekWordMatchesSeek(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 20, 200, 0, 10, 1, 0, 30, 2, 3, 20, 255, 4, 100, 4, 7, 7, 21})
	f.Add([]byte{0, 200, 255, 255, 255, 255, 255, 255, 255, 255, 1, 7, 200, 255, 255, 255, 255, 255, 255, 255, 254})
	f.Add([]byte{6, 5, 0, 9, 1, 3, 9, 130, 6, 9, 0, 8, 2, 7, 9, 4, 0})
	rng := rand.New(rand.NewSource(101))
	seed := make([]byte, 1024)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("stream longer than its quadratic probing is worth")
		}
		runWordOps(t, data)
	})
}

// contractMasks are a 3-d Z curve's dimension masks at 4 bits a
// coordinate, over keys of twelve bits; contractTop is the last of them,
// which no other key dominates.
var contractMasks = sfc.MustZ(3, 4).DimMasks()

const contractTop = 1<<12 - 1

// wordEntry is one live (key, id) of the contract oracle, in (key, id)
// order.
type wordEntry struct{ key, id uint64 }

func wordLess(a, b wordEntry) bool { return a.key < b.key || a.key == b.key && a.id < b.id }

// dominatesKey reports whether key reaches qk under every mask.
func dominatesKey(key, qk uint64) bool {
	for _, m := range contractMasks {
		if key&m < qk&m {
			return false
		}
	}
	return true
}

// checkSeekContract holds SeekWord(lo, qk) to its contract by brute force
// over the sorted live entries and the array's leaves. With qk 0 the answer
// is Seek's. Otherwise no entry from the first at or after lo up to the
// answer dominates qk, there is no answer only when no such entry
// dominates, and the answer is placed by the landing leaf — the first leaf,
// from the one holding the first entry at or after lo, whose summary
// reaches qk under every mask: an answer inside it dominates qk, and any
// other answer is slot 0 of the next leaf after it whose summary does.
func checkSeekContract(t *testing.T, x *Index, live []wordEntry, lo, qk uint64) {
	t.Helper()
	key, id, ok := x.SeekWord(lo, qk)
	at := sort.Search(len(live), func(i int) bool { return live[i].key >= lo })
	dom := at
	for dom < len(live) && !dominatesKey(live[dom].key, qk) {
		dom++
	}
	if !ok {
		if dom < len(live) {
			t.Fatalf("SeekWord(%#x, %#x) found nothing; %v at or after lo dominates", lo, qk, live[dom])
		}
		return
	}
	got := slices.Index(live[at:], wordEntry{key, id})
	if got < 0 {
		t.Fatalf("SeekWord(%#x, %#x) = (%#x, %d): no such live entry at or after lo", lo, qk, key, id)
	}
	if got += at; got > dom || qk == 0 && got != at {
		t.Fatalf("SeekWord(%#x, %#x) = entry %d of %d (%#x, %d); first at or after lo %d, first dominator %d", lo, qk, got, len(live), key, id, at, dom)
	}
	if qk == 0 {
		return
	}
	// starts[j] is the position in live of leaf j's slot 0.
	starts := make([]int, len(x.leaves)+1)
	for j := range x.leaves {
		starts[j+1] = starts[j] + len(x.leaves[j].ids)
	}
	admitting := func(j int) bool {
		for _, m := range contractMasks {
			if x.leaves[j].sum&m < qk&m {
				return false
			}
		}
		return true
	}
	land := sort.Search(len(x.leaves), func(j int) bool { return starts[j+1] > at })
	for land < len(x.leaves) && !admitting(land) {
		land++
	}
	next := land + 1
	for next < len(x.leaves) && !admitting(next) {
		next++
	}
	if land == len(x.leaves) {
		t.Fatalf("SeekWord(%#x, %#x) = (%#x, %d), but no leaf from lo's admits qk", lo, qk, key, id)
	}
	// Entries repeat: any copy of the answer at or after got may be the one.
	for p := got; p < len(live) && live[p] == (wordEntry{key, id}); p++ {
		inLanding := p >= max(at, starts[land]) && p < starts[land+1]
		if inLanding && dominatesKey(key, qk) || next < len(x.leaves) && p == starts[next] {
			return
		}
	}
	t.Fatalf("SeekWord(%#x, %#x) = entry %d (%#x, %d): neither a dominator in landing leaf %d (entries %d–%d) nor slot 0 of the next admitting leaf %d",
		lo, qk, got, key, id, land, max(at, starts[land]), starts[land+1]-1, next)
}

// runSeekContract turns bytes into inserts, runs of one key long enough to
// span leaves, sorted batches through the leaf merge pass and deletes on a
// summarized array, probing the contract after every operation at the
// key just touched and its neighbors, under qk 0, the key itself, one
// nothing else dominates and one drawn from the stream.
func runSeekContract(t *testing.T, data []byte) {
	s := &opStream{data: data}
	word := func() uint64 { return (uint64(s.byte())<<4 | uint64(s.byte())) & contractTop }
	arr := WithMasks(contractMasks)
	x := &arr
	var live []wordEntry
	insert := func(e wordEntry) {
		i := sort.Search(len(live), func(i int) bool { return wordLess(e, live[i]) })
		live = slices.Insert(live, i, e)
	}
	checkSeekContract(t, x, live, 0, 0) // the empty array
	for !s.done() {
		var touched uint64
		switch op := s.byte() % 8; {
		case op < 3:
			e := wordEntry{word(), uint64(s.byte() % 8)}
			x.Insert(bits.KeyFromUint64(e.key), e.id)
			insert(e)
			touched = e.key
		case op < 4: // one key under enough ids to fill leaves
			touched = word()
			for id, n := uint64(0), uint64(s.byte()); id < n; id++ {
				x.Insert(bits.KeyFromUint64(touched), id)
				insert(wordEntry{touched, id})
			}
		case op < 5: // a sorted batch: the merge pass rebuilds leaves
			batch := make([]wordEntry, s.byte()%128)
			for i := range batch {
				batch[i] = wordEntry{word(), uint64(s.byte() % 8)}
			}
			sort.Slice(batch, func(i, j int) bool { return wordLess(batch[i], batch[j]) })
			keys, ids := make([]bits.Key, len(batch)), make([]uint64, len(batch))
			for i, e := range batch {
				keys[i], ids[i] = bits.KeyFromUint64(e.key), e.id
				insert(e)
				touched = e.key
			}
			x.InsertSorted(keys, ids)
		case op < 7 && len(live) > 0:
			i := int(s.byte()) * len(live) / 256
			if !x.Delete(bits.KeyFromUint64(live[i].key), live[i].id) {
				t.Fatalf("Delete(%#x,%d) of a live entry failed", live[i].key, live[i].id)
			}
			touched = live[i].key
			live = slices.Delete(live, i, i+1)
		default:
			touched = word()
		}
		drawn := word()
		for _, lo := range []uint64{0, touched - 1, touched, touched + 1} {
			for _, qk := range []uint64{0, touched, contractTop, drawn} {
				checkSeekContract(t, x, live, lo, qk)
			}
		}
	}
	checkInvariants(t, x)
}

// TestSeekWordContract runs seeded streams against the brute-force oracle.
func TestSeekWordContract(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		runSeekContract(t, data)
	}
}

// FuzzSeekWordContract lets the fuzzer write the stream. The seeds are the
// cases by name: the empty array, one key spanning leaves beside a
// neighbor, and a full array probed under qk 0 and under the top key,
// which nothing stored dominates (every stream probes both). Every probe
// holds the answer to the landing-leaf contract: a dominator inside the
// first admitting leaf, or slot 0 of the next one.
func FuzzSeekWordContract(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 40, 2, 200, 0, 40, 3, 1, 7})
	f.Add([]byte{4, 127, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 5, 0, 0})
	rng := rand.New(rand.NewSource(103))
	seed := make([]byte, 1024)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("stream longer than its quadratic probing is worth")
		}
		runSeekContract(t, data)
	})
}

// TestDominatorMatchesMasks holds the leaf check's all-masks-at-once test
// to its definition — key&m >= qk&m under every mask — on every one-word Z
// universe (every d ≤ 16 and k ≤ 32 with d·k ≤ 64, and d·k = 64 at d 32
// and 64), over random keys and keys one coordinate step from the query
// key. The keys fill one summarized leaf, so the check runs through its
// slot groups' summaries as a seek's does.
func TestDominatorMatchesMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	var universes [][2]int
	for d := 1; d <= 16; d++ {
		for k := 1; k <= 32 && d*k <= 64; k++ {
			universes = append(universes, [2]int{d, k})
		}
	}
	universes = append(universes, [2]int{32, 2}, [2]int{64, 1})
	for _, u := range universes {
		d, k := u[0], u[1]
		masks := sfc.MustZ(d, k).DimMasks()
		x := WithMasks(masks)
		top := uint64(math.MaxUint64) >> (64 - d*k)
		for range 200 {
			qk := rng.Uint64() & top
			ks := make([]uint64, 64)
			for i := range ks {
				if i%2 == 0 {
					ks[i] = rng.Uint64() & top
					continue
				}
				// One dimension of qk moved by one, up or down.
				m := masks[rng.Intn(d)]
				v := qk & m
				if rng.Intn(2) == 0 {
					v = (v | ^m) + 1
				} else {
					v = (v &^ ^m) - 1
				}
				ks[i] = qk&^m | v&m
			}
			lf := leaf{keys: ks, ids: make([]uint64, len(ks)), groups: new([leafGroups]uint64)}
			x.summarize(&lf)
			for s := range ks {
				want := s
				for want < len(ks) && !dominatesUnder(masks, ks[want], qk) {
					want++
				}
				if got := x.dominator(&lf, s, qk); got != want {
					t.Fatalf("d %d k %d: dominator(from %d, qk %#x) = %d, want %d (key %#x)", d, k, s, qk, got, want, ks[min(want, len(ks)-1)])
				}
			}
		}
	}
}

func dominatesUnder(masks []uint64, key, qk uint64) bool {
	for _, m := range masks {
		if key&m < qk&m {
			return false
		}
	}
	return true
}

// TestWithMasksTakesZMasksOnly: the leaf check's shifts by d keep a bit in
// its dimension only on a Z curve's masks, so WithMasks takes those and
// panics on overlapping masks or masks whose bits do not repeat every d.
func TestWithMasksTakesZMasksOnly(t *testing.T) {
	for _, masks := range [][]uint64{
		sfc.MustZ(3, 4).DimMasks(),
		sfc.MustZ(64, 1).DimMasks(),
		sfc.MustZ(2, 32).DimMasks(),
	} {
		if x := WithMasks(masks); len(x.masks) != len(masks) {
			t.Fatalf("WithMasks(%#x) kept %d masks", masks, len(x.masks))
		}
	}
	for _, masks := range [][]uint64{
		{0b0011, 0b0110},  // overlapping
		{0b0011, 0b1100},  // a dimension's bits adjacent, not every 2nd
		{0b0101, 0b10010}, // bit 4 does not shift onto mask 1's bit 2
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithMasks(%#b) accepted masks that are not a Z curve's", masks)
				}
			}()
			WithMasks(masks)
		}()
	}
}
