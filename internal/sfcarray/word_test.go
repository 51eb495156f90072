package sfcarray

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"sfccover/internal/bits"
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
		if key, gotID, gotOK := x.SeekWord(lo); gotOK != ok || ok && (key != want || gotID != id) || !ok && (key != 0 || gotID != 0) {
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
