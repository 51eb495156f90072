package dominance

import (
	"cmp"
	"slices"
)

// A bulk load carries its curve keys as words, computed once: KeyStride
// words a key, most significant first — one word where the curve's keys
// fit one (Config.WordKeys). It sorts them beside their ids into the
// order sfcarray.Index.InsertSortedWords takes, and a sharded load cuts
// that sorted run at the slice boundaries.

// KeyStride is the number of words a bulk load's key takes: one where the
// curve's keys fit one word, else as many as d·k bits need.
func (d *dispatch) KeyStride() int { return (d.cfg.Dims*d.cfg.Bits + 63) / 64 }

// AppendKey appends p's curve key to dst at KeyStride words and returns
// the extended slice.
func (d *dispatch) AppendKey(dst []uint64, p []uint32) []uint64 {
	if d.cfg.WordKeys() {
		return append(dst, d.curve.KeyWord(p))
	}
	n := len(dst)
	dst = slices.Grow(dst, d.KeyStride())[:n+d.KeyStride()]
	d.curve.Key(p).Low(dst[n:])
	return dst
}

// appendKeys is AppendKey over a batch of points.
func (d *dispatch) appendKeys(dst []uint64, ps [][]uint32) []uint64 {
	dst = slices.Grow(dst, len(ps)*d.KeyStride())
	for _, p := range ps {
		dst = d.AppendKey(dst, p)
	}
	return dst
}

// entry is one (key, id) pair of a one-word bulk load: sorted as a value,
// 16 bytes, rather than through an index permutation.
type entry struct{ key, id uint64 }

func cmpEntry(a, b entry) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// SortBatch returns a batch's (key, id) pairs in ascending (key, id)
// order as fresh aligned slices, keys at w words each (KeyStride); the
// inputs are left as they are. One-word keys are sorted as 16-byte values
// by a stable radix sort on the key: that is the (key, id) order whenever
// the ids of equal keys arrive ascending — ids minted in input order, a
// snapshot's, listed by id, or a batch's own positions — and a batch where
// they do not is sorted again by (key, id). Wider keys are sorted through
// a permutation compared word by word.
func SortBatch(keys []uint64, w int, ids []uint64) ([]uint64, []uint64) {
	sk, si := make([]uint64, len(keys)), make([]uint64, len(ids))
	if w == 1 {
		es := make([]entry, len(ids))
		for i, id := range ids {
			es[i] = entry{keys[i], id}
		}
		if es = radixSort(es, make([]entry, len(es))); !slices.IsSortedFunc(es, cmpEntry) {
			slices.SortFunc(es, cmpEntry)
		}
		for i, e := range es {
			sk[i], si[i] = e.key, e.id
		}
		return sk, si
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := slices.Compare(keys[a*w:a*w+w], keys[b*w:b*w+w]); c != 0 {
			return c
		}
		return cmp.Compare(ids[a], ids[b])
	})
	for j, i := range order {
		copy(sk[j*w:j*w+w], keys[i*w:i*w+w])
		si[j] = ids[i]
	}
	return sk, si
}

// radixSort sorts es by key, stably: least significant byte first, one
// counting pass per byte in which the keys differ (a 40-bit universe takes
// at most five). tmp is scratch of es's length; the sorted values are in
// whichever of the two the last pass wrote, which is returned.
func radixSort(es, tmp []entry) []entry {
	var or, and uint64 = 0, ^uint64(0)
	for _, e := range es {
		or |= e.key
		and &= e.key
	}
	for shift, varies := 0, or^and; shift < 64 && varies>>shift != 0; shift += 8 {
		if byte(varies>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, e := range es {
			at[byte(e.key>>shift)]++
		}
		pos := 0
		for b, c := range at {
			at[b], pos = pos, pos+c
		}
		for _, e := range es {
			b := byte(e.key >> shift)
			tmp[at[b]] = e
			at[b]++
		}
		es, tmp = tmp, es
	}
	return es
}
