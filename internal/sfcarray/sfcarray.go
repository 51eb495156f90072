// Package sfcarray implements the paper's "SFC array": the dynamic ordered
// structure that stores indexed points sorted by their space-filling-curve
// keys (Section 2), which "could be implemented using any dynamic
// unidimensional data structure". This one is a blocked sorted array, the
// leaf level of a B+-tree under one level of separators.
//
// Entries are (key, id) pairs in ascending (key, id) order; several ids may
// share one key (distinct subscriptions can map to the same cell). They
// live in leaves of up to leafCap entries, each leaf one contiguous run of
// key words beside its ids, and the first key of every leaf is repeated in
// one contiguous separator array. A lookup is two binary searches over
// contiguous words — separators, then one leaf — and an update is a copy
// inside one leaf, plus a leaf split or merge when it fills or drains.
//
// Keys are stored at a stride: as many 64-bit words as the widest key the
// array has been given needs, one word for any universe with d·k <= 64.
// A wider key arriving later re-strides the array once. Probe keys wider
// than the stride sort above every stored key by construction.
//
// The separator level is flat, so a split or merge moves O(n/leafCap)
// leaf headers; amortized over the leafCap/2 updates between two splits
// of a leaf that is below the leaf copy itself up to ~10^7 entries.
//
// An array built WithMasks keeps dominance summaries: for each mask m, the
// maximum of key&m over the entries of every leaf, of every block of
// blockLeaves leaves and of the whole array. A summary is never below the
// true maximum — an insert raises it, every leaf and block rebuild
// recomputes it, a delete leaves it — so a leaf, block or array whose
// summary falls short of a query key under some mask holds no entry
// reaching the key under every mask, and SeekWord passes it. The first
// leaf that does admit the key is where SeekWord lands, and it checks that
// leaf's entries against the key (key&m >= qk&m for every mask) from the
// landing slot on: it answers with the first entry that dominates, or else
// with the first entry of the next admitting leaf, unchecked. One seek
// therefore checks the entries of at most one leaf, and a search pays per
// admitting leaf, not per stored key. The masks only mean something on
// one-word keys; an array re-strided past one word drops them.
package sfcarray

import (
	"fmt"
	"slices"
	"sort"

	"sfccover/internal/bits"
	"sfccover/internal/sfc"
)

const (
	// leafCap is how many entries a leaf holds before it splits.
	leafCap = 64
	// leafFill is how full InsertSorted builds leaves: room is left so
	// the inserts that follow a bulk load do not split every leaf.
	leafFill = leafCap * 3 / 4
	// blockLeaves is how many consecutive leaves share a block summary.
	blockLeaves = 8
)

// Index is the SFC array: a dynamic ordered multiset of (key, id) entries.
// The zero value is an empty array without summaries; it must not be
// copied after first use. Answers are deterministic: the smallest key,
// then the smallest id.
type Index struct {
	w      int      // key stride in words; 0 until the first key arrives
	n      int      // entries stored
	seps   []uint64 // first key of every leaf, w words each
	leaves []leaf   // in key order, none empty
	// masks are the summaries' key masks (nil: no summaries); blocks holds
	// len(masks) maxima per block of blockLeaves leaves, top the array's.
	masks  []uint64
	blocks []uint64
	top    []uint64
	// spare is the last leaf a merge or a delete emptied out, which the
	// next split takes instead of allocating: churn at a steady
	// population splits and merges by turns and allocates no leaf.
	spare leaf
}

// leaf is one sorted block: keys holds w words per entry, ids aligns with
// it, sum holds the leaf's maximum of key&m for each mask. All three share
// one allocation of leafCap entries.
type leaf struct {
	keys []uint64
	ids  []uint64
	sum  []uint64
}

// WithMasks returns an empty array that keeps a dominance summary for each
// of masks (retained, not copied): the summaries SeekWord prunes by. The
// masks are a Z curve's dimension masks (sfc.ZCurve.DimMasks): disjoint,
// and with d masks each one closed under a shift right by d, so that
// SeekWord's leaf check can test them all at once; the keys stored and
// sought carry no bits outside them. WithMasks panics on masks of any
// other shape.
func WithMasks(masks []uint64) Index {
	if len(masks) == 0 {
		return Index{}
	}
	var all uint64
	for _, m := range masks {
		if m&all != 0 || m>>len(masks)&^m != 0 {
			panic(fmt.Sprintf("sfcarray: masks %#x are not a Z curve's dimension masks", masks))
		}
		all |= m
	}
	return Index{masks: masks, top: make([]uint64, len(masks))}
}

// New returns an empty array. There is one layout; "", "treap" and
// "skiplist" — the structures it replaced, still spelled by callers that
// predate it — all name it, and seed is ignored (nothing here is random).
func New(layout string, seed int64) (Index, error) {
	switch layout {
	case "", "treap", "skiplist":
		return Index{}, nil
	default:
		return Index{}, fmt.Errorf("sfcarray: unknown implementation %q", layout)
	}
}

// EntryLess orders entries by key, then id, giving a strict total order on
// (key, id) pairs.
func EntryLess(k1 bits.Key, id1 uint64, k2 bits.Key, id2 uint64) bool {
	switch k1.Cmp(k2) {
	case -1:
		return true
	case 1:
		return false
	default:
		return id1 < id2
	}
}

// Len returns the number of entries stored.
func (x *Index) Len() int { return x.n }

// Summary returns the array-wide dominance summary: for each mask, a bound
// never below the maximum of key&m over the entries (zeros when empty).
// It is nil on an array without masks or re-strided past one word. The
// slice is the array's own, valid until its next write.
func (x *Index) Summary() []uint64 { return x.top }

// keyWords is the stride k needs: its significant words, at least one.
func keyWords(k bits.Key) int { return max(1, (k.Len()+63)/64) }

// narrow writes k at the array's stride into buf. ok is false when k has
// bits above the stride, which puts it above every stored key.
func (x *Index) narrow(k bits.Key, buf *[bits.KeyWords]uint64) (p []uint64, ok bool) {
	if k.Len() > 64*x.w {
		return nil, false
	}
	p = buf[:x.w]
	k.Low(p)
	return p, true
}

func cmpWords(a, b []uint64) int {
	for i, v := range a {
		if v != b[i] {
			if v < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// lowerBound counts the keys of ks (w words each, ascending) below p.
//
//sfc:hotpath
func lowerBound(ks []uint64, w int, p []uint64) int {
	if w == 1 {
		v := p[0]
		i, j := 0, len(ks)
		for i < j {
			m := int(uint(i+j) >> 1)
			if ks[m] < v {
				i = m + 1
			} else {
				j = m
			}
		}
		return i
	}
	i, j := 0, len(ks)/w
	for i < j {
		m := int(uint(i+j) >> 1)
		if cmpWords(ks[m*w:m*w+w], p) < 0 {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

func (lf *leaf) key(s, w int) []uint64 { return lf.keys[s*w : s*w+w] }

// seek returns the leaf and slot of the first entry with key >= p; the
// leaf index is len(x.leaves) when there is none. Only the last leaf whose
// separator is below p can hold smaller keys beside such an entry, so the
// answer is in it or is the first entry of the next one.
//
//sfc:hotpath
func (x *Index) seek(p []uint64) (j, s int) {
	if x.n == 0 {
		return 0, 0
	}
	j = max(lowerBound(x.seps, x.w, p)-1, 0)
	if s = lowerBound(x.leaves[j].keys, x.w, p); s == len(x.leaves[j].ids) {
		return j + 1, 0
	}
	return j, s
}

// first is seek on a caller's key: the leaf and slot of the first entry
// with key >= lo, ok false when there is none.
//
//sfc:hotpath
func (x *Index) first(lo bits.Key) (j, s int, ok bool) {
	var buf [bits.KeyWords]uint64
	p, fits := x.narrow(lo, &buf)
	if !fits {
		return 0, 0, false
	}
	j, s = x.seek(p)
	return j, s, j < len(x.leaves)
}

// Seek returns the entry with the smallest key >= lo (ties broken by
// smallest id). ok is false when no stored key reaches lo. One ordered
// descent: the unit of cost of both searches.
//
//sfc:hotpath
func (x *Index) Seek(lo bits.Key) (key bits.Key, id uint64, ok bool) {
	j, s, ok := x.first(lo)
	if !ok {
		return bits.Key{}, 0, false
	}
	lf := &x.leaves[j]
	return bits.KeyFromLow(lf.key(s, x.w)), lf.ids[s], true
}

// FirstInRange returns the id of the entry with the smallest key in
// [lo, hi] (ties broken by smallest id): Seek(lo), accepted when the key
// does not pass hi. ok is false when the range is empty. This single probe
// is the unit of cost in the paper's analysis: one run access.
//
//sfc:hotpath
func (x *Index) FirstInRange(lo, hi bits.Key) (id uint64, ok bool) {
	j, s, ok := x.first(lo)
	if !ok {
		return 0, false
	}
	lf := &x.leaves[j]
	var buf [bits.KeyWords]uint64
	if q, bounded := x.narrow(hi, &buf); bounded && cmpWords(lf.key(s, x.w), q) > 0 {
		return 0, false
	}
	return lf.ids[s], true
}

// SeekWord is Seek with one-word keys passed as their numeric values, for
// a universe whose keys all fit one (d·k <= 64): no Key is built on the
// way in or out. It sees the one-word keys only — they sort below every
// wider one, so in an array that a wider key has re-strided ok is false
// where Seek would return such a key.
//
// qk prunes by the summaries and then by the keys. The descent lands at
// the first entry at or after lo; the seek moves on to the first leaf from
// there whose summary admits qk (every mask's maximum reaches qk&m),
// passing a block that does not admit it in one test, and answers none
// at all, without a descent, when the array's summary does not. In that
// landing leaf it checks the entries from the landing slot on and answers
// with the first that dominates qk (key&m >= qk&m under every mask); when
// none does, the answer is the first entry of the next leaf that admits
// qk, unchecked. So one call checks the entries of at most one leaf, and
// every entry passed over fails qk under some mask: no entry between lo
// and the answer dominates qk. With qk 0, or on an array without masks,
// SeekWord is Seek.
//
//sfc:hotpath
func (x *Index) SeekWord(lo, qk uint64) (key, id uint64, ok bool) {
	if x.w != 1 {
		k, id, ok := x.Seek(bits.KeyFromUint64(lo))
		if key, fits := k.Uint64(); ok && fits {
			return key, id, true
		}
		return 0, 0, false
	}
	prune := qk != 0 && x.masks != nil
	if prune && !x.admits(x.top, qk) {
		return 0, 0, false
	}
	p := [1]uint64{lo}
	j, s := x.seek(p[:])
	if prune {
		j, s = x.admit(j, s, qk)
	}
	if j == len(x.leaves) {
		return 0, 0, false
	}
	lf := &x.leaves[j]
	return lf.keys[s], lf.ids[s], true
}

// admit moves slot s of leaf j on to the answer SeekWord gives under qk:
// the first dominator of qk from that slot in the first leaf that admits
// qk, else slot 0 of the next leaf that admits it; j is len(x.leaves) when
// there is none. One call checks the entries of at most one leaf.
//
//sfc:hotpath
func (x *Index) admit(j, s int, qk uint64) (int, int) {
	if j, s = x.admitting(j, s, qk); j == len(x.leaves) {
		return j, 0
	}
	if t := x.dominator(x.leaves[j].keys, s, qk); t < len(x.leaves[j].keys) {
		return j, t
	}
	return x.admitting(j+1, 0, qk)
}

// admitting moves slot s of leaf j on to the first leaf from j whose
// summary admits qk, at its first slot; j is len(x.leaves) when none does.
// A leaf whose block does not admit qk is passed with the rest of its
// block.
//
//sfc:hotpath
func (x *Index) admitting(j, s int, qk uint64) (int, int) {
	d := len(x.masks)
	for ; j < len(x.leaves); j, s = j+1, 0 {
		if b := j / blockLeaves; !x.admits(x.blocks[b*d:b*d+d], qk) {
			j = (b+1)*blockLeaves - 1
		} else if x.admits(x.leaves[j].sum, qk) {
			return j, s
		}
	}
	return len(x.leaves), 0
}

// dominator returns the first slot from s of one-word keys ks whose key
// reaches qk under every mask, len(ks) when none does. It tests every mask
// at once (sfc.DominatesWord), which the masks' Z layout allows (see
// WithMasks).
//
//sfc:hotpath
func (x *Index) dominator(ks []uint64, s int, qk uint64) int {
	d := len(x.masks)
	for ; s < len(ks); s++ {
		if sfc.DominatesWord(d, ks[s], qk) {
			return s
		}
	}
	return len(ks)
}

// admits reports whether a summary reaches qk under every mask.
//
//sfc:hotpath
func (x *Index) admits(sum []uint64, qk uint64) bool {
	for i, m := range x.masks {
		if sum[i] < qk&m {
			return false
		}
	}
	return true
}

// FirstInRangeWord is FirstInRange in SeekWord's key form.
//
//sfc:hotpath
func (x *Index) FirstInRangeWord(lo, hi uint64) (id uint64, ok bool) {
	if key, id, ok := x.SeekWord(lo, 0); ok && key <= hi {
		return id, true
	}
	return 0, false
}

// VisitRange calls visit for every entry with key in [lo, hi] in ascending
// (key, id) order, stopping early if visit returns false. visit must not
// modify the array.
func (x *Index) VisitRange(lo, hi bits.Key, visit func(k bits.Key, id uint64) bool) {
	j, s, ok := x.first(lo)
	if !ok {
		return
	}
	var buf [bits.KeyWords]uint64
	q, bounded := x.narrow(hi, &buf)
	for ; j < len(x.leaves); j, s = j+1, 0 {
		lf := &x.leaves[j]
		for ; s < len(lf.ids); s++ {
			k := lf.key(s, x.w)
			if bounded && cmpWords(k, q) > 0 {
				return
			}
			if !visit(bits.KeyFromLow(k), lf.ids[s]) {
				return
			}
		}
	}
}

// locate returns the leaf and slot at which (p, id) is stored or belongs:
// the first entry >= (p, id) of the leaf seek would search, the slot one
// past its end when every entry there is smaller. One key with many ids
// can fill whole leaves, so the position moves on while the next leaf
// still starts below the entry. The array must not be empty.
func (x *Index) locate(p []uint64, id uint64) (j, s int) {
	w := x.w
	for j = max(lowerBound(x.seps, w, p)-1, 0); ; j++ {
		lf := &x.leaves[j]
		s = lowerBound(lf.keys, w, p)
		for s < len(lf.ids) && lf.ids[s] < id && cmpWords(lf.key(s, w), p) == 0 {
			s++
		}
		if s < len(lf.ids) || j+1 == len(x.leaves) {
			return j, s
		}
		if next := &x.leaves[j+1]; next.ids[0] >= id || cmpWords(next.key(0, w), p) != 0 {
			return j, s
		}
	}
}

// Insert adds an entry. Duplicate (key, id) pairs are allowed and stored
// separately.
func (x *Index) Insert(k bits.Key, id uint64) {
	x.widen(keyWords(k))
	w := x.w
	var buf [bits.KeyWords]uint64
	p := buf[:w]
	k.Low(p)
	if x.n == 0 {
		x.leaves = append(x.leaves[:0], x.newLeaf())
		x.seps = append(x.seps[:0], p...)
		x.rebuildBlocks(0)
	}
	j, s := x.locate(p, id)
	if len(x.leaves[j].ids) == leafCap {
		x.split(j)
		if s > leafCap/2 {
			j, s = j+1, s-leafCap/2
		}
	}
	lf := &x.leaves[j]
	lf.keys = lf.keys[:len(lf.keys)+w]
	copy(lf.keys[(s+1)*w:], lf.keys[s*w:])
	copy(lf.keys[s*w:], p)
	lf.ids = slices.Insert(lf.ids, s, id)
	if s == 0 {
		copy(x.seps[j*w:], p)
	}
	x.n++
	// Raise leaf j's summary, its block's and the array's to the new key.
	blk := x.blocks[j/blockLeaves*len(x.masks):]
	for i, m := range x.masks {
		lf.sum[i] = max(lf.sum[i], p[0]&m)
		blk[i] = max(blk[i], p[0]&m)
		x.top[i] = max(x.top[i], p[0]&m)
	}
}

// Delete removes one entry matching (key, id) exactly, reporting whether
// one was found. A leaf that drains, or that fits into a neighbor with
// half a leaf to spare, is merged away.
func (x *Index) Delete(k bits.Key, id uint64) bool {
	var buf [bits.KeyWords]uint64
	p, fits := x.narrow(k, &buf)
	if !fits || x.n == 0 {
		return false
	}
	w := x.w
	j, s := x.locate(p, id)
	if s == len(x.leaves[j].ids) {
		if j, s = j+1, 0; j == len(x.leaves) {
			return false
		}
	}
	lf := &x.leaves[j]
	if lf.ids[s] != id || cmpWords(lf.key(s, w), p) != 0 {
		return false
	}
	lf.keys = slices.Delete(lf.keys, s*w, s*w+w)
	lf.ids = slices.Delete(lf.ids, s, s+1)
	x.n--
	spare := func(a, b int) bool { return len(x.leaves[a].ids)+len(x.leaves[b].ids) <= leafCap/2 }
	switch {
	case len(lf.ids) == 0:
		x.removeLeaf(j)
	case j+1 < len(x.leaves) && spare(j, j+1):
		x.merge(j)
	case j > 0 && spare(j-1, j):
		x.merge(j - 1)
	}
	if s == 0 && j < len(x.leaves) {
		copy(x.seps[j*w:j*w+w], x.leaves[j].keys)
	}
	return true
}

// InsertSorted adds a batch of entries that the caller has already sorted
// in ascending (key, id) order; ids aligns with keys. Passing an unsorted
// batch corrupts the structure. One pass over the leaves merges each run
// of the batch into the leaf it belongs to and rebuilds only those leaves,
// filled to leafFill: a cold array is built bottom-up, a batch that lies
// before or after the stored keys touches one leaf. A batch with fewer
// entries than there are leaves costs less as one descent per entry.
func (x *Index) InsertSorted(keys []bits.Key, ids []uint64) {
	if len(keys) < len(x.leaves) {
		for i, k := range keys {
			x.Insert(k, ids[i])
		}
		return
	}
	if len(keys) == 0 {
		return
	}
	need := x.w
	for _, k := range keys {
		need = max(need, keyWords(k))
	}
	x.widen(need)
	w, old := x.w, x.leaves
	if x.n == 0 {
		old = []leaf{{}}
	}
	out := make([]leaf, 0, len(old)+len(keys)/leafFill+1)
	b := 0
	for j, lf := range old {
		// The batch entries sorting before the next leaf's first entry
		// belong to this leaf; the last leaf takes the rest.
		e := len(keys)
		if j+1 < len(old) {
			nk, nid := bits.KeyFromLow(old[j+1].key(0, w)), old[j+1].ids[0]
			e = b + sort.Search(len(keys)-b, func(i int) bool { return !EntryLess(keys[b+i], ids[b+i], nk, nid) })
		}
		if e == b {
			out = append(out, lf)
			continue
		}
		out = x.mergeLeaf(out, lf, keys[b:e], ids[b:e])
		b = e
	}
	x.leaves = out
	x.n += len(keys)
	x.seps = x.seps[:0]
	for i := range out {
		x.seps = append(x.seps, out[i].key(0, w)...)
	}
	x.rebuildBlocks(0)
}

// mergeLeaf merges one leaf with a sorted run of batch entries into fresh
// leaves of even fill, at most leafFill each, appended to out.
func (x *Index) mergeLeaf(out []leaf, lf leaf, keys []bits.Key, ids []uint64) []leaf {
	w := x.w
	first := len(out)
	total := len(lf.ids) + len(keys)
	nl := (total + leafFill - 1) / leafFill
	per := (total + nl - 1) / nl
	var buf [bits.KeyWords]uint64
	p := buf[:w]
	i, b := 0, 0
	for n := 0; n < total; n++ {
		if n%per == 0 {
			out = append(out, x.newLeaf())
		}
		cur := &out[len(out)-1]
		fromBatch := i == len(lf.ids)
		if b < len(keys) {
			keys[b].Low(p)
			if !fromBatch {
				c := cmpWords(p, lf.key(i, w))
				fromBatch = c < 0 || c == 0 && ids[b] < lf.ids[i]
			}
		}
		if fromBatch {
			cur.keys, cur.ids = append(cur.keys, p...), append(cur.ids, ids[b])
			b++
		} else {
			cur.keys, cur.ids = append(cur.keys, lf.key(i, w)...), append(cur.ids, lf.ids[i])
			i++
		}
	}
	for i := first; i < len(out); i++ {
		x.summarize(&out[i])
	}
	return out
}

// newLeaf returns an empty leaf: the spare, when there is one, or a fresh
// one whose keys, ids and summary share one buffer.
func (x *Index) newLeaf() leaf {
	if lf := x.spare; lf.ids != nil {
		x.spare = leaf{}
		return leaf{keys: lf.keys[:0], ids: lf.ids[:0], sum: lf.sum}
	}
	n := leafCap * (x.w + 1)
	buf := make([]uint64, n+len(x.masks))
	return leaf{keys: buf[: 0 : leafCap*x.w], ids: buf[leafCap*x.w : leafCap*x.w : n], sum: buf[n:]}
}

// summarize sets a leaf's summary to the exact maxima of its keys (one
// word each: an array with masks has a stride of one).
func (x *Index) summarize(lf *leaf) {
	for i, m := range x.masks {
		lf.sum[i] = 0
		for _, k := range lf.keys {
			lf.sum[i] = max(lf.sum[i], k&m)
		}
	}
}

// rebuildBlocks recomputes the block summaries from the one holding leaf
// from onward, after the leaves there have moved or been rebuilt, and the
// array's summary from all of them.
func (x *Index) rebuildBlocks(from int) {
	d := len(x.masks)
	if d == 0 {
		return
	}
	n := (len(x.leaves) + blockLeaves - 1) / blockLeaves * d
	x.blocks = slices.Grow(x.blocks, max(n-len(x.blocks), 0))[:n]
	for j := max(from, 0) / blockLeaves * blockLeaves; j < len(x.leaves); j++ {
		blk := x.blocks[j/blockLeaves*d:][:d]
		if j%blockLeaves == 0 {
			copy(blk, x.leaves[j].sum)
			continue
		}
		for i, v := range x.leaves[j].sum {
			blk[i] = max(blk[i], v)
		}
	}
	clear(x.top)
	for b := 0; b < n; b += d {
		for i, v := range x.blocks[b : b+d] {
			x.top[i] = max(x.top[i], v)
		}
	}
}

// split moves the upper half of full leaf j into a new leaf after it.
func (x *Index) split(j int) {
	w := x.w
	x.leaves = slices.Insert(x.leaves, j+1, x.newLeaf())
	l, r := &x.leaves[j], &x.leaves[j+1]
	h := len(l.ids) / 2
	r.keys, r.ids = append(r.keys, l.keys[h*w:]...), append(r.ids, l.ids[h:]...)
	l.keys, l.ids = l.keys[:h*w], l.ids[:h]
	x.seps = slices.Insert(x.seps, (j+1)*w, r.key(0, w)...)
	x.summarize(l)
	x.summarize(r)
	x.rebuildBlocks(j)
}

// merge appends leaf j+1 to leaf j and removes it.
func (x *Index) merge(j int) {
	l, r := &x.leaves[j], &x.leaves[j+1]
	l.keys, l.ids = append(l.keys, r.keys...), append(l.ids, r.ids...)
	x.summarize(l)
	x.removeLeaf(j + 1)
}

// removeLeaf drops leaf j and rebuilds the blocks from leaf j-1's, which a
// merge may just have refilled.
func (x *Index) removeLeaf(j int) {
	x.spare = x.leaves[j]
	x.leaves = slices.Delete(x.leaves, j, j+1)
	x.seps = slices.Delete(x.seps, j*x.w, j*x.w+x.w)
	x.rebuildBlocks(j - 1)
}

// widen raises the key stride to w words, re-striding every stored key
// (new high words are zero). A no-op unless a key wider than any before
// has arrived, which happens at most KeyWords-1 times in an array's life.
// Past one word the summaries are dropped.
func (x *Index) widen(w int) {
	old := x.w
	if w <= old {
		return
	}
	x.w, x.spare = w, leaf{}
	if w > 1 {
		x.masks, x.blocks, x.top = nil, nil, nil
	}
	restride := func(dst, src []uint64) []uint64 {
		for ; len(src) > 0; src = src[old:] {
			for i := old; i < w; i++ {
				dst = append(dst, 0)
			}
			dst = append(dst, src[:old]...)
		}
		return dst
	}
	if x.n == 0 {
		return
	}
	for i := range x.leaves {
		nl := x.newLeaf()
		nl.keys, nl.ids = restride(nl.keys, x.leaves[i].keys), append(nl.ids, x.leaves[i].ids...)
		x.leaves[i] = nl
	}
	x.seps = restride(nil, x.seps)
}
