package dominance

import (
	mbits "math/bits"
	"sync/atomic"
)

// cornerLine is eight levels of a slice's published corner answers, one
// cache line (an allocation of whole lines is aligned to a line): the
// top-cube probes of every query read them, and no slot's lock shares
// their lines.
//
// The top cube a query probes first has side 2^L for a level L in 0..k,
// and its key range is the suffix [lo(L), MAX] of the key space
// (sfc.ZCurve.TopCubeRangeWord), whatever the query: so a slice's answer
// at level L is its first entry (key, id) with key >= lo(L), and level
// L's word names it (cornerEntry.word). A writer publishes the words
// under the slot's write lock wherever it publishes the summary mirror,
// and in the same order against the boundary table: an insert lowers the
// levels it now answers, a delete of a published answer raises them to
// its successor, and a migration recomputes both slices' words, the
// shedding slice's after the new table.
type cornerLine [8]atomic.Uint64

// cornerEntry is a level's answer as the writers keep it, under the
// slot's write lock: the zero value is none.
type cornerEntry struct {
	key, id uint64
	ok      bool
}

const (
	// cornerNone is the word of a level the slice holds no entry at, the
	// zero value of a new table.
	cornerNone = 0
	// cornerUnknown is the word of a level whose answer's id does not fit
	// the encoding: a reader that meets it probes under the lock.
	cornerUnknown = ^uint64(0)
)

// found is the entry a seek answered.
func found(key, id uint64, ok bool) cornerEntry {
	if !ok {
		return cornerEntry{}
	}
	return cornerEntry{key, id, true}
}

// word encodes the entry as its level publishes it: cornerNone, the id
// plus one, or cornerUnknown where that does not fit beneath it.
func (e cornerEntry) word() uint64 {
	switch {
	case !e.ok:
		return cornerNone
	case e.id >= cornerUnknown-1:
		return cornerUnknown
	}
	return e.id + 1
}

// below reports whether the entry is an answer ordered at or below (key,
// id).
func (e cornerEntry) below(key, id uint64) bool {
	return e.ok && (e.key < key || e.key == key && e.id <= id)
}

// word returns level L's published word.
//
//sfc:hotpath
func (s *shardSlot) word(level int) *atomic.Uint64 { return &s.corner[level>>3][level&7] }

// setCorner makes e level L's answer, storing its word only when it
// changed. The slot's write lock is held.
func (s *shardSlot) setCorner(level int, e cornerEntry) {
	if s.shadow[level] != e {
		s.shadow[level] = e
		s.word(level).Store(e.word())
	}
}

// firstCornerLevel is the smallest level whose top cube holds key: key >=
// lo(L) exactly when the key's top d·(k−L) bits are all ones.
func (x *ShardedIndex) firstCornerLevel(key uint64) int {
	n := x.cfg.Dims * x.cfg.Bits
	ones := mbits.LeadingZeros64(^(key << uint(64-n)))
	return x.cfg.Bits - ones/x.cfg.Dims
}

// cornerInsert lowers the levels that (key, id), just inserted, now
// answers: those from the smallest top cube holding it up, until one
// whose answer is already at or below it. Answers never rise as the cube
// grows, so no level past that one can change. The slot's write lock is
// held.
func (x *ShardedIndex) cornerInsert(s *shardSlot, key, id uint64) {
	if s.corner == nil {
		return
	}
	for l := x.firstCornerLevel(key); l <= x.cfg.Bits && !s.shadow[l].below(key, id); l++ {
		s.setCorner(l, cornerEntry{key, id, true})
	}
}

// cornerDelete raises the levels that (key, id), just deleted, answered
// to its successor in the slice: one seek, taken only when the entry was
// an answer — then at the smallest top cube holding it, and at a run of
// larger ones. The slot's write lock is held.
func (x *ShardedIndex) cornerDelete(s *shardSlot, key, id uint64) {
	if s.corner == nil {
		return
	}
	was := cornerEntry{key, id, true}
	l := x.firstCornerLevel(key)
	if s.shadow[l] != was {
		return
	}
	next := found(s.arr.SeekWord(key, 0))
	for ; l <= x.cfg.Bits && s.shadow[l] == was; l++ {
		s.setCorner(l, next)
	}
}

// cornerRefresh recomputes every level of the slice's table, one seek a
// level, after a migration changed its entries wholesale. The slot's
// write lock is held.
func (x *ShardedIndex) cornerRefresh(s *shardSlot) {
	if s.corner == nil {
		return
	}
	for l := 0; l <= x.cfg.Bits; l++ {
		lo, _ := x.curve.TopCubeRangeWord(uint64(1) << uint(l))
		s.setCorner(l, found(s.arr.SeekWord(lo, 0)))
	}
}

// topCorner answers the probe of the top cube of side 2^level with no
// lock and no descent: the cube's range is [lo, MAX], so its first entry
// is the first slice's from the one owning lo on whose corner word at the
// level names one — a later slice's keys all lie past lo. It follows
// probe's protocol: the words stand only if the boundary table they were
// routed by is still the published one, and a writer moving entries
// between slices publishes the shedding slice's words only after the new
// table, so an unchanged table vouches for words that still hold every
// entry it routes to them. A word that names no id it can encode sends
// the probe to the locked path.
//
//sfc:hotpath
func (x *ShardedIndex) topCorner(level int) (uint64, bool) {
	var f wordForm
	lo, hi := x.curve.TopCubeRangeWord(uint64(1) << uint(level))
	for {
		tabPtr := x.table.Load()
		w := uint64(cornerNone)
		for i := f.route(*tabPtr, lo); i < len(x.shards) && w == cornerNone; i++ {
			w = x.shards[i].word(level).Load()
		}
		if x.table.Load() != tabPtr {
			continue
		}
		switch w {
		case cornerNone:
			return 0, false
		case cornerUnknown:
			return probe[uint64, wordForm](x, lo, hi, nil)
		}
		return w - 1, true
	}
}
