package dominance

import (
	"slices"
	"sync"
	"sync/atomic"

	"sfccover/internal/bits"
)

const (
	// DefaultCacheSize is the hit memo's ceiling, in entries, selected by
	// Config.CacheSize == 0.
	DefaultCacheSize = 4096
	// memoStripes splits the memo's table so concurrent queries on a
	// ShardedIndex do not serialize on one lock.
	memoStripes = 16
	// memoWays is the tables' associativity (less for a memo too small
	// to fill a set per stripe). At twice as many slots as entries a
	// working set of the configured size loses ~1% of its shapes to set
	// overflow; direct-mapped at the configured size lost over a third.
	memoWays = 8
	// memoSlotsPerEntry is the sizing rule: the memo targets this many
	// slots per entry of the array it fronts.
	memoSlotsPerEntry = 2
)

// hitMemo remembers, per query shape, the one key range that held a
// dominator the last time the shape was searched — the cube the ε-search
// hit, or [k,k] for the key a walk stopped at. Routers re-screen
// identical rectangles every churn round, and a cube (or a cell) inside
// a query's region stays inside it whatever is inserted or deleted, so
// replaying an entry is one probe of its range and a hit there is a
// genuine dominator under any ε. When the point has gone the probe
// misses and the query falls through to the walk, which rewrites (or
// drops) the entry.
//
// The memo only ever holds hits. A miss is not worth remembering: the
// walk answers it exactly in a few seeks, and unlike a hit it would have
// to be invalidated on insert. The key is the query point alone — the
// budget shapes how far a search goes, not which ranges lie in the region.
//
// Admission is two-touch: a shape's first hit is only noted, its second
// is recorded, so one-shot shapes cannot flush the recurring ones. Both
// the notes and the entries live in flat set-associative tables — no
// pointers for the collector to trace, 12 + 4·d bytes per slot plus the
// two keys at the curve's width (44 bytes for a 40-bit key at d = 4) —
// and every replacement is decided by the shape's hash, so which entry
// survives is a function of the query sequence, not of map iteration
// order: two replicas fed the same operations answer identically.
//
// The memo is sized by the array it fronts: at least two slots an entry,
// in a power-of-two number of sets per stripe, from one set per stripe
// (128 slots at 8 ways) up to the ceiling of twice Config.CacheSize
// slots. A replay only pays off where the walk is expensive, and a small
// array's walk is cheap, so a link index of a few dozen entries carries
// a few KiB of memo rather than the ceiling's 0.35 MiB. It never shrinks:
// a delete leaves it as large as the array was.
type hitMemo struct {
	dims     int
	keyWords int // 64-bit words of a curve key
	ways     int // slots per set
	maxSets  int // sets per stripe at the ceiling
	// target is the sets per stripe the array's population asks for:
	// fit only raises it, and learn brings a stripe up to it.
	target  atomic.Int32
	stripes [memoStripes]memoStripe
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// The states of a memo slot.
const (
	slotFree = iota
	slotLive
	slotUsed
)

// memoStripe is one lock domain of the memo; its tables are allocated on
// the first note, so an index that never repeats a hit never pays for
// them, and reallocated on the first note after the target outgrew them.
// Slot (set, way) is index set·ways + way of each table.
type memoStripe struct {
	mu sync.Mutex
	// sets is the tables' set count: 0 until the first note.
	sets int
	// seen is the admission filter: per set, the hashes of up to ways
	// shapes noted there and not yet recorded (0 marks a free place).
	seen []uint64
	// shapes holds dims+1 words per slot: the query point, then the
	// slot's state — slotFree, slotLive, or slotUsed once it has replayed
	// since it was last up for eviction.
	shapes []uint32
	// spans holds 2·keyWords words per slot: the low words of the
	// range's first and last key.
	spans []uint64
}

// newHitMemo builds an empty memo whose ceiling is size entries
// (DefaultCacheSize when 0) at twice as many slots — its hard bound — so
// that size recurring shapes fit despite uneven sets. It starts at one
// set per stripe; fit grows it.
func newHitMemo(size int, cfg Config) *hitMemo {
	if size == 0 {
		size = DefaultCacheSize
	}
	perStripe := max(2*size/memoStripes, 1)
	ways := min(memoWays, perStripe)
	m := &hitMemo{
		dims:     cfg.Dims,
		keyWords: (cfg.Dims*cfg.Bits + 63) / 64,
		ways:     ways,
		maxSets:  perStripe / ways,
	}
	m.target.Store(1)
	return m
}

// fit raises the memo's target to the sets per stripe an array of n
// entries asks for: the smallest power of two giving memoSlotsPerEntry
// slots an entry, capped at the ceiling. Writers call it after each
// insert; the stripes follow on their next note.
func (m *hitMemo) fit(n int) {
	if m == nil {
		return
	}
	cur := m.target.Load()
	want := cur
	for int(want) < m.maxSets && int(want)*m.ways*memoStripes < memoSlotsPerEntry*n {
		want *= 2
	}
	want = min(want, int32(m.maxSets))
	for want > cur && !m.target.CompareAndSwap(cur, want) {
		cur = m.target.Load()
	}
}

// slots reports the slot count the memo is sized to (for tests).
func (m *hitMemo) slots() int {
	return int(m.target.Load()) * m.ways * memoStripes
}

// stats reports queries answered by replay and queries that went on to
// search.
func (m *hitMemo) stats() (hits, misses uint64) {
	if m == nil {
		return 0, 0
	}
	return m.hits.Load(), m.misses.Load()
}

// shapeHash mixes the query point into the memo's slot hash: an FNV-style
// fold of the coordinates, then the 64-bit finalizer of MurmurHash3 so
// that the low bits, which pick the stripe and the set, depend on every
// coordinate bit.
func shapeHash(q []uint32) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range q {
		h = (h ^ uint64(v)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// stripe returns the lock domain of h.
func (m *hitMemo) stripe(h uint64) *memoStripe {
	return &m.stripes[h%memoStripes]
}

// base returns the first slot of h's set in s; the caller holds the
// stripe's lock, and the stripe has tables.
func (m *hitMemo) base(s *memoStripe, h uint64) int {
	return int(h/memoStripes%uint64(s.sets)) * m.ways
}

// shape returns a slot's query point and live flag; the caller holds
// the stripe's lock.
func (m *hitMemo) shape(s *memoStripe, slot int) []uint32 {
	return s.shapes[slot*(m.dims+1) : (slot+1)*(m.dims+1)]
}

// span returns a slot's key range words; the caller holds the stripe's
// lock.
func (m *hitMemo) span(s *memoStripe, slot int) []uint64 {
	return s.spans[slot*2*m.keyWords : (slot+1)*2*m.keyWords]
}

// find returns the live slot of q in the set starting at base, or -1;
// the caller holds the stripe's lock.
func (m *hitMemo) find(s *memoStripe, base int, q []uint32) int {
next:
	for slot := base; slot < base+m.ways; slot++ {
		shape := m.shape(s, slot)
		if shape[m.dims] == slotFree {
			continue
		}
		for i, v := range q {
			if v != shape[i] {
				continue next
			}
		}
		return slot
	}
	return -1
}

// replay answers q from its entry, if it has one, with one probe of the
// memoized range. had reports that an entry existed; had without found
// is a stale entry. A query that ends on PathMemo has therefore probed
// exactly once (begin zeroed its Stats), which the engine's counters rely
// on.
//
//sfc:hotpath
func (m *hitMemo) replay(arr ordered, h uint64, q []uint32, stats *Stats) (id uint64, found, had bool) {
	w := m.keyWords
	var buf [2 * bits.KeyWords]uint64
	span := buf[:2*w]
	s := m.stripe(h)
	s.mu.Lock()
	if s.sets > 0 {
		if slot := m.find(s, m.base(s, h), q); slot >= 0 {
			m.shape(s, slot)[m.dims] = slotUsed
			copy(span, m.span(s, slot))
			had = true
		}
	}
	s.mu.Unlock()
	if had {
		stats.RunsProbed++
		// Spans are stored as words: a one-word key never becomes a Key.
		if w == 1 {
			id, found = arr.FirstInRangeWord(span[0], span[1])
		} else {
			id, found = arr.FirstInRange(bits.KeyFromLow(span[:w]), bits.KeyFromLow(span[w:]))
		}
	}
	if !found {
		m.misses.Add(1)
		return 0, false, had
	}
	m.hits.Add(1)
	stats.Path = PathMemo
	stats.Found = true
	return id, true, true
}

// learn folds a searched query's outcome into the memo: a hit in the key
// range hit (queryScratch.hit's form: the low words of its first key,
// then of its last) is noted on its shape's first touch and recorded on the
// second (or at once, over a stale entry — the shape has already proven
// it recurs); a miss drops the stale entry it fell through. In a full
// set the newcomer's hash picks the victim, and a victim that has
// replayed since it was last picked gets a second chance: recurring
// shapes that overflow a set stay out instead of rotating the residents
// out one by one, while entries nobody asks for any more are replaced.
//
// A stripe whose tables are smaller than the target restarts cold at the
// target size, as at construction: its entries and notes are dropped,
// not rehashed. That happens at most once per doubling, and — like every
// other decision here — only as a function of the operation sequence.
//
//sfc:hotpath
func (m *hitMemo) learn(h uint64, q []uint32, hit []uint64, found, stale bool) {
	if !found && !stale {
		return
	}
	s := m.stripe(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sets := int(m.target.Load()); s.sets < sets {
		slots := sets * m.ways
		s.sets = sets
		s.seen = make([]uint64, slots)
		s.shapes = make([]uint32, slots*(m.dims+1))
		s.spans = make([]uint64, slots*2*m.keyWords)
	}
	base := m.base(s, h)
	slot := m.find(s, base, q)
	if !found {
		if slot >= 0 {
			m.shape(s, slot)[m.dims] = slotFree
		}
		return
	}
	if slot < 0 {
		seen := s.seen[base : base+m.ways]
		noted := slices.Index(seen, h)
		if noted < 0 {
			// First touch: note it in a free place, else where the hash
			// picks (a FIFO here would drop every note of a set that
			// recurs with one shape more than it has places).
			if noted = slices.Index(seen, 0); noted < 0 {
				noted = int((h >> 48) % uint64(m.ways))
			}
			seen[noted] = h
			return
		}
		// Second touch: take a free way, else the one the hash picks.
		slot = base + int((h>>32)%uint64(m.ways))
		for w := base; w < base+m.ways; w++ {
			if m.shape(s, w)[m.dims] == slotFree {
				slot = w
				break
			}
		}
		if state := &m.shape(s, slot)[m.dims]; *state == slotUsed {
			*state = slotLive
			return
		}
		seen[noted] = 0
	}
	shape := m.shape(s, slot)
	copy(shape, q)
	shape[m.dims] = slotLive
	copy(m.span(s, slot), hit)
}

// len reports the live entry count (for tests).
func (m *hitMemo) len() int {
	n := 0
	for si := range m.stripes {
		s := &m.stripes[si]
		s.mu.Lock()
		for i := m.dims; i < len(s.shapes); i += m.dims + 1 {
			if s.shapes[i] != slotFree {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
