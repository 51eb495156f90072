package dominance

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sfccover/internal/bits"
	"sfccover/internal/obs"
	"sfccover/internal/sfc"
	"sfccover/internal/sfcarray"
)

// ShardedIndex is the SFC dominance index partitioned by key range: shard
// i owns a contiguous slice of the curve's key space, each slice backed by
// its own SFC array behind its own read-write lock.
//
// The layout exploits the same structural fact as the search itself: the
// searches only ever ask the array for the first entry at or after a key,
// so a query computes its cursors and cube ranges ONCE — outside any
// lock — and routes each seek or probe only to the slices it concerns
// (usually exactly one; a range can straddle a slice boundary, and a seek
// runs on into the next slice when its own holds nothing further).
// Compared to running one full search per shard, the key arithmetic is
// never duplicated, and concurrent queries share only the brief
// per-descent read locks of the shards they actually search. A walk's seek
// that runs on past its own slice first reads each later slice's
// dominance summary, mirrored in atomics outside the lock, and passes a
// slice that cannot hold a dominator of the query without locking it.
// Updates lock a single shard for one ordered-structure operation.
//
// Slice boundaries are MOVABLE at runtime: routing goes through an
// atomically swapped boundary table, and EqualizePair migrates a key
// subrange between adjacent slices under a short write barrier (the two
// slices' write locks). Readers never block on a migration that does not
// touch the slices they probe; a probe that overlaps a boundary swap
// detects the stale table and retries against the fresh one, so answers
// are always consistent with some table the index actually published.
//
// A sharded query computes the same cursors and cube ranges as a
// single-array query over the same point set, and its answer (and
// approximation guarantee) is identical to an unsharded Index. Its walk's
// step count need not be: a seek passes the leaves whose summaries rule
// out a dominator, and the slices' leaves are not the single array's, so
// the two may skip different stretches of keys on the way to the same
// answer. Boundary moves relocate entries between slices without ever
// dropping or duplicating one, so the equivalence holds before, during
// and after a rebalance.
type ShardedIndex struct {
	dispatch
	shards []shardSlot
	// probeHist, when set via SetObserver, receives sampled descent
	// latencies.
	probeHist *obs.Histogram
	// scratchPool hands each concurrent query its own reusable buffers.
	scratchPool sync.Pool

	// table points at the current boundary table: table[i] is the first
	// key slice i owns, table[0] is the zero key, and slice i ends where
	// slice i+1 begins (the last slice is unbounded above); of a run of
	// slices with equal starts the last owns the keys and the others own
	// none. Swapped atomically — never mutated in place — so lock-free
	// readers always observe a complete table.
	table atomic.Pointer[[]bits.Key]
	// moveMu serializes boundary movers: concurrent EqualizePair calls on
	// disjoint pairs would otherwise lose each other's table swap.
	moveMu sync.Mutex
}

type shardSlot struct {
	mu  sync.RWMutex
	arr sfcarray.Index
	// sum mirrors arr.Summary(), one word holding every curve mask's
	// maximum (0 when the keys are wider than a word, where no seek prunes;
	// on one-word keys an array is never re-strided, so it keeps its
	// summary), for seeks that read it without mu. It is stored under the
	// write lock after every change to arr, and never falls below arr's
	// summary while the slice holds the entries it bounds: see publish. An
	// empty array's summary is zero, as is a new mirror.
	sum *summaryMirror
}

// summaryMirror is a slice's summary mirror alone on a cache line (an
// allocation of 64 bytes is aligned to 64): seeks of every slice read it,
// and no slot's lock, which that slot's readers write, shares its line.
type summaryMirror struct {
	atomic.Uint64
	_ [56]byte
}

// publish mirrors the slice's array summary into sum, storing it only when
// it changed. The slot's write lock is held. A slice that sheds entries to
// a neighbor publishes only after the new boundary table is: until then a
// seek routed by the old table may still look for the moved entries here,
// and a lowered mirror would let it pass them while the table it checks
// still vouches for its answer.
func (s *shardSlot) publish() {
	if v := s.arr.Summary(); s.sum.Load() != v {
		s.sum.Store(v)
	}
}

// admits reports whether the slice's mirrored summary reaches qk under
// every one of the curve's d masks: whether it may hold a dominator of qk.
//
//sfc:hotpath
func (s *shardSlot) admits(d int, qk uint64) bool {
	return sfc.DominatesWord(d, s.sum.Load(), qk)
}

// NewSharded builds a key-range sharded dominance index with n shards.
// An index is born with every boundary at the zero key — the last slice
// owns the whole key space — because where the boundaries belong is a
// property of the keys present, not of the key space: ChooseBoundaries
// places them when a bulk load arrives, and EqualizePair moves them as the
// population drifts.
func NewSharded(cfg Config, n int) (*ShardedIndex, error) {
	if n < 1 {
		return nil, fmt.Errorf("dominance: invalid shard count %d", n)
	}
	d, err := newDispatch(cfg)
	if err != nil {
		return nil, err
	}
	x := &ShardedIndex{
		dispatch: d,
		shards:   make([]shardSlot, n),
	}
	for i := range x.shards {
		x.shards[i].arr = d.newArray()
		x.shards[i].sum = new(summaryMirror)
	}
	x.scratchPool.New = func() any { return new(queryScratch) }
	starts := make([]bits.Key, n)
	x.table.Store(&starts)
	return x, nil
}

// sampleKeysPerSlice sizes the sample ChooseBoundaries takes: a slice's
// share of the load is then off by about 1/sqrt(128), 9 %, whatever the
// slice count.
const sampleKeysPerSlice = 128

// ChooseBoundaries places the slice boundaries of an EMPTY index at the
// quantiles of the batch about to be loaded into it — keys, KeyStride
// words each, as AppendKey lays them out — so the load lands evenly; on an
// index that holds anything it does nothing. The quantiles are read off a
// stride sample of at most sampleKeysPerSlice keys a slice — sorting the
// sample, not the batch — and the picks are a function of the batch size
// alone, so two loads of the same sequence choose the same table. Equal
// quantiles (a hot key, a batch smaller than the slice count) leave slices
// that own no key, which routing permits. The swap follows EqualizePair's
// protocol with every slice's write lock held, so it is safe beside any
// other operation.
func (x *ShardedIndex) ChooseBoundaries(keys []uint64) {
	w := x.KeyStride()
	n := len(keys) / w
	if len(x.shards) < 2 || n == 0 || x.Len() > 0 {
		return
	}
	most := sampleKeysPerSlice * len(x.shards)
	stride := (n + most - 1) / most
	picks := (n + stride - 1) / stride
	sample := make([]uint64, 0, picks*w)
	for i := 0; i < n; i += stride {
		// One pick a stride window, at an offset hashed from the window's
		// start: picking the start itself aliases with any periodic order
		// (an engine's id-sorted dump cycles through its stripes, which
		// were key slices once) and samples a few phases of it only.
		j := min(i+int(uint32(i)*2654435761>>8)%stride, n-1)
		sample = append(sample, keys[j*w:j*w+w]...)
	}
	sample, _ = SortBatch(sample, w, make([]uint64, picks))
	starts := make([]bits.Key, len(x.shards))
	for i := 1; i < len(starts); i++ {
		p := i * picks / len(starts)
		starts[i] = bits.KeyFromLow(sample[p*w : p*w+w])
	}

	x.moveMu.Lock()
	defer x.moveMu.Unlock()
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	for i := range x.shards {
		if x.shards[i].arr.Len() > 0 {
			return // an insert won the race; its slice keeps its keys
		}
	}
	x.table.Store(&starts)
}

// NumShards returns the shard count.
func (x *ShardedIndex) NumShards() int { return len(x.shards) }

// Boundaries returns a copy of the current boundary table: element i is
// the first key slice i owns (element 0 is always the zero key).
func (x *ShardedIndex) Boundaries() []bits.Key {
	tab := *x.table.Load()
	return append([]bits.Key(nil), tab...)
}

// AppendLayout appends a canonical encoding of the index's layout to dst:
// the boundary table, then every slice's array layout
// (sfcarray.Index.AppendLayout), each read under the slice's read lock.
func (x *ShardedIndex) AppendLayout(dst []byte) []byte {
	for _, k := range *x.table.Load() {
		var w [bits.KeyWords]uint64
		k.Low(w[:])
		for _, v := range w {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.RLock()
		dst = s.arr.AppendLayout(dst)
		s.mu.RUnlock()
	}
	return dst
}

// routeKey maps a curve key to the slice owning it under the given table:
// the last slice whose start is <= k.
//
//sfc:hotpath
func routeKey(tab []bits.Key, k bits.Key) int {
	i := len(tab) - 1
	for i > 0 && k.Less(tab[i]) {
		i--
	}
	return i
}

// Len returns the number of indexed points.
func (x *ShardedIndex) Len() int {
	n := 0
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.RLock()
		n += s.arr.Len()
		s.mu.RUnlock()
	}
	return n
}

// ShardSizes returns the per-shard point counts.
func (x *ShardedIndex) ShardSizes() []int {
	return x.ShardSizesInto(make([]int, len(x.shards)))
}

// ShardSizesInto is ShardSizes into sizes, which must hold NumShards
// counts, for callers that read the layout often and keep a buffer.
func (x *ShardedIndex) ShardSizesInto(sizes []int) []int {
	sizes = sizes[:len(x.shards)]
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.RLock()
		sizes[i] = s.arr.Len()
		s.mu.RUnlock()
	}
	return sizes
}

// Location is a point's curve key routed to the slice that owns it under
// one boundary table: what Locate computes once and InsertAt and DeleteAt
// consume, so a caller that co-partitions its own state by slice (the
// engine's store stripes) encodes and routes the key once for both.
type Location struct {
	Key   bits.Key
	Slice int
	tab   *[]bits.Key // the table Slice was routed by
}

// Locate encodes p's curve key and routes it under the current table, on
// one word where the keys fit one (wordForm's route reads the table's low
// words; no eight-word key is built or compared).
func (x *ShardedIndex) Locate(p []uint32) Location {
	if x.cfg.WordKeys() {
		return x.LocateWord(x.curve.KeyWord(p))
	}
	tab := x.table.Load()
	k := x.curve.Key(p)
	return Location{Key: k, Slice: routeKey(*tab, k), tab: tab}
}

// LocateWord routes a one-word key the caller already holds (what
// Locate's Key carries where the keys fit one word) under the current
// table, encoding nothing.
func (x *ShardedIndex) LocateWord(w uint64) Location {
	tab := x.table.Load()
	return Location{Key: bits.KeyFromUint64(w), Slice: wordForm{}.route(*tab, w), tab: tab}
}

// lock write-locks the slice owning loc's key and returns it. The route is
// validated once the lock is held, first by table identity — the check
// probe uses: tables are never reused, and a move publishes only while
// holding the write locks of the slices it touches, so while this slice is
// locked an unchanged table still routes the key here — and only when the
// table changed by routing again. A route a concurrent boundary move
// invalidated retries under the fresh table.
func (x *ShardedIndex) lock(loc Location) *shardSlot {
	for {
		slot := &x.shards[loc.Slice]
		slot.mu.Lock()
		cur := x.table.Load()
		if cur == loc.tab {
			return slot
		}
		s := routeKey(*cur, loc.Key)
		if s == loc.Slice {
			return slot
		}
		slot.mu.Unlock()
		loc.tab, loc.Slice = cur, s
	}
}

// Insert indexes point p under the given id, locking only its home slice.
func (x *ShardedIndex) Insert(p []uint32, id uint64) { x.InsertAt(x.Locate(p), id) }

// InsertAt indexes id under a key Locate routed, locking only the slice
// that owns it (which a boundary move since Locate may have changed).
func (x *ShardedIndex) InsertAt(loc Location, id uint64) {
	slot := x.lock(loc)
	slot.arr.Insert(loc.Key, id)
	slot.publish()
	slot.mu.Unlock()
}

// InsertBatch indexes a group of points, aligned with ids: InsertKeys on
// their keys.
func (x *ShardedIndex) InsertBatch(ps [][]uint32, ids []uint64) {
	x.InsertKeys(x.appendKeys(nil, ps), ids)
}

// InsertKeys indexes a batch of keys, KeyStride words each as AppendKey
// lays them out, under ids, aligned; the caller's slices are left as they
// are. The batch is sorted once, outside any lock (SortBatch), and
// loaded as InsertSorted loads it.
func (x *ShardedIndex) InsertKeys(keys, ids []uint64) {
	keys, ids = SortBatch(keys, x.KeyStride(), ids)
	x.InsertSorted(keys, ids)
}

// InsertSorted indexes a batch already in (key, id) order, keys
// KeyStride words each, as SortBatch returns it; the caller's slices are
// only read. The sorted run is cut at the slice boundaries — each slice's
// share is contiguous, because the partition follows key order — and
// bulk-loaded into its slice through the array's sorted-batch path under
// one write lock. Only one slice lock is held at a time, so concurrent
// batches cannot deadlock. A share whose slice a concurrent boundary move
// has changed keeps what the slice still owns and defers the rest, in
// order, to another round under the fresh table.
func (x *ShardedIndex) InsertSorted(keys, ids []uint64) {
	w := x.KeyStride()
	for len(ids) > 0 {
		keys, ids = x.loadShares(x.table.Load(), keys, w, ids)
	}
}

// Cut returns where the current table cuts a batch in (key, id) order,
// keys KeyStride words each: slice i owns entries [cut[i], cut[i+1]).
func (x *ShardedIndex) Cut(keys []uint64) []int {
	tab, w := *x.table.Load(), x.KeyStride()
	cut := make([]int, len(x.shards)+1)
	for i := 1; i < len(cut); i++ {
		cut[i] = owned(tab, i, keys, w)
	}
	return cut
}

// loadShares cuts a sorted batch at tab's slice boundaries and loads each
// slice's share under its write lock. A share whose slice a boundary move
// since tab has changed keeps what the slice owns under the published
// table — routes read while the slice's write lock is held are stable for
// it — and the rest is returned, still in order, for another round.
func (x *ShardedIndex) loadShares(tabPtr *[]bits.Key, keys []uint64, w int, ids []uint64) (deferKeys, deferIDs []uint64) {
	lo := 0
	for i := range x.shards {
		hi := owned(*tabPtr, i+1, keys, w)
		if hi == lo {
			continue
		}
		a, b := lo, hi
		slot := &x.shards[i]
		slot.mu.Lock()
		if cur := x.table.Load(); cur != tabPtr {
			a = min(max(owned(*cur, i, keys, w), lo), hi)
			b = min(max(owned(*cur, i+1, keys, w), a), hi)
			deferKeys = append(append(deferKeys, keys[lo*w:a*w]...), keys[b*w:hi*w]...)
			deferIDs = append(append(deferIDs, ids[lo:a]...), ids[b:hi]...)
		}
		slot.arr.InsertSortedWords(keys[a*w:b*w], w, ids[a:b])
		slot.publish()
		slot.mu.Unlock()
		lo = hi
	}
	return deferKeys, deferIDs
}

// owned returns how many entries of a sorted batch (keys w words each)
// sort below slice i's start under tab: the first entry slice i owns, the
// batch's length past the last slice. Of slices with equal starts the
// last owns the keys, as routeKey has it.
func owned(tab []bits.Key, i int, keys []uint64, w int) int {
	n := len(keys) / w
	if i == 0 {
		return 0
	}
	if i == len(tab) {
		return n
	}
	var buf [bits.KeyWords]uint64
	start := buf[:w]
	tab[i].Low(start)
	return sort.Search(n, func(j int) bool { return slices.Compare(keys[j*w:j*w+w], start) >= 0 })
}

// DeleteAt removes the (key, id) entry under a key Locate or LocateWord
// routed, reporting whether it existed: InsertAt's mirror, locking only
// the slice that owns the key.
func (x *ShardedIndex) DeleteAt(loc Location, id uint64) bool {
	slot := x.lock(loc)
	ok := slot.arr.Delete(loc.Key, id)
	slot.publish()
	slot.mu.Unlock()
	return ok
}

// probe answers one run probe by visiting only the shards whose key
// slices intersect [lo, hi] — contiguous in shard order because the
// partition follows key order. Any outcome is accepted only if the
// boundary table did not change across the probe: a migration publishes
// its new table before releasing the write barrier, so an unchanged
// table proves the probed slices covered [lo, hi] in full and in order.
// A changed table sends the probe back around: a miss could have skipped
// migrated entries, and even a genuine hit could be non-minimal (a
// migration can move the range's smallest entry into a slice this probe
// had already passed), which would break the bit-identical-answers
// guarantee the sharded index gives against the single-array one. Every
// slice visited is counted against tr (nil-safe). Written once over the
// key form (see keyForm), like seek below.
//
//sfc:hotpath
func probe[K comparable, F keyForm[K]](x *ShardedIndex, lo, hi K, tr *obs.QueryTrace) (uint64, bool) {
	var f F
	for {
		tabPtr := x.table.Load()
		first, last := f.route(*tabPtr, lo), f.route(*tabPtr, hi)
		var id uint64
		ok := false
		for i := first; i <= last && !ok; i++ {
			tr.TouchSlice(i)
			s := &x.shards[i]
			s.mu.RLock()
			id, ok = f.firstInRange(&s.arr, lo, hi)
			s.mu.RUnlock()
		}
		if x.table.Load() == tabPtr {
			return id, ok
		}
	}
}

// seek answers one step of the successor walk: the entry with the
// smallest key >= lo across the slices — past the leaves whose summaries
// rule out a dominator of qk — starting in the slice that owns lo and
// running on through the later ones until one holds such an entry. A
// slice whose mirrored summary rules out a dominator of qk is passed
// unlocked and untraced. It follows probe's protocol exactly — an answer
// stands only if the boundary table it was routed by is still the
// published one — so a seek that crosses a swapped table retries and never
// skips an entry a migration moved behind it: a mirror lowered by a
// migration is stored after the table that moved its entries.
//
//sfc:hotpath
func seek[K comparable, F keyForm[K]](x *ShardedIndex, lo K, qk uint64, tr *obs.QueryTrace) (K, uint64, bool) {
	var f F
	for {
		tabPtr := x.table.Load()
		var (
			key K
			id  uint64
			ok  bool
		)
		for i := f.route(*tabPtr, lo); i < len(x.shards) && !ok; i++ {
			s := &x.shards[i]
			if qk != 0 && !s.admits(x.curve.Dims(), qk) {
				continue
			}
			tr.TouchSlice(i)
			s.mu.RLock()
			key, id, ok = f.seek(&s.arr, lo, qk)
			s.mu.RUnlock()
		}
		if x.table.Load() == tabPtr {
			return key, id, ok
		}
	}
}

// EqualizePair moves the boundary between adjacent slices i and i+1 so
// the two populations end as close to equal as the key distribution
// allows, migrating the entries of the shifted key subrange from the
// shrinking slice into its neighbor. The whole move runs under the two
// slices' write locks — the "short write barrier": the drained subrange
// is bulk-loaded into the neighbor with the sorted-batch path, the
// shrinking slice sheds it either by deleting the moved entries (small
// nudges) or by a cold rebuild from its kept entries (large moves), and
// the new boundary table is published before the barrier lifts: between
// the receiving slice's summary mirror and the shedding slice's. Entries
// sharing
// one key never split across a boundary (deletes route by key), so a
// pair whose merged population is a single key cannot move.
//
// It returns the number of entries migrated; 0 means the pair is already
// as balanced as its keys permit. It never blocks queries outside the
// two slices and is safe to call concurrently with any other operation.
func (x *ShardedIndex) EqualizePair(i int) (migrated int) {
	if i < 0 || i+1 >= len(x.shards) {
		return 0
	}
	x.moveMu.Lock()
	defer x.moveMu.Unlock()
	a, b := &x.shards[i], &x.shards[i+1]
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()

	na := a.arr.Len()
	nb := b.arr.Len()
	total := na + nb
	if total == 0 {
		return 0
	}
	// A split's imbalance |2s−total| can never beat the current
	// |na−nb| when the pair is already within one entry of even, so
	// skip the O(na+nb) gather for pairs that cannot improve.
	if abs(na-nb) <= 1 {
		return 0
	}
	// Gather both populations as words, whole leaves at a time. Each
	// array lists its entries in order and every key in slice i precedes
	// every key in slice i+1, so the concatenation is sorted — exactly
	// what the bulk-load path needs.
	w := x.KeyStride()
	keys, ids := a.arr.AppendEntries(make([]uint64, 0, total*w), w, make([]uint64, 0, total))
	keys, ids = b.arr.AppendEntries(keys, w, ids)

	split := splitPoint(keys, w, na)
	if split < 0 || split == na {
		return 0
	}
	shed, gain := a, b
	if split < na {
		// Slice i sheds its top subrange [keys[split], ...) rightward.
		migrated = na - split
		x.shrinkSlice(a, keys, w, ids, 0, split, split, na)
		b.arr.InsertSortedWords(keys[split*w:na*w], w, ids[split:na])
	} else {
		// Slice i+1 sheds its bottom subrange leftward.
		migrated = split - na
		shed, gain = b, a
		x.shrinkSlice(b, keys, w, ids, split, total, na, split)
		a.arr.InsertSortedWords(keys[na*w:split*w], w, ids[na:split])
	}
	gain.publish()
	old := *x.table.Load()
	starts := append([]bits.Key(nil), old...)
	starts[i+1] = bits.KeyFromLow(keys[split*w : split*w+w])
	x.table.Store(&starts)
	shed.publish()
	return migrated
}

// shrinkSlice removes a migrated subrange from a slice: kept entries are
// entries [keptLo, keptHi), moved ones [movedLo, movedHi) of the gathered
// pair population (keys w words each). A small nudge drains the moved
// entries one delete at a time — O(m log n) — while a large move
// rebuilds the structure cold from the kept entries with the sorted bulk
// build, so the write barrier pays min(drain, rebuild). Both slice locks
// are held by the caller.
func (x *ShardedIndex) shrinkSlice(slot *shardSlot, keys []uint64, w int, ids []uint64, keptLo, keptHi, movedLo, movedHi int) {
	kept := keptHi - keptLo
	moved := movedHi - movedLo
	if moved*4 <= kept {
		for j := movedLo; j < movedHi; j++ {
			if !slot.arr.Delete(bits.KeyFromLow(keys[j*w:j*w+w]), ids[j]) {
				panic("dominance: migration lost an entry")
			}
		}
		return
	}
	slot.arr = x.newArray()
	slot.arr.InsertSortedWords(keys[keptLo*w:keptHi*w], w, ids[keptLo:keptHi])
}

// splitPoint picks the split index nearest total/2 (keys w words each) that does not divide a
// run of equal keys (entries at the boundary key must all land in the
// right slice, where deletes will route them). Within each direction the
// imbalance |2s−total| grows monotonically with distance from the middle,
// so the best admissible split overall is the better of the first
// admissible candidate below the middle and the first at or above it.
// It returns -1 when no admissible split exists or the best one does not
// strictly improve on the current division at na.
func splitPoint(keys []uint64, w, na int) int {
	total := len(keys) / w
	admissible := func(s int) bool {
		return s > 0 && s < total && slices.Compare(keys[(s-1)*w:s*w], keys[s*w:s*w+w]) < 0
	}
	best := -1
	for s := total / 2; s > 0; s-- {
		if admissible(s) {
			best = s
			break
		}
	}
	for s := total/2 + 1; s < total; s++ {
		if admissible(s) {
			if best == -1 || abs(2*s-total) < abs(2*best-total) {
				best = s
			}
			break
		}
	}
	if best == -1 || abs(2*best-total) >= abs(2*na-total) {
		return -1
	}
	return best
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Query answers a point dominance query at q with the same semantics,
// answers and Stats as (*Index).Query. Cursors and cube ranges are
// computed unlocked and routed to the slices; RunsProbed counts logical
// descents (one that visits several slices is counted once).
func (x *ShardedIndex) Query(q []uint32, eps float64) (uint64, bool, Stats, error) {
	var st Stats
	id, ok, err := x.QueryInto(q, eps, nil, &st)
	return id, ok, st, err
}
