// Package persist makes subscription state durable: a write-ahead log of
// add/remove records riding the binary subscription wire encoding
// (length-prefixed, CRC32-protected, segment-rotated) plus point-in-time
// snapshots, with log compaction after each snapshot. What is persisted is
// the subscription set itself — never the derived cube/curve index, which
// recovery rebuilds through the engine's sorted bulk-load path — so the
// durable form stays compact and survives index-layout changes.
//
// A Store owns one data dir and every link namespace inside it; a
// DurableProvider wraps any core.Provider with logging and recovery for
// one link, and from then on that provider holds the link's state: the
// store keeps an in-memory copy only of the links nobody wraps. An append
// copies its records into the open segment's shared mapping (reserved
// ahead with fallocate), so it makes no syscall; rotation and Close cut
// the unwritten reserve off again. Crash tolerance is the
// package's contract: appends are sequential, so a crash leaves at most a
// torn tail record in the newest segment, followed by the zeros of the
// reserve, which replay drops silently; any damage a crash cannot explain
// (broken records mid-stream, checksum-failing snapshots) is refused with
// ErrCorrupt instead of silently dropping subscriptions. Snapshots land
// via temp-file + fsync + atomic rename, and old segments are deleted only
// after the snapshot that supersedes them is durable, so recovery always
// has a consistent base to start from.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

// DefaultSegmentBytes is the WAL rotation threshold when Options leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 4 << 20

// Options parameterizes a Store.
type Options struct {
	// SegmentBytes rotates the WAL to a fresh segment once the current one
	// crosses this size (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// Sync fsyncs the segment after every append, which writes the
	// mapped pages the append copied into back to the device. Off by
	// default: the process-crash guarantee (torn-tail tolerance; an acked
	// record is in the page cache) holds either way, Sync additionally
	// bounds loss on power failure at a heavy throughput cost. Snapshots
	// are always fsynced regardless.
	Sync bool
	// SyncEvery enables group commit: appends return after the copy into
	// the segment's shared mapping (no per-append fsync) and a store-owned
	// ticker fsyncs the segment at most once per interval, coalescing
	// every append in the window into one Sync. The process-crash
	// guarantee is identical to Sync (the page cache holds the copied
	// bytes); power-failure loss is bounded by the interval instead of
	// zero. Mutually exclusive with Sync. Rotation, snapshots and Close
	// still fsync immediately.
	SyncEvery time.Duration
	// WriteHook, when non-nil, observes — and may veto — every WAL write
	// (a segment's header, then each append's copy into the mapping)
	// before it lands: the crash battery uses it to fail appends after a
	// chosen byte. A vetoed write behaves like a crash at that byte: the
	// record never lands and the append reports the hook's error; p is the
	// writer's buffer, valid only during the call. Production code leaves
	// it nil.
	WriteHook func(segment string, offset int64, p []byte) error
}

// StoreStats is the durability counter snapshot.
type StoreStats struct {
	// Snapshots counts snapshots taken over the store's lifetime.
	Snapshots int
	// WALRecords and WALBytes sum the records and bytes appended to the
	// log over the store's lifetime (compaction never decrements them).
	WALRecords int
	WALBytes   int64
	// Links is the number of link namespaces holding at least one
	// subscription; Entries the total subscription count across them.
	Links   int
	Entries int
}

// Store is the durable home of every link namespace under one data dir,
// and serializes WAL appends from any number of DurableProviders. A
// wrapped link's state is held once, by its provider; the store mirrors
// (link -> sid -> rectangle) only the links no provider wraps — links
// recovered but not yet wrapped, every link of a follower, released
// links. Either way a subscription is held as its rectangle: an add's
// wire payload is decoded once, where it enters the store (snapshot, WAL
// replay, replicated batch, reset dump, an add on an unwrapped link), and
// one that does not decode is ErrCorrupt before anything is logged or
// installed. Snapshots, reset dumps and the views read both kinds of
// link, a wrapped one through its provider at a cut, and encode the
// rectangles back into payloads. All methods are safe for concurrent use.
//
// The locks are taken in one order: reg, then each wrapped link's write
// section (DurableProvider.mu) in link-name order, then mu. A write holds
// only its own section, and mu inside the append; nothing takes a section
// while it holds mu.
type Store struct {
	dir    string
	schema *subscription.Schema
	opts   Options

	// reg is the registry lock: held by Durable and Release while they
	// move a link between the mirror and a provider, and by every reader
	// that needs a cut across links (Snapshot, Tail, the views).
	reg sync.Mutex

	mu sync.Mutex
	// state is the mirror: the links no provider wraps.
	state linkTables
	w     *walWriter
	// wrapped maps each wrapped link to its provider. Written with reg
	// and mu both held, so either one makes a read safe.
	wrapped map[string]*DurableProvider
	lock    *os.File // flock'd LOCK file: one live store per data dir
	closed  bool

	snapshots  int
	walRecords int
	walBytes   int64
	// dirtyRecords counts records not yet covered by a snapshot: appends
	// since the last one, plus anything replayed from the WAL at Open.
	// Snapshot early-returns at zero, so an idle daemon's periodic
	// snapshots cost nothing instead of rewriting full state forever.
	dirtyRecords int
	hasSnapshot  bool

	// pos is the replication stream position: the count of WAL records
	// ever applied in this dir's history. It survives restarts (snapshots
	// carry it as basePos, replay advances it) and is what a follower
	// hands back to resume the primary's stream. Never decremented.
	pos uint64
	// ring buffers the most recent records so followers resuming from a
	// slightly stale position replay from memory instead of forcing a
	// full-state reset.
	ring    replRing
	tailers map[*Tailer]struct{}

	// syncStop/syncDone bracket the group-commit goroutine when
	// SyncEvery is set; nil otherwise.
	syncStop chan struct{}
	syncDone chan struct{}
}

// Open recovers the durable state under dir (creating it when absent) and
// readies the store for appends. Recovery loads the newest snapshot —
// whose schema header must match schema, or ErrSchemaMismatch — and
// replays every WAL segment from the snapshot's cutoff on, tolerating a
// torn tail record in the newest segment and refusing anything worse with
// ErrCorrupt. Appends after Open go to a fresh segment.
func Open(dir string, schema *subscription.Schema, opts Options) (*Store, error) {
	if schema == nil {
		return nil, fmt.Errorf("persist: open needs a schema")
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < 0 {
		return nil, fmt.Errorf("persist: invalid segment size %d", opts.SegmentBytes)
	}
	if opts.SyncEvery < 0 {
		return nil, fmt.Errorf("persist: invalid sync interval %v", opts.SyncEvery)
	}
	if opts.Sync && opts.SyncEvery > 0 {
		return nil, fmt.Errorf("persist: Sync and SyncEvery are mutually exclusive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	// One live store per data dir: a second opener (two daemons pointed
	// at the same -data-dir) would recover a stale mirror, hand out
	// overlapping sids and compact the first store's segments away. The
	// flock turns that silent divergence into a clean refusal, and dies
	// with the process, so a crash never wedges the dir.
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening data dir lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("persist: data dir %s is held by another live store: %w", dir, err)
	}
	st := &Store{
		dir:     dir,
		schema:  schema,
		opts:    opts,
		state:   make(linkTables),
		wrapped: make(map[string]*DurableProvider),
		lock:    lock,
		tailers: make(map[*Tailer]struct{}),
	}
	maxSeq, err := st.recover()
	if err != nil {
		lock.Close()
		return nil, err
	}
	st.ring.reset(st.pos)
	st.w = &walWriter{dir: dir, opts: opts, seq: maxSeq}
	if err := st.w.rotate(); err != nil {
		lock.Close()
		return nil, err
	}
	if opts.SyncEvery > 0 {
		st.syncStop = make(chan struct{})
		st.syncDone = make(chan struct{})
		go st.syncLoop()
	}
	return st, nil
}

// syncLoop is the group-commit ticker: one fsync per interval covers
// every append in the window. A failed sync wedges the writer, so the
// loop itself never needs to report anything — the next append does.
func (st *Store) syncLoop() {
	defer close(st.syncDone)
	t := time.NewTicker(st.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-st.syncStop:
			return
		case <-t.C:
			st.mu.Lock()
			if !st.closed {
				_ = st.w.sync()
			}
			st.mu.Unlock()
		}
	}
}

// recover loads snapshot + WAL into st.state and returns the highest
// sequence number seen in the dir.
func (st *Store) recover() (uint64, error) {
	snaps, err := listSeqs(st.dir, "snap-", ".snap")
	if err != nil {
		return 0, err
	}
	var cutoff, maxSeq uint64
	if len(snaps) > 0 {
		cutoff = snaps[len(snaps)-1]
		maxSeq = cutoff
		data, err := os.ReadFile(filepath.Join(st.dir, snapshotName(cutoff)))
		if err != nil {
			return 0, fmt.Errorf("persist: reading snapshot: %w", err)
		}
		_, st.state, st.pos, err = decodeSnapshot(st.schema, data)
		if err != nil {
			return 0, err
		}
		st.hasSnapshot = true
	}
	segs, err := listSeqs(st.dir, "wal-", ".log")
	if err != nil {
		return 0, err
	}
	for i, seq := range segs {
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq < cutoff {
			continue // compacted into the snapshot; a crash mid-compaction leaves these behind harmlessly
		}
		final := i == len(segs)-1
		err := replaySegment(filepath.Join(st.dir, segmentName(seq)), final, func(r record) error {
			var rect subscription.Rect
			if r.op == opAdd {
				var err error
				if rect, err = decodePayload(st.schema, r.link, r.sid, r.payload); err != nil {
					return err
				}
			}
			st.dirtyRecords++
			st.pos++
			st.mirror(r, rect)
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return maxSeq, nil
}

// Dir returns the store's data dir.
func (st *Store) Dir() string { return st.dir }

// Schema returns the schema the data dir is bound to.
func (st *Store) Schema() *subscription.Schema { return st.schema }

// Links returns the names of every link namespace holding at least one
// subscription, sorted.
func (st *Store) Links() []string {
	var names []string
	for name, n := range st.lens() {
		if n > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Held returns the persisted subscriptions of one link, sorted by sid
// ascending — the order the snapshot stores and Restore checks in one
// pass. A wrapped link's are read from its provider under its write
// section; nil if the provider cannot enumerate.
func (st *Store) Held(link string) []core.Held {
	st.reg.Lock()
	defer st.reg.Unlock()
	if d := st.wrapped[link]; d != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		held, err := d.held()
		if err != nil {
			return nil
		}
		return held
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return sortedHeld(st.state[link])
}

// Stats returns the durability counters.
func (st *Store) Stats() StoreStats {
	lens := st.lens()
	ss := st.logStats()
	for _, n := range lens {
		if n > 0 {
			ss.Links++
			ss.Entries += n
		}
	}
	return ss
}

// logStats is Stats without the per-link counts, which a wrapped link
// answers only under its write section.
func (st *Store) logStats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		Snapshots:  st.snapshots,
		WALRecords: st.walRecords,
		WALBytes:   st.walBytes,
	}
}

// lens returns every link's subscription count: a wrapped link's from
// its provider, under its write section so a write whose log append is
// still open is not counted, every other link's from the mirror.
func (st *Store) lens() map[string]int {
	st.reg.Lock()
	defer st.reg.Unlock()
	out := make(map[string]int, len(st.wrapped))
	for name, d := range st.wrapped {
		d.mu.Lock()
		out[name] = d.inner.Len()
		d.mu.Unlock()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for name, link := range st.state {
		out[name] = link.Len()
	}
	return out
}

// appendAdd logs one subscription arrival and, on an un-wrapped link,
// mirrors it: its payload is decoded first, and one that does not decode
// is refused with nothing written. The mirror is updated only when the
// record landed, so the snapshot state never runs ahead of the log.
func (st *Store) appendAdd(link string, sid uint64, payload []byte) error {
	return st.appendBatch([]record{{op: opAdd, link: link, sid: sid, payload: payload}})
}

// appendRemove logs one removal. On an un-wrapped link it is also the
// claim of claim → log → apply, in the same critical section: an sid the
// mirror does not hold is refused with nothing written, so of two racing
// removals exactly one logs a record; a failed write claims nothing. A
// wrapped link's claim is its provider's, made under the write section
// this call runs in.
func (st *Store) appendRemove(link string, sid uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wrapped[link] == nil {
		if _, held := st.state[link].Get(sid); !held {
			return fmt.Errorf("persist: no subscription with id %d", sid)
		}
	}
	return st.appendLocked(record{op: opRem, link: link, sid: sid})
}

// appendBatch logs a whole batch of records under one lock acquisition
// and one append — the batch write paths' amortization (one lock and one
// copy per batch, not per record). All-or-nothing: either every
// record lands or none does.
func (st *Store) appendBatch(rs []record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.appendLocked(rs...)
}

// appendLocked lands rs through one append and folds them into the
// in-memory views. Called with st.mu held.
func (st *Store) appendLocked(rs ...record) error {
	if len(rs) == 0 {
		return nil
	}
	if st.closed {
		return ErrClosed
	}
	rects, err := st.unwrapped(rs)
	if err != nil {
		return err
	}
	wire, err := st.w.appendBatch(rs)
	if err != nil {
		return err
	}
	st.committed(rs, rects, wire)
	return nil
}

// unwrapped decodes the payloads of the adds rs makes on links no
// provider wraps, which the mirror will hold, into rects aligned with rs.
// It returns nil when every record is a wrapped link's: that state is its
// provider's, so the wrapped write path decodes nothing. Called with
// st.mu held, before rs is logged.
func (st *Store) unwrapped(rs []record) ([]subscription.Rect, error) {
	var rects []subscription.Rect
	for i, r := range rs {
		if st.wrapped[r.link] != nil {
			continue
		}
		if rects == nil {
			rects = make([]subscription.Rect, len(rs))
		}
		if r.op == opAdd {
			var err error
			if rects[i], err = decodePayload(st.schema, r.link, r.sid, r.payload); err != nil {
				return nil, err
			}
		}
	}
	return rects, nil
}

// committed folds a batch of landed records, whose WAL bytes are wire,
// into every in-memory view: counters, the mirror (the records rects,
// from unwrapped, holds), the stream position, the replication ring and
// any live tailers. Called with st.mu held, after the records are in the
// log — the stream never runs ahead of the WAL, so a follower can only
// ever apply records the primary could itself recover.
func (st *Store) committed(rs []record, rects []subscription.Rect, wire []byte) {
	st.walRecords += len(rs)
	st.walBytes += int64(len(wire))
	st.dirtyRecords += len(rs)
	base := st.pos
	st.pos += uint64(len(rs))
	if rects != nil {
		for i, r := range rs {
			st.mirror(r, rects[i])
		}
	}
	st.ring.push(wire, len(rs))
	st.notifyTailers(wire, base, len(rs))
}

// mirror folds one landed record into the mirror, the table an
// un-wrapped link's appendRemove claims against; it is that table's one
// writer. rect is an add's payload, decoded. A wrapped link's record is
// its provider's, already applied or about to be, and is not mirrored.
// Called with st.mu held (or by recover, before the store is shared),
// after the record is on disk.
func (st *Store) mirror(r record, rect subscription.Rect) {
	if st.wrapped[r.link] != nil {
		return
	}
	if r.op == opAdd {
		st.state.put(r.link, r.sid, rect)
	} else {
		st.state.drop(r.link, r.sid)
	}
}

// Snapshot writes a point-in-time snapshot of every link namespace and
// compacts the log behind it: the WAL rotates to a fresh segment, the
// snapshot (covering everything before the rotation) lands durably, and
// only then are the superseded segments and older snapshots deleted — so
// a crash at any point leaves a recoverable dir. It reads at a cut
// (lockCut), so a wrapped link contributes exactly its logged state;
// writes block for the duration, answers served by wrapped providers do
// not.
func (st *Store) Snapshot() error {
	defer st.lockCut()()
	if st.closed {
		return ErrClosed
	}
	if st.dirtyRecords == 0 && st.hasSnapshot {
		// Nothing logged since the last snapshot already covered
		// everything: rewriting identical full state would cost disk I/O
		// per periodic tick on an idle daemon for nothing.
		return nil
	}
	links, err := st.linksLocked()
	if err != nil {
		return err
	}
	if err := st.w.rotate(); err != nil {
		return err
	}
	cutoff := st.w.seq
	if err := writeSnapshot(st.dir, cutoff, encodeLinks(st.schema, links, st.pos)); err != nil {
		return err
	}
	st.snapshots++
	st.dirtyRecords = 0
	st.hasSnapshot = true
	st.compact(cutoff)
	return nil
}

// lockCut takes every lock a cut across links needs, in the store's lock
// order — reg, each wrapped link's write section by link name, mu — and
// returns their release. Holding them, no write is between its provider
// op and its log append, so each wrapped provider holds exactly its
// link's logged state.
func (st *Store) lockCut() (unlock func()) {
	st.reg.Lock()
	ds := make([]*DurableProvider, 0, len(st.wrapped))
	for _, d := range st.wrapped {
		ds = append(ds, d)
	}
	slices.SortFunc(ds, func(a, b *DurableProvider) int { return strings.Compare(a.link, b.link) })
	for _, d := range ds {
		d.mu.Lock()
	}
	st.mu.Lock()
	return func() {
		st.mu.Unlock()
		for _, d := range ds {
			d.mu.Unlock()
		}
		st.reg.Unlock()
	}
}

// linksLocked lists every link holding a subscription, by name, with its
// subscriptions by sid: a wrapped link's its provider's, every other
// link's the mirror's. Called with the cut held.
func (st *Store) linksLocked() ([]linkEntries, error) {
	names := make([]string, 0, len(st.state)+len(st.wrapped))
	for name := range st.state {
		names = append(names, name)
	}
	for name := range st.wrapped {
		names = append(names, name)
	}
	sort.Strings(names)
	links := make([]linkEntries, 0, len(names))
	for _, name := range names {
		l := linkEntries{name: name}
		if d := st.wrapped[name]; d != nil {
			var err error
			if l.held, err = d.held(); err != nil {
				return nil, err
			}
		} else {
			l.held = sortedHeld(st.state[name])
		}
		if len(l.held) > 0 {
			links = append(links, l)
		}
	}
	return links, nil
}

// compact deletes WAL segments and snapshots superseded by the snapshot
// at cutoff, reading the data dir once for both. Best effort: leftovers
// are skipped by sequence on recovery.
func (st *Store) compact(cutoff uint64) {
	entries, err := readDir(st.dir)
	if err != nil {
		return
	}
	for _, seq := range seqsIn(entries, "wal-", ".log") {
		if seq < cutoff {
			os.Remove(filepath.Join(st.dir, segmentName(seq)))
		}
	}
	for _, seq := range seqsIn(entries, "snap-", ".snap") {
		if seq < cutoff {
			os.Remove(filepath.Join(st.dir, snapshotName(seq)))
		}
	}
}

// Close flushes and closes the log and releases the data-dir lock.
// Wrapped providers must not log afterwards; a second Close (and any
// later append) reports ErrClosed.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	st.closed = true
	st.closeTailers(ErrClosed)
	st.mu.Unlock()
	// Stop the group-commit goroutine outside the lock (its ticks take
	// st.mu); closed is already set, so no append can slip in between.
	if st.syncStop != nil {
		close(st.syncStop)
		<-st.syncDone
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	err := st.w.close()
	if cerr := st.lock.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("persist: releasing data dir lock: %w", cerr)
	}
	return err
}
