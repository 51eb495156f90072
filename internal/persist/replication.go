package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Replication rides the WAL: every record a Store commits is also pushed,
// in commit order and in the very bytes its segment holds, to any number
// of Tailers, each identified only by a stream position — the count of
// records ever applied in the dir's history. A follower stores that
// position durably (snapshots carry it as basePos), hands it back after a
// restart, and the primary resumes the stream from there: out of the
// in-memory ring when the follower is close behind, or as a full-state
// reset when it is not: a snapshot image, which the follower writes as
// its own snapshot. The follower logs the records it applies verbatim, so
// its WAL holds the primary's record bytes. Records are
// idempotent under re-application (an add overwrites, a remove of an
// absent sid is a no-op), so a re-streamed overlap can never diverge a
// follower — the divergence test pins that bit-identically.

// Typed failures of the replication path.
var (
	// ErrReplicationGap reports an ApplyReplicated batch whose base is
	// ahead of the store's position: records are missing in between, and
	// applying the batch would silently skip them. The follower must
	// re-request the stream from its own position.
	ErrReplicationGap = errors.New("persist: replication stream has a gap")
	// ErrTailerLagged reports a tailer whose consumer fell behind the
	// ring: the stream ended, and the follower must re-request from its
	// applied position (getting a ring replay or a reset as appropriate).
	ErrTailerLagged = errors.New("persist: replication tailer lagged behind the ring")
	// ErrTailerClosed reports a tailer torn down by its own Close.
	ErrTailerClosed = errors.New("persist: replication tailer closed")
	// ErrHasProviders refuses replicated writes on a store that is also
	// feeding live DurableProviders: the providers' in-memory indexes
	// would not see the records and would serve stale answers. Only a
	// follower store — no wrapped links — may apply a stream.
	ErrHasProviders = errors.New("persist: store has live providers; cannot apply a replication stream")
)

// RecordLen is the length of the WAL record a run of records starts
// with: the boundary a stream cuts a TailBatch's bytes at. The run is
// the store's own, so its records are whole.
func RecordLen(run []byte) int {
	bodyLen, n := binary.Uvarint(run)
	return n + int(bodyLen) + 4
}

// eachRecord decodes a run of WAL records from a replication stream
// strictly, handing fn each record with the bytes after it, and stopping
// at the first error fn returns: a torn or
// checksum-broken record anywhere is ErrCorrupt, because unlike a
// segment's tail no crash explains a torn stream.
func eachRecord(run []byte, fn func(r record, rest []byte) error) error {
	var r record
	for len(run) > 0 {
		var err error
		r, run, err = decodeRecord(run, r.link)
		if errors.Is(err, errTorn) {
			return fmt.Errorf("%w: torn record in a replication stream", ErrCorrupt)
		}
		if err == nil {
			err = fn(r, run)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replRingMax bounds the in-memory catch-up buffer. At typical record
// sizes (tens of bytes plus the payload) this is well under a MB — enough
// to absorb a follower's reconnect backoff without forcing a reset.
const replRingMax = 16384

// replRing is the recent-records buffer: the last replRingMax records
// (fewer until that many were ever pushed) in their WAL wire form — the
// bytes appendBatch just encoded for the segment — back to back in a
// circular byte buffer. A push copies each record's bytes once and evicts
// the oldest records by their length prefixes; nothing is decoded until a
// starting tailer asks (from). The record after stream position base
// starts at buf[head], and the held records take size bytes from there,
// wrapping past the buffer's end to its start.
type replRing struct {
	base uint64
	n    int    // records held
	buf  []byte // len(buf) is the capacity
	head int
	size int
}

func (g *replRing) reset(pos uint64) {
	*g = replRing{base: pos}
}

// push appends count records, wire their WAL bytes, evicting the oldest
// records past replRingMax. A push longer than the ring keeps only its
// last replRingMax records. The buffer is resized to hold an eighth more
// than it must whenever the held bytes outgrow it or shrink below three
// quarters of it — a bulk load's wider records are not kept room for
// once churn has replaced them.
func (g *replRing) push(wire []byte, count int) {
	if over := count - replRingMax; over > 0 {
		for range over {
			wire = wire[RecordLen(wire):]
		}
		g.base += uint64(g.n + over)
		g.n, g.head, g.size = 0, 0, 0
		count = replRingMax
	}
	for g.n+count > replRingMax {
		k := g.recordLen(g.head)
		if g.head += k; g.head >= len(g.buf) {
			g.head -= len(g.buf)
		}
		g.size -= k
		g.n--
		g.base++
	}
	if need := g.size + len(wire); need > len(g.buf) || need < len(g.buf)/4*3 {
		buf := make([]byte, need+need/8)
		g.copyOut(buf, g.head, g.size)
		g.buf, g.head = buf, 0
	}
	if len(wire) == 0 {
		return
	}
	tail := g.head + g.size
	if tail >= len(g.buf) {
		tail -= len(g.buf)
	}
	k := copy(g.buf[tail:], wire)
	copy(g.buf, wire[k:])
	g.size += len(wire)
	g.n += count
}

// recordLen is the length of the held record starting at buf[off],
// whose length prefix may wrap.
func (g *replRing) recordLen(off int) int {
	if b := g.buf[off]; b < 0x80 {
		return 1 + int(b) + 4 // a body under 128 bytes: a one-byte prefix
	}
	var hdr [binary.MaxVarintLen64]byte
	g.copyOut(hdr[:], off, min(len(hdr), len(g.buf)))
	return RecordLen(hdr[:])
}

// copyOut copies the n held bytes from buf[off] on, wrapping, into dst.
func (g *replRing) copyOut(dst []byte, off, n int) {
	k := copy(dst[:n], g.buf[off:])
	copy(dst[k:n], g.buf)
}

// from copies out the WAL bytes of the records after stream position
// pos, or reports ok=false when pos is outside the window (evicted below,
// or beyond the head — a divergent history). Only a starting tailer asks.
func (g *replRing) from(pos uint64) ([]byte, bool) {
	if pos < g.base || pos > g.base+uint64(g.n) {
		return nil, false
	}
	off, size := g.head, g.size
	for range pos - g.base {
		k := g.recordLen(off)
		off = (off + k) % len(g.buf)
		size -= k
	}
	run := make([]byte, size)
	g.copyOut(run, off, size)
	return run, true
}

// TailBatch is one hop of a replication stream. When Reset is false,
// Recs is a run of records in their WAL segment form (self-delimiting,
// CRC-protected), the bytes the primary's log holds: the records at
// stream positions Base+1..Pos, to be applied via ApplyReplicated. When
// Reset is true, Recs is a snapshot image of the full state at position
// Pos, to be installed via InstallState — the follower was too far
// behind (or ahead, after a divergent history) to catch up
// record-by-record.
type TailBatch struct {
	Reset bool
	Base  uint64
	Pos   uint64
	Recs  []byte
}

// Tailer is one follower's live view of the store's commit stream.
// Next() yields batches in commit order, starting from the position
// handed to Tail. Not safe for concurrent Next calls.
type Tailer struct {
	st      *Store
	initial []TailBatch
	ch      chan TailBatch
	err     error // set under st.mu before ch is closed
}

// tailerBuf is the per-tailer live-batch backlog. A consumer slower than
// this many commit batches is lagged and re-syncs — bounding the memory
// one stuck follower can pin.
const tailerBuf = 64

// Tail opens a replication stream resuming after stream position from
// (0 = from the beginning). The first batches replay history — out of
// the ring when from is inside the window, as a Reset image otherwise —
// and every commit after the call follows live, with no gap between the
// two: the history is cut, and the tailer registered, under one hold of
// the cut, which a reset needs to capture the wrapped links. A reset is
// encoded after the cut is released, as a snapshot's write phase does.
func (st *Store) Tail(from uint64) (*Tailer, error) {
	t := &Tailer{st: st, ch: make(chan TailBatch, tailerBuf)}
	c, err := st.tailCut(t, from)
	if err != nil {
		return nil, err
	}
	if c != nil {
		t.initial = []TailBatch{{Reset: true, Pos: c.pos, Recs: encodeLinks(st.schema, c.links, c.pos, c.mark)}}
	}
	return t, nil
}

// tailCut is Tail under the cut: it registers t and gives it the ring's
// records after from, or, when from is outside the ring's window, returns
// the capture of every link a reset image is encoded from.
func (st *Store) tailCut(t *Tailer, from uint64) (*snapCut, error) {
	defer st.lockCut()()
	if st.closed {
		return nil, ErrClosed
	}
	var reset *snapCut
	if run, ok := st.ring.from(from); ok {
		if len(run) > 0 {
			t.initial = []TailBatch{{Base: from, Pos: st.pos, Recs: run}}
		}
	} else {
		// Too far behind the ring window — or ahead of us entirely, which
		// means a divergent history (an old primary rejoining with records
		// we never saw). Either way the catch-up is a full-state reset.
		links, err := st.linksLocked()
		if err != nil {
			return nil, err
		}
		reset = &snapCut{links: links, pos: st.pos, mark: st.mark}
	}
	st.tailers[t] = struct{}{}
	return reset, nil
}

// notifyTailers pushes a freshly committed batch, the count records at
// stream positions base+1.. whose WAL bytes are wire, to every live
// tailer. Called with st.mu held. A tailer whose backlog is full is
// lagged: its stream ends with ErrTailerLagged and it re-syncs from its
// applied position, so one stuck follower cannot block commits or pin
// unbounded memory.
func (st *Store) notifyTailers(wire []byte, base uint64, count int) {
	if len(st.tailers) == 0 {
		return
	}
	// The batch owns its bytes: wire is the log's encode buffer, reused
	// by the next append.
	batch := TailBatch{Base: base, Pos: base + uint64(count), Recs: slices.Clone(wire)}
	for t := range st.tailers {
		select {
		case t.ch <- batch:
		default:
			t.err = ErrTailerLagged
			close(t.ch)
			delete(st.tailers, t)
		}
	}
}

// closeTailers ends every live stream with err. Called with st.mu held.
func (st *Store) closeTailers(err error) {
	for t := range st.tailers {
		t.err = err
		close(t.ch)
		delete(st.tailers, t)
	}
}

// Next returns the stream's next batch, blocking until one is committed,
// cancel is closed, or the stream ends (store closed, tailer lagged or
// Close'd — the error says which).
func (t *Tailer) Next(cancel <-chan struct{}) (TailBatch, error) {
	if len(t.initial) > 0 {
		b := t.initial[0]
		t.initial = t.initial[1:]
		return b, nil
	}
	select {
	case b, ok := <-t.ch:
		if !ok {
			return TailBatch{}, t.err
		}
		return b, nil
	case <-cancel:
		return TailBatch{}, ErrTailerClosed
	}
}

// Close tears the stream down; a blocked Next returns ErrTailerClosed.
// Idempotent.
func (t *Tailer) Close() {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	if _, live := t.st.tailers[t]; live {
		t.err = ErrTailerClosed
		close(t.ch)
		delete(t.st.tailers, t)
	}
}

// Pos returns the replication stream position: the count of records ever
// applied in this dir's history.
func (st *Store) Pos() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.pos
}

// ApplyReplicated commits a streamed run of WAL records whose first
// record sits at stream position base+1. Overlap with already-applied
// records (base < Pos) is deduplicated by position — a re-streamed or
// duplicated window is applied once, which with idempotent records keeps
// the follower bit-identical to the primary. The records past the overlap
// land in the log verbatim. A batch that starts beyond Pos is refused
// with ErrReplicationGap; a store with live DurableProviders is refused
// with ErrHasProviders (followers serve reads only). A run holding a torn
// record, or an add whose payload does not decode, is refused whole with
// ErrCorrupt: nothing of it is logged or applied.
func (st *Store) ApplyReplicated(base uint64, run []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if len(st.wrapped) > 0 {
		return ErrHasProviders
	}
	if base > st.pos {
		return fmt.Errorf("%w: batch starts at %d, store is at %d", ErrReplicationGap, base, st.pos)
	}
	skip := st.pos - base
	var rs []record
	err := eachRecord(run, func(r record, rest []byte) error {
		if skip > 0 {
			skip--
			run = rest
		} else {
			rs = append(rs, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(rs) == 0 {
		return nil // the whole batch is a duplicate of applied history
	}
	rects, err := st.unwrapped(rs)
	if err != nil {
		return err
	}
	if err := st.w.appendBytes(run); err != nil {
		return err
	}
	st.committed(rs, rects, run)
	return nil
}

// InstallState replaces the store's entire durable state with a reset
// image, a snapshot at the primary's stream position: the image is
// decoded whole (checksum, schema, sid order, payloads), the WAL rotates,
// the image's bytes land as this store's snapshot, the mirror, position,
// id mark and ring are swapped, and the superseded log is compacted away.
// This is the follower's answer to a Reset batch — a cold copy of the
// primary's snapshot, without a WAL full of removes for state it never
// had. Refused on stores with live providers, and with ErrCorrupt (or
// ErrSchemaMismatch), before anything is written, when the image does
// not decode.
func (st *Store) InstallState(img []byte) error {
	st.snap.Lock()
	defer st.snap.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if len(st.wrapped) > 0 {
		return ErrHasProviders
	}
	state, err := decodeSnapshot(st.schema, img)
	if err != nil {
		return err
	}
	if err := st.w.rotate(); err != nil {
		return err
	}
	cutoff := st.w.seq
	if err := writeSnapshot(st.dir, cutoff, img); err != nil {
		return err
	}
	st.state, st.pos, st.mark = state.links, state.pos, state.mark
	st.ring.reset(st.pos)
	st.snapshots++
	st.dirtyRecords = 0
	st.hasSnapshot = true
	// Chained tailers (a follower tailing this follower) hold positions
	// from the replaced history; end their streams so they re-sync.
	st.closeTailers(ErrTailerLagged)
	st.compact(cutoff)
	return nil
}
