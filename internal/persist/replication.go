package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Replication rides the WAL: every record a Store commits is also pushed,
// in commit order, to any number of Tailers, each identified only by a
// stream position — the count of records ever applied in the dir's
// history. A follower stores that position durably (snapshots carry it as
// basePos), hands it back after a restart, and the primary resumes the
// stream from there: out of the in-memory ring when the follower is close
// behind, or as a full-state reset when it is not. Records are idempotent
// under re-application (an add overwrites, a remove of an absent sid is a
// no-op), so a re-streamed overlap can never diverge a follower — the
// divergence test pins that bit-identically.

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

// Record is one replicated WAL entry in exported form. The zero value of
// Remove makes the common case (an add) the zero case.
type Record struct {
	Remove  bool
	Link    string
	SID     uint64
	Payload []byte // adds only
}

func exportRecord(r record) Record {
	return Record{Remove: r.op == opRem, Link: r.link, SID: r.sid, Payload: r.payload}
}

func importRecord(r Record) record {
	op := opAdd
	if r.Remove {
		op = opRem
	}
	return record{op: op, link: r.Link, sid: r.SID, payload: r.Payload}
}

// EncodeRecords serializes records in the WAL segment wire form
// (self-delimiting, CRC-protected) — the same bytes a segment holds, so
// the stream and the log can never drift apart in format.
func EncodeRecords(recs []Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, importRecord(r))
	}
	return buf
}

// DecodeRecords parses a blob produced by EncodeRecords. Strict: a torn
// or checksum-broken record anywhere is an error — unlike segment replay
// there is no crash that could explain a torn stream frame.
func DecodeRecords(data []byte) ([]Record, error) {
	var out []Record
	rest := data
	for len(rest) > 0 {
		var r record
		var err error
		r, rest, err = decodeRecord(rest)
		if errors.Is(err, errTorn) {
			return nil, fmt.Errorf("%w: torn record in replication frame", ErrCorrupt)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, exportRecord(r))
	}
	return out, nil
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
			wire = wire[wireLen(wire):]
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

// wireLen is the length of the WAL record wire starts with.
func wireLen(wire []byte) int {
	bodyLen, n := binary.Uvarint(wire)
	return n + int(bodyLen) + 4
}

// recordLen is the length of the held record starting at buf[off],
// whose length prefix may wrap.
func (g *replRing) recordLen(off int) int {
	if b := g.buf[off]; b < 0x80 {
		return 1 + int(b) + 4 // a body under 128 bytes: a one-byte prefix
	}
	var hdr [binary.MaxVarintLen64]byte
	g.copyOut(hdr[:], off, min(len(hdr), len(g.buf)))
	return wireLen(hdr[:])
}

// copyOut copies the n held bytes from buf[off] on, wrapping, into dst.
func (g *replRing) copyOut(dst []byte, off, n int) {
	k := copy(dst[:n], g.buf[off:])
	copy(dst[k:n], g.buf)
}

// from decodes the records after stream position pos, or reports ok=false
// when pos is outside the window (evicted below, or beyond the head — a
// divergent history). Only a starting tailer asks.
func (g *replRing) from(pos uint64) ([]Record, bool, error) {
	if pos < g.base || pos > g.base+uint64(g.n) {
		return nil, false, nil
	}
	off, size := g.head, g.size
	for range pos - g.base {
		k := g.recordLen(off)
		off = (off + k) % len(g.buf)
		size -= k
	}
	wire := make([]byte, size)
	g.copyOut(wire, off, size)
	out := make([]Record, 0, g.base+uint64(g.n)-pos)
	for len(wire) > 0 {
		r, rest, err := decodeRecord(wire)
		if err != nil {
			return nil, false, fmt.Errorf("persist: the replication ring holds a record that does not decode: %w", err)
		}
		out = append(out, exportRecord(r))
		wire = rest
	}
	return out, true, nil
}

// TailBatch is one hop of a replication stream. When Reset is false,
// Recs are the records at stream positions Base+1..Pos, to be applied via
// ApplyReplicated. When Reset is true, Recs are a full-state dump (adds
// only) at position Pos, to be installed via InstallState — the follower
// was too far behind (or ahead, after a divergent history) to catch up
// record-by-record.
type TailBatch struct {
	Reset bool
	Base  uint64
	Recs  []Record
	Pos   uint64
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
// the ring when from is inside the window, as a Reset dump otherwise —
// and every commit after the call follows live, with no gap between the
// two (both are cut under the same lock). It holds the cut, which a dump
// needs to read the wrapped links.
func (st *Store) Tail(from uint64) (*Tailer, error) {
	defer st.lockCut()()
	if st.closed {
		return nil, ErrClosed
	}
	t := &Tailer{st: st, ch: make(chan TailBatch, tailerBuf)}
	recs, ok, err := st.ring.from(from)
	if err != nil {
		return nil, err
	}
	if ok {
		if len(recs) > 0 {
			t.initial = []TailBatch{{Base: from, Recs: recs, Pos: st.pos}}
		}
	} else {
		// Too far behind the ring window — or ahead of us entirely, which
		// means a divergent history (an old primary rejoining with records
		// we never saw). Either way the catch-up is a full-state reset.
		dump, err := st.dumpLocked()
		if err != nil {
			return nil, err
		}
		t.initial = []TailBatch{dump}
	}
	st.tailers[t] = struct{}{}
	return t, nil
}

// dumpLocked serializes every link's state as a Reset batch at the
// current position. Called with the cut held.
func (st *Store) dumpLocked() (TailBatch, error) {
	links, err := st.linksLocked()
	if err != nil {
		return TailBatch{}, err
	}
	n := 0
	for _, l := range links {
		n += len(l.held)
	}
	batch := TailBatch{Reset: true, Recs: make([]Record, 0, n), Pos: st.pos}
	for _, l := range links {
		heldPayloads(st.schema, l.held, func(sid uint64, payload []byte) {
			batch.Recs = append(batch.Recs, Record{Link: l.name, SID: sid, Payload: payload})
		})
	}
	return batch, nil
}

// notifyTailers pushes a freshly committed batch to every live tailer.
// Called with st.mu held. A tailer whose backlog is full is lagged:
// its stream ends with ErrTailerLagged and it re-syncs from its applied
// position, so one stuck follower cannot block commits or pin unbounded
// memory.
func (st *Store) notifyTailers(rs []record, base uint64) {
	if len(st.tailers) == 0 {
		return
	}
	// The batch owns its payloads: an appender's may be a buffer it
	// reuses as soon as the append returns.
	size := 0
	for _, r := range rs {
		size += len(r.payload)
	}
	arena := make([]byte, 0, size)
	batch := TailBatch{Base: base, Recs: make([]Record, len(rs)), Pos: base + uint64(len(rs))}
	for i, r := range rs {
		if len(r.payload) > 0 {
			start := len(arena)
			arena = append(arena, r.payload...)
			r.payload = arena[start:len(arena):len(arena)]
		}
		batch.Recs[i] = exportRecord(r)
	}
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

// ApplyReplicated commits a streamed batch whose first record sits at
// stream position base+1. Overlap with already-applied records (base <
// Pos) is deduplicated by position — a re-streamed or duplicated window
// is applied once, which with idempotent records keeps the follower
// bit-identical to the primary. A batch that starts beyond Pos is refused
// with ErrReplicationGap; a store with live DurableProviders is refused
// with ErrHasProviders (followers serve reads only). A batch holding an
// add whose payload does not decode is refused whole with ErrCorrupt:
// nothing of it is logged or applied.
func (st *Store) ApplyReplicated(base uint64, recs []Record) error {
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
	if skip >= uint64(len(recs)) {
		return nil // the whole batch is a duplicate of applied history
	}
	rs := make([]record, 0, uint64(len(recs))-skip)
	for _, r := range recs[skip:] {
		rs = append(rs, importRecord(r))
	}
	return st.appendLocked(rs...)
}

// InstallState replaces the store's entire durable state with a Reset
// dump at stream position pos: the WAL rotates, a snapshot of the dump
// lands (carrying pos as its base), the mirror and ring are swapped, and
// the superseded log is compacted away. This is the follower's answer to
// a Reset batch — equivalent to a cold copy of the primary's dir, without
// a WAL full of removes for state it never had. Refused on stores with
// live providers, and with ErrCorrupt, before anything is written, when an
// add's payload does not decode.
func (st *Store) InstallState(recs []Record, pos uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if len(st.wrapped) > 0 {
		return ErrHasProviders
	}
	state := make(linkTables)
	for _, r := range recs {
		if r.Remove {
			continue // a dump carries adds only; tolerate rather than corrupt
		}
		rect, err := decodePayload(st.schema, r.Link, r.SID, r.Payload)
		if err != nil {
			return err
		}
		state.put(r.Link, r.SID, rect)
	}
	if err := st.w.rotate(); err != nil {
		return err
	}
	cutoff := st.w.seq
	if err := writeSnapshot(st.dir, cutoff, encodeSnapshot(st.schema, state, pos)); err != nil {
		return err
	}
	st.state = state
	st.pos = pos
	st.ring.reset(pos)
	st.snapshots++
	st.dirtyRecords = 0
	st.hasSnapshot = true
	// Chained tailers (a follower tailing this follower) hold positions
	// from the replaced history; end their streams so they re-sync.
	st.closeTailers(ErrTailerLagged)
	st.compact(cutoff)
	return nil
}
