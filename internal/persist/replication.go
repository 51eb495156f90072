package persist

import (
	"errors"
	"fmt"

	"sfccover/internal/idtable"
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
// sizes (tens of bytes plus the payload) this is a few MB — enough to
// absorb a follower's reconnect backoff without forcing a reset.
const replRingMax = 16384

// replRing is the recent-records buffer: the last replRingMax records
// (fewer until that many were ever pushed) in a circular slice that grows
// to replRingMax once and is then overwritten in place, so a push copies
// each record once and never the window. The record at stream position
// base+1+i sits at recs[(head+i) % len(recs)].
type replRing struct {
	base uint64
	head int
	recs []record
}

func (g *replRing) reset(pos uint64) {
	g.base, g.head, g.recs = pos, 0, nil
}

// push appends rs, overwriting the oldest records once the ring is full.
// A push longer than the ring keeps only its last replRingMax records,
// with their payloads copied into an arena of their own: a bulk load's
// payloads share one MarshalBatch arena, which the kept tail would
// otherwise hold alive whole.
func (g *replRing) push(rs []record) {
	over := len(rs) - replRingMax
	if over > 0 {
		rs = rs[over:]
		g.base += uint64(over)
	}
	if room := replRingMax - len(g.recs); room > 0 {
		n := min(room, len(rs))
		g.recs = append(g.recs, rs[:n]...)
		rs = rs[n:]
	}
	for _, r := range rs {
		g.recs[g.head] = r
		g.head++
		if g.head == len(g.recs) {
			g.head = 0
		}
		g.base++
	}
	if over > 0 {
		g.ownPayloads() // every slot now holds one of rs's records
	}
}

// ownPayloads copies every held payload into one fresh arena.
func (g *replRing) ownPayloads() {
	size := 0
	for _, r := range g.recs {
		size += len(r.payload)
	}
	arena := make([]byte, 0, size)
	for i, r := range g.recs {
		if len(r.payload) > 0 {
			start := len(arena)
			arena = append(arena, r.payload...)
			g.recs[i].payload = arena[start:len(arena):len(arena)]
		}
	}
}

// from copies out the records after stream position pos, or reports
// ok=false when pos is outside the window (overwritten below, or beyond
// the head — a divergent history). Only a starting tailer asks.
func (g *replRing) from(pos uint64) ([]Record, bool) {
	if pos < g.base || pos > g.base+uint64(len(g.recs)) {
		return nil, false
	}
	skip := int(pos - g.base)
	out := make([]Record, len(g.recs)-skip)
	for i := range out {
		out[i] = exportRecord(g.recs[(g.head+skip+i)%len(g.recs)])
	}
	return out, true
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
	if recs, ok := st.ring.from(from); ok {
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
	batch := TailBatch{Reset: true, Pos: st.pos}
	for _, l := range links {
		for _, e := range l.entries {
			batch.Recs = append(batch.Recs, Record{Link: l.name, SID: e.SID, Payload: e.Payload})
		}
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
	batch := TailBatch{Base: base, Recs: make([]Record, len(rs)), Pos: base + uint64(len(rs))}
	for i, r := range rs {
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
// with ErrHasProviders (followers serve reads only).
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
	n, err := st.w.appendBatch(rs)
	if err != nil {
		return err
	}
	st.committed(rs, n)
	return nil
}

// InstallState replaces the store's entire durable state with a Reset
// dump at stream position pos: the WAL rotates, a snapshot of the dump
// lands (carrying pos as its base), the mirror and ring are swapped, and
// the superseded log is compacted away. This is the follower's answer to
// a Reset batch — equivalent to a cold copy of the primary's dir, without
// a WAL full of removes for state it never had. Refused on stores with
// live providers.
func (st *Store) InstallState(recs []Record, pos uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if len(st.wrapped) > 0 {
		return ErrHasProviders
	}
	state := make(map[string]*idtable.Table[[]byte])
	for _, r := range recs {
		if r.Remove {
			continue // a dump carries adds only; tolerate rather than corrupt
		}
		link := state[r.Link]
		if link == nil {
			link = new(idtable.Table[[]byte])
			state[r.Link] = link
		}
		link.Put(r.SID, append([]byte(nil), r.Payload...))
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
