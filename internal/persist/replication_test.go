package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sfccover/internal/core"
)

// addRec builds an add record for the i-th anti-chain member.
func addRec(t *testing.T, link string, sid uint64, i int) record {
	t.Helper()
	return record{op: opAdd, link: link, sid: sid, payload: payload(t, rect(t, testSchema(), i))}
}

// encodeRun encodes records as a run of WAL bytes, the form a
// replication stream carries them in.
func encodeRun(rs ...record) []byte {
	var run []byte
	for _, r := range rs {
		run = appendRecord(run, r)
	}
	return run
}

// countRecords counts the records of a run of WAL bytes.
func countRecords(run []byte) int {
	n := 0
	for ; len(run) > 0; n++ {
		run = run[RecordLen(run):]
	}
	return n
}

// applyBatch lands one tail batch on a follower store through whichever
// path its shape demands, exactly as the daemon's stream consumer does.
func applyBatch(t *testing.T, st *Store, b TailBatch) {
	t.Helper()
	if b.Reset {
		if err := st.InstallState(b.Recs, b.Pos); err != nil {
			t.Fatalf("InstallState: %v", err)
		}
		return
	}
	if err := st.ApplyReplicated(b.Base, b.Recs); err != nil {
		t.Fatalf("ApplyReplicated(base %d): %v", b.Base, err)
	}
}

// demandSameState compares two stores' durable state bit-for-bit: same
// links, same sids, same rectangles.
func demandSameState(t *testing.T, got, want *Store) {
	t.Helper()
	gl, wl := got.Links(), want.Links()
	if fmt.Sprint(gl) != fmt.Sprint(wl) {
		t.Fatalf("links diverge: got %v, want %v", gl, wl)
	}
	for _, link := range wl {
		gh, wh := got.Held(link), want.Held(link)
		if len(gh) != len(wh) {
			t.Fatalf("link %q: %d entries, want %d", link, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i] != wh[i] {
				t.Fatalf("link %q entry %d diverges: sid %d vs %d", link, i, gh[i].ID, wh[i].ID)
			}
		}
	}
}

// TestTailStreamsCommitsInOrder: a tailer opened at the follower's
// position sees every commit after it, in order, and applying them
// converges the follower to the primary's exact state.
func TestTailStreamsCommitsInOrder(t *testing.T) {
	schema := testSchema()
	primary, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	tail, err := primary.Tail(follower.Pos())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	if err := primary.appendAdd("a", 1, payload(t, rect(t, schema, 0))); err != nil {
		t.Fatal(err)
	}
	if err := primary.appendAdd("a", 2, payload(t, rect(t, schema, 1))); err != nil {
		t.Fatal(err)
	}
	if err := primary.appendAdd("b", 7, payload(t, rect(t, schema, 2))); err != nil {
		t.Fatal(err)
	}
	if err := primary.appendRemove("a", 2); err != nil {
		t.Fatal(err)
	}

	cancel := make(chan struct{})
	for i := 0; follower.Pos() < primary.Pos(); i++ {
		if i > 16 {
			t.Fatalf("follower stuck at %d of %d after %d batches", follower.Pos(), primary.Pos(), i)
		}
		b, err := tail.Next(cancel)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		applyBatch(t, follower, b)
	}
	demandSameState(t, follower, primary)
}

// TestReplicationDedupAndGap: overlap with applied history deduplicates
// by position, a batch beyond the position is refused as a gap, and a
// store feeding live providers refuses streams entirely.
func TestReplicationDedupAndGap(t *testing.T) {
	schema := testSchema()
	st, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	recs := []record{
		addRec(t, "a", 1, 0),
		addRec(t, "a", 2, 1),
		{op: opRem, link: "a", sid: 1},
	}
	if err := st.ApplyReplicated(0, encodeRun(recs...)); err != nil {
		t.Fatal(err)
	}
	if got := st.Pos(); got != 3 {
		t.Fatalf("Pos = %d, want 3", got)
	}
	// The whole batch again: a duplicate window, applied zero times more.
	if err := st.ApplyReplicated(0, encodeRun(recs...)); err != nil {
		t.Fatalf("duplicate window refused: %v", err)
	}
	if got := st.Pos(); got != 3 {
		t.Fatalf("Pos moved to %d on a duplicate window", got)
	}
	// Overlapping window carrying one new record: only the tail applies.
	if err := st.ApplyReplicated(1, encodeRun(recs[1], recs[2], addRec(t, "b", 9, 3))); err != nil {
		t.Fatal(err)
	}
	if got := st.Pos(); got != 4 {
		t.Fatalf("Pos = %d after overlap, want 4", got)
	}
	// A batch starting beyond the position would skip records: refused.
	if err := st.ApplyReplicated(10, encodeRun(recs...)); !errors.Is(err, ErrReplicationGap) {
		t.Fatalf("gap batch: %v, want ErrReplicationGap", err)
	}
	// Wrapping a provider flips the store to primary duty: streams refused.
	d, err := st.Durable("live", core.MustNew(core.Config{Schema: schema}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := st.ApplyReplicated(4, encodeRun(addRec(t, "c", 1, 4))); !errors.Is(err, ErrHasProviders) {
		t.Fatalf("stream onto a providing store: %v, want ErrHasProviders", err)
	}
}

// TestReStreamedWindowsConvergeBitIdentical is the follower-divergence
// battery: the same history delivered with duplicated and re-streamed
// overlapping windows — what reconnects produce — must land the follower
// on the primary's exact durable state, and a cold recovery of the
// follower's dir must preserve both the state and the stream position.
func TestReStreamedWindowsConvergeBitIdentical(t *testing.T) {
	schema := testSchema()
	primary, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	history := []record{
		addRec(t, "", 1, 0),
		addRec(t, "", 2, 1),
		addRec(t, "L", 1, 2),
		{op: opRem, link: "", sid: 2},
		addRec(t, "L", 2, 3),
		addRec(t, "", 3, 4),
		{op: opRem, link: "L", sid: 1},
		addRec(t, "M", 5, 5),
	}
	for _, r := range history {
		var err error
		if r.op == opRem {
			err = primary.appendRemove(r.link, r.sid)
		} else {
			err = primary.appendAdd(r.link, r.sid, r.payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	fdir := t.TempDir()
	follower, err := Open(fdir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Windows overlap, duplicate and re-stream from zero mid-way — every
	// base is at or below the follower's position, as the protocol
	// guarantees, and idempotent records make the rest safe.
	windows := []struct{ base, end uint64 }{
		{0, 3}, {1, 5}, {0, 4}, {3, 8}, {0, 8}, {6, 8},
	}
	for _, w := range windows {
		if err := follower.ApplyReplicated(w.base, encodeRun(history[w.base:w.end]...)); err != nil {
			t.Fatalf("window [%d,%d): %v", w.base, w.end, err)
		}
	}
	if follower.Pos() != primary.Pos() {
		t.Fatalf("Pos = %d, want %d", follower.Pos(), primary.Pos())
	}
	demandSameState(t, follower, primary)

	// Cold recovery: the follower's dir replays to the same state and the
	// same stream position, so a restarted follower resumes, not resets.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(fdir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Pos() != primary.Pos() {
		t.Fatalf("recovered Pos = %d, want %d", recovered.Pos(), primary.Pos())
	}
	demandSameState(t, recovered, primary)
}

// TestResetDumpInstallsAndSurvivesRestart: a follower outside the ring
// window (here: claiming a divergent position ahead of the primary) gets
// a Reset dump; installing it replaces local state wholesale, adopts the
// primary's position, and both survive a cold recovery.
func TestResetDumpInstallsAndSurvivesRestart(t *testing.T) {
	schema := testSchema()
	primary, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 4; i++ {
		if err := primary.appendAdd("a", uint64(i+1), payload(t, rect(t, schema, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.appendRemove("a", 2); err != nil {
		t.Fatal(err)
	}

	tail, err := primary.Tail(primary.Pos() + 100) // divergent: ahead of the primary
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	b, err := tail.Next(make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reset {
		t.Fatalf("divergent position got a plain batch (base %d), want a Reset dump", b.Base)
	}

	fdir := t.TempDir()
	follower, err := Open(fdir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing local state the dump must wipe.
	if err := follower.appendAdd("stale", 9, payload(t, rect(t, schema, 9))); err != nil {
		t.Fatal(err)
	}
	applyBatch(t, follower, b)
	if follower.Pos() != primary.Pos() {
		t.Fatalf("Pos = %d after install, want %d", follower.Pos(), primary.Pos())
	}
	demandSameState(t, follower, primary)

	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(fdir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Pos() != primary.Pos() {
		t.Fatalf("recovered Pos = %d, want %d", recovered.Pos(), primary.Pos())
	}
	demandSameState(t, recovered, primary)
}

// dirImage reads every file of dir into memory, by name.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestFollowerRefusesUndecodablePayload: a follower refuses a replicated
// batch or a reset dump holding an add whose payload does not decode,
// with ErrCorrupt and nothing logged or installed, so its dir stays one
// that a promotion recovers.
func TestFollowerRefusesUndecodablePayload(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyReplicated(0, encodeRun(addRec(t, "a", 1, 0))); err != nil {
		t.Fatal(err)
	}
	pos, image := st.Pos(), dirImage(t, dir)
	bad := encodeRun(addRec(t, "a", 3, 1), record{op: opAdd, link: "a", sid: 2, payload: undecodable})
	for _, c := range []struct {
		name  string
		apply func() error
	}{
		{"ApplyReplicated", func() error { return st.ApplyReplicated(pos, bad) }},
		{"InstallState", func() error { return st.InstallState(bad, pos+5) }},
	} {
		if err := c.apply(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s with an undecodable add = %v, want ErrCorrupt", c.name, err)
		}
		if st.Pos() != pos {
			t.Fatalf("%s refused, yet Pos moved %d -> %d", c.name, pos, st.Pos())
		}
		if got := dirImage(t, dir); fmt.Sprint(got) != fmt.Sprint(image) {
			t.Fatalf("%s refused, yet the data dir changed", c.name)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := st.Durable("a", newTestEngine(schema, 1))
	if err != nil {
		t.Fatalf("promoting the follower's dir: %v", err)
	}
	defer d.Close()
	requireSameHeld(t, "promoted link", mustEnumerate(t, d), []core.Held{{ID: 1, Rect: rect(t, schema, 0).Rect()}})
}

// TestGroupCommitTornTailBattery: with SyncEvery (group commit) the
// window since the last fsync is exposed to power failure. Simulate every
// interesting tear of that window — each record boundary and a mid-record
// cut — and demand recovery to exactly the clean prefix: records wholly
// before the cut survive, the torn record and everything after it are
// gone, and recovery itself never errors (a torn tail is a crash artifact,
// not corruption).
func TestGroupCommitTornTailBattery(t *testing.T) {
	schema := testSchema()
	live := t.TempDir()
	// An interval the test never reaches keeps every append unsynced: the
	// whole log is one exposed window, the worst case.
	st, err := Open(live, schema, Options{SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	type step struct {
		remove  bool
		link    string
		sid     uint64
		rectIdx int
		offset  int64 // where the record ends in the segment
	}
	steps := []step{
		{link: "a", sid: 1, rectIdx: 0},
		{link: "a", sid: 2, rectIdx: 1},
		{link: "b", sid: 1, rectIdx: 2},
		{remove: true, link: "a", sid: 1},
		{link: "b", sid: 2, rectIdx: 3},
		{remove: true, link: "b", sid: 1},
		{link: "a", sid: 3, rectIdx: 4},
	}
	seq, _ := finalSegment(t, live)
	seg := filepath.Join(live, segmentName(seq))
	for i := range steps {
		s := &steps[i]
		var err error
		if s.remove {
			err = st.appendRemove(s.link, s.sid)
		} else {
			err = st.appendAdd(s.link, s.sid, payload(t, rect(t, schema, s.rectIdx)))
		}
		if err != nil {
			t.Fatal(err)
		}
		s.offset = recordsEnd(t, seg)
	}

	// wantState replays the first n steps into the expected mirror.
	wantState := func(n int) map[string]map[uint64][]byte {
		state := map[string]map[uint64][]byte{}
		for _, s := range steps[:n] {
			if s.remove {
				delete(state[s.link], s.sid)
				continue
			}
			if state[s.link] == nil {
				state[s.link] = map[uint64][]byte{}
			}
			state[s.link][s.sid] = payload(t, rect(t, schema, s.rectIdx))
		}
		return state
	}

	type cutpoint struct {
		name     string
		offset   int64
		survived int
	}
	var cuts []cutpoint
	for i, s := range steps {
		cuts = append(cuts,
			cutpoint{fmt.Sprintf("boundary-%d", i+1), s.offset, i + 1},
			// One byte short of the boundary tears record i: it and
			// everything after must vanish.
			cutpoint{fmt.Sprintf("torn-%d", i+1), s.offset - 1, i},
		)
	}

	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			dir := cloneDir(t, live)
			if err := os.Truncate(filepath.Join(dir, segmentName(seq)), cut.offset); err != nil {
				t.Fatal(err)
			}
			rst, err := Open(dir, schema, Options{SyncEvery: time.Hour})
			if err != nil {
				t.Fatalf("recovery after tear at %d bytes: %v", cut.offset, err)
			}
			defer rst.Close()
			if got, want := rst.Pos(), uint64(cut.survived); got != want {
				t.Fatalf("Pos = %d, want %d surviving records", got, want)
			}
			want := wantState(cut.survived)
			for link, sids := range want {
				if len(sids) == 0 {
					continue
				}
				held := rst.Held(link)
				if len(held) != len(sids) {
					t.Fatalf("link %q: %d entries, want %d", link, len(held), len(sids))
				}
				for _, h := range held {
					if !bytes.Equal(sids[h.ID], h.Rect.AppendBinary(nil, schema)) {
						t.Fatalf("link %q sid %d: payload diverges from the clean prefix", link, h.ID)
					}
				}
			}
		})
	}
}

// TestSyncOptionsValidation: the group-commit knob composes with nothing
// else that fsyncs per append.
func TestSyncOptionsValidation(t *testing.T) {
	schema := testSchema()
	if _, err := Open(t.TempDir(), schema, Options{Sync: true, SyncEvery: time.Second}); err == nil {
		t.Fatal("Sync together with SyncEvery must be refused")
	}
	if _, err := Open(t.TempDir(), schema, Options{SyncEvery: -time.Second}); err == nil {
		t.Fatal("negative SyncEvery must be refused")
	}
}

// sliceRing is the replication ring as an append-and-trim slice: it keeps
// between replRingMax and 1.5·replRingMax records and re-copies the window
// at every trim. TestReplicationRingWraps holds the circular ring to it.
type sliceRing struct {
	base uint64
	recs []record
}

func (g *sliceRing) push(rs []record) {
	g.recs = append(g.recs, rs...)
	if len(g.recs) > replRingMax+replRingMax/2 {
		drop := len(g.recs) - replRingMax
		g.base += uint64(drop)
		g.recs = append([]record(nil), g.recs[drop:]...)
	}
}

// ringWrap reports the stream position of the last record that starts
// before the ring buffer's end, when the held records run past it (ok is
// false when they do not): the ring's physical wrap.
func ringWrap(g *replRing) (pos uint64, ok bool) {
	if g.head+g.size <= len(g.buf) {
		return 0, false
	}
	pos = g.base + 1
	for off := g.head + g.recordLen(g.head); off < len(g.buf); off += g.recordLen(off) {
		pos++
	}
	return pos, true
}

// TestReplicationRingWraps: a tailer's catch-up out of the circular ring
// is the batch the slice ring gives — from positions before the window,
// at both of its edges, across the physical wrap, at and past the head,
// after pushes smaller and larger than the ring, and after InstallState's
// reset. The circular ring keeps exactly the last replRingMax records,
// the least the slice ring ever keeps, so a position it no longer holds
// gets a Reset dump.
func TestReplicationRingWraps(t *testing.T) {
	schema := testSchema()
	st, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pays := make([][]byte, familyK)
	for i := range pays {
		pays[i] = payload(t, rect(t, schema, i))
	}
	ref := sliceRing{}
	pushed := 0
	push := func(n int) {
		t.Helper()
		rs := make([]record, n)
		for i := range rs {
			k := pushed + i
			rs[i] = record{op: opAdd, link: "", sid: uint64(k%700 + 1), payload: pays[k%familyK]}
			if k%5 == 4 {
				rs[i] = record{op: opRem, link: "", sid: uint64((k-1)%700 + 1)}
			}
		}
		if err := st.appendBatch(rs); err != nil {
			t.Fatal(err)
		}
		ref.push(rs)
		pushed += n
	}
	// check opens a tailer at from and holds its catch-up to the slice
	// ring's window.
	check := func(stage string, from uint64) {
		t.Helper()
		pos := st.Pos()
		tl, err := st.Tail(from)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Close()
		held := pos - st.ring.base // records the circular ring holds
		switch {
		case from == pos:
			if len(tl.initial) != 0 {
				t.Fatalf("%s: Tail(%d) at the head replays %+v, want nothing", stage, from, tl.initial[0])
			}
		case from < pos && pos-from <= held:
			if held > replRingMax || from < ref.base {
				t.Fatalf("%s: the circular ring holds positions %d..%d, the slice ring only from %d", stage, st.ring.base+1, pos, ref.base+1)
			}
			b := tl.initial[0]
			if b.Reset || b.Base != from || b.Pos != pos {
				t.Fatalf("%s: Tail(%d) = reset %v base %d pos %d, want a replay of %d..%d", stage, from, b.Reset, b.Base, b.Pos, from+1, pos)
			}
			want := ref.recs[from-ref.base:]
			if n := countRecords(b.Recs); n != len(want) {
				t.Fatalf("%s: Tail(%d) replays %d records, the slice ring %d", stage, from, n, len(want))
			}
			if !bytes.Equal(b.Recs, encodeRun(want...)) {
				t.Fatalf("%s: Tail(%d) replays other bytes than the slice ring's records", stage, from)
			}
		default:
			b := tl.initial[0]
			if n := countRecords(b.Recs); !b.Reset || b.Pos != pos || n != st.Stats().Entries {
				t.Fatalf("%s: Tail(%d) = reset %v pos %d with %d records, want a reset dump of %d entries at %d", stage, from, b.Reset, b.Pos, n, st.Stats().Entries, pos)
			}
			if held < uint64(min(replRingMax, pushed)) && from >= ref.base && from <= pos {
				t.Fatalf("%s: Tail(%d) resets while the ring holds only %d records", stage, from, held)
			}
		}
	}
	probe := func(stage string) {
		t.Helper()
		pos := st.Pos()
		froms := []uint64{0, pos - 1, pos, pos + 1, st.ring.base, st.ring.base + 1}
		if st.ring.base > 0 {
			froms = append(froms, st.ring.base-1)
		}
		if pos > replRingMax {
			froms = append(froms, pos-replRingMax-1, pos-replRingMax, pos-replRingMax+1)
		}
		if w, ok := ringWrap(&st.ring); ok {
			// The last record before the buffer's end, then the wrap.
			froms = append(froms, w-1, w)
		}
		for _, from := range froms {
			if from <= pos+1 {
				check(stage, from)
			}
		}
	}
	for _, n := range []int{5000, 3, 9000, 1, 20000, 7777, 16384} {
		push(n)
		probe(fmt.Sprintf("after %d records", pushed))
	}
	if _, wrapped := ringWrap(&st.ring); !wrapped {
		t.Fatal("the pushes never left the ring wrapped mid-slice")
	}

	// A follower's reset: the ring restarts empty at the installed
	// position, and the history before it is gone from both rings.
	resetPos := st.Pos() + 50
	if err := st.InstallState(encodeRun(addRec(t, "", 1, 0), addRec(t, "x", 2, 1)), resetPos); err != nil {
		t.Fatal(err)
	}
	ref = sliceRing{base: resetPos}
	probe("after InstallState")
	check("after InstallState", resetPos-1)
	for _, n := range []int{100, 20000} {
		push(n)
		probe(fmt.Sprintf("after InstallState and %d more records", st.Pos()-resetPos))
		check("after InstallState", resetPos)
	}
}

// TestReplicationRingRecordsStraddleTheEnd lays one window of records —
// narrow ones and ones whose body needs a two-byte length prefix — into
// the ring's buffer at every start offset, so each record, and each byte
// of each length prefix, in turn straddles the buffer's end; from every
// position in the window must replay the records after it.
func TestReplicationRingRecordsStraddleTheEnd(t *testing.T) {
	long := string(bytes.Repeat([]byte("l"), 200))
	rs := []record{
		{op: opAdd, link: long, sid: 1, payload: []byte{1, 2, 3}},
		{op: opRem, link: "", sid: 9},
		{op: opAdd, link: "x", sid: 300, payload: bytes.Repeat([]byte{7}, 150)},
		{op: opRem, link: long, sid: 1},
		{op: opAdd, link: "", sid: 1 << 40, payload: nil},
	}
	var wire []byte
	for _, r := range rs {
		wire = appendRecord(wire, r)
	}
	const base = 100
	for start := range len(wire) + 3 {
		g := replRing{base: base, n: len(rs), buf: make([]byte, len(wire)+3), head: start, size: len(wire)}
		k := copy(g.buf[start:], wire)
		copy(g.buf, wire[k:])
		for skip := range len(rs) + 1 {
			got, ok := g.from(base + uint64(skip))
			if want := encodeRun(rs[skip:]...); !ok || !bytes.Equal(got, want) {
				t.Fatalf("start %d: from(%d) = %d records (%v), want the last %d", start, base+skip, countRecords(got), ok, len(rs)-skip)
			}
		}
	}
}

// FuzzReplicationRing holds the byte ring to the slice ring on an op
// stream the fuzzer draws, three bytes an op: push sizes from one record
// to past replRingMax, adds and removes, link names of 0, 1 and 200 bytes
// and payloads of 0 to 299 bytes — so records straddle the buffer's end
// at every byte of their length prefix and body, and resizes re-lay the
// window out. After every push the ring must hold exactly the last
// replRingMax records (fewer until that many were pushed), and from must
// replay, for positions inside the window, the slice ring's records, and
// refuse positions below or past it: at both edges of the window, at the
// wrap and at an offset the fuzzer draws.
func FuzzReplicationRing(f *testing.F) {
	f.Add([]byte{0, 10, 3, 1, 200, 9, 2, 40, 7, 3, 5, 250, 0, 63, 1})
	f.Add([]byte{7, 255, 255, 3, 1, 1, 4, 9, 99, 6, 128, 17, 7, 3, 200})
	f.Add([]byte{2, 255, 0, 2, 255, 1, 2, 255, 2, 1, 0, 0})
	links := []string{"", "x", string(bytes.Repeat([]byte("l"), 200))}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var g replRing
		ref := sliceRing{}
		pos, sid := uint64(0), uint64(0)
		for n := 0; len(ops) >= 3 && n < 6; n++ {
			c, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			count := 1 + int(a)%64
			switch c % 4 {
			case 2:
				count = 1 + (int(a)<<8|int(b))%(replRingMax/4)
			case 3:
				count = replRingMax + 1 + int(a)*int(b)%1024
			}
			rs := make([]record, count)
			for i := range rs {
				sid++
				rs[i] = record{op: opAdd, link: links[(int(c>>2)+i)%len(links)], sid: sid}
				width := (int(b) + 7*i) % 24
				if c&0x80 != 0 {
					width = (int(b) + 13*i) % 300
				}
				if (int(c>>4)+i)%3 == 0 {
					rs[i] = record{op: opRem, link: rs[i].link, sid: sid / 2}
				} else {
					rs[i].payload = bytes.Repeat([]byte{byte(i)}, width)
				}
			}
			var wire []byte
			for _, r := range rs {
				wire = appendRecord(wire, r)
			}
			g.push(wire, count)
			ref.push(rs)
			pos += uint64(count)

			if want := pos - min(pos, replRingMax); g.base != want || g.base+uint64(g.n) != pos {
				t.Fatalf("after %d records the ring holds positions %d..%d, want %d..%d", pos, g.base+1, g.base+uint64(g.n), want+1, pos)
			}
			froms := []uint64{g.base, pos - 1, pos, pos + 1, g.base + (pos-g.base)*uint64(a)/256}
			if g.base > 0 {
				froms = append(froms, g.base-1)
			}
			if w, ok := ringWrap(&g); ok {
				froms = append(froms, w-1, w)
			}
			for _, from := range froms {
				got, ok := g.from(from)
				if inside := from >= g.base && from <= pos; ok != inside {
					t.Fatalf("from(%d) with the window at %d..%d: ok %v", from, g.base+1, pos, ok)
				}
				if !ok {
					continue
				}
				want := ref.recs[from-ref.base:]
				if n := countRecords(got); n != len(want) {
					t.Fatalf("from(%d) replays %d records, the slice ring %d", from, n, len(want))
				}
				if !bytes.Equal(got, encodeRun(want...)) {
					t.Fatalf("from(%d) replays other bytes than the slice ring's records", from)
				}
			}
		}
	})
}
