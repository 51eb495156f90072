package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/subscription"
)

func testSchema() *subscription.Schema { return subscription.MustSchema(8, "x", "y") }

// The test family is an anti-chain of one-sided min constraints:
// rect(i) = (x >= 2i && y >= 2(K−i)). rect(j) covers rect(i) iff j <= i
// AND j >= i, so no member covers another, and the probe below has
// exactly one covering member — recovery comparisons can
// demand bit-identical ids even though FindCover returns "any" cover.
// One-sided constraints also keep exact SFC queries cheap: the dominance
// region hugs the domain's top corner (per-axis sides lo+1 and max−hi+1,
// and every hi is max), so exhaustive decomposition stays tiny where
// mid-domain rectangles would explode (the paper's aspect-ratio caveat).
const familyK = 16

// rect returns the i-th anti-chain member.
func rect(t testing.TB, schema *subscription.Schema, i int) *subscription.Subscription {
	t.Helper()
	if i < 0 || i > familyK {
		t.Fatalf("rect index %d out of the anti-chain's range", i)
	}
	return subscription.MustParse(schema, fmt.Sprintf("x >= %d && y >= %d", 2*i, 2*(familyK-i)))
}

// inner returns a probe covered by rect(i) and no other family member.
func inner(t testing.TB, schema *subscription.Schema, i int) *subscription.Subscription {
	t.Helper()
	return subscription.MustParse(schema, fmt.Sprintf("x >= %d && y >= %d", 2*i+1, 2*(familyK-i)+1))
}

// appendAdd logs one subscription arrival, as a durable write's append
// does, and on an un-wrapped link mirrors it: its payload is decoded
// first, and one that does not decode is refused with nothing written.
func (st *Store) appendAdd(link string, sid uint64, payload []byte) error {
	return st.appendBatch([]record{{op: opAdd, link: link, sid: sid, payload: payload}})
}

// payload marshals a subscription for direct store appends.
func payload(t testing.TB, s *subscription.Subscription) []byte {
	t.Helper()
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestStoreRoundTrip(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.appendAdd("a", 1, payload(t, rect(t, schema, 0))); err != nil {
		t.Fatal(err)
	}
	if err := st.appendAdd("a", 2, payload(t, rect(t, schema, 1))); err != nil {
		t.Fatal(err)
	}
	if err := st.appendAdd("b", 7, payload(t, rect(t, schema, 2))); err != nil {
		t.Fatal(err)
	}
	if err := st.appendRemove("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if links := st2.Links(); len(links) != 2 || links[0] != "a" || links[1] != "b" {
		t.Fatalf("Links = %v, want [a b]", links)
	}
	a := st2.Held("a")
	if len(a) != 1 || a[0].ID != 1 {
		t.Fatalf("Held(a) = %+v, want the single surviving sid 1", a)
	}
	if got := a[0].Rect.Subscription(schema); !got.Equal(rect(t, schema, 0)) {
		t.Fatalf("recovered subscription does not round-trip: %v", got)
	}
	if b := st2.Held("b"); len(b) != 1 || b[0].ID != 7 {
		t.Fatalf("Held(b) = %+v", b)
	}
}

// TestCompactionSkipsDirectories: a directory in the data dir is no
// segment or snapshot, whatever its name, so neither recovery nor a
// snapshot's compaction touches it.
func TestCompactionSkipsDirectories(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	odd := []string{filepath.Join(dir, segmentName(0)), filepath.Join(dir, snapshotName(0))}
	for _, d := range odd {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.appendAdd("", 1, payload(t, rect(t, schema, 1))); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, d := range odd {
		if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
			t.Fatalf("compaction removed the directory %s: %v", filepath.Base(d), err)
		}
	}
}

func TestStoreSnapshotCompaction(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{SegmentBytes: 64}) // force rotation
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.appendAdd("", uint64(i+1), payload(t, rect(t, schema, i))); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore, _ := listSeqs(dir, "wal-", ".log")
	if len(segsBefore) < 2 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segsBefore))
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if ss := st.Stats(); ss.Snapshots != 1 || ss.Entries != 8 {
		t.Fatalf("Stats = %+v", ss)
	}
	// Compaction must leave only the post-snapshot segment(s) and one
	// snapshot file.
	segs, _ := listSeqs(dir, "wal-", ".log")
	snaps, _ := listSeqs(dir, "snap-", ".snap")
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %v, want exactly one", snaps)
	}
	for _, seq := range segs {
		if seq < snaps[0] {
			t.Fatalf("segment %d survived compaction below cutoff %d", seq, snaps[0])
		}
	}
	// Post-snapshot appends replay on top of the snapshot.
	if err := st.appendRemove("", 3); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Held("")); got != 7 {
		t.Fatalf("recovered %d entries, want 7", got)
	}
	for _, h := range st2.Held("") {
		if h.ID == 3 {
			t.Fatal("sid 3 was removed after the snapshot but resurrected on recovery")
		}
	}
}

func TestStoreSchemaMismatch(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.appendAdd("", 1, payload(t, rect(t, schema, 0))); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Open(dir, subscription.MustSchema(10, "x", "y"), Options{}); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("Open under a different bit width = %v, want ErrSchemaMismatch", err)
	}
	if _, err := Open(dir, subscription.MustSchema(8, "x", "z"), Options{}); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("Open under different attrs = %v, want ErrSchemaMismatch", err)
	}
}

func TestStoreCloseSemantics(t *testing.T) {
	st, err := Open(t.TempDir(), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if err := st.appendAdd("", 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close = %v, want ErrClosed", err)
	}
	if err := st.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}
}

func TestCorruptSnapshotRefused(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.appendAdd("", 1, payload(t, rect(t, schema, 0))); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	snaps, _ := listSeqs(dir, "snap-", ".snap")
	path := filepath.Join(dir, snapshotName(snaps[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, schema, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a bit-flipped snapshot = %v, want ErrCorrupt", err)
	}
}

func TestCorruptMidStreamSegmentRefused(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.appendAdd("", uint64(i+1), payload(t, rect(t, schema, i))); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	segs, _ := listSeqs(dir, "wal-", ".log")
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(segs))
	}
	// Truncate a NON-final segment: a crash cannot do this, so recovery
	// must refuse rather than silently drop its tail.
	path := filepath.Join(dir, segmentName(segs[0]))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, schema, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a torn mid-stream segment = %v, want ErrCorrupt", err)
	}
}

// undecodable is an add payload that frames and checksums cleanly in a
// record but does not decode: its header names the test schema, and it
// ends before x's upper bound.
var undecodable = []byte{0x51, 2, 8, 1}

// TestReplayRefusesUndecodablePayload: the store never logs an add whose
// payload does not decode, and a segment that holds one anyway fails
// Open with ErrCorrupt naming its link and sid — not a later Durable.
func TestReplayRefusesUndecodablePayload(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.appendAdd("a", 2, undecodable); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("appendAdd of an undecodable payload on an unwrapped link = %v, want ErrCorrupt", err)
	}
	if n := st.Stats().WALRecords; n != 0 {
		t.Fatalf("a refused add logged %d records", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := []byte(walMagic)
	seg = appendRecord(seg, record{op: opAdd, link: "a", sid: 1, payload: payload(t, rect(t, schema, 0))})
	seg = appendRecord(seg, record{op: opAdd, link: "a", sid: 2, payload: undecodable})
	segs, err := listSeqs(dir, "wal-", ".log")
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(segs[len(segs)-1]+1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, schema, Options{})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), `link "a" sid 2`) {
		t.Fatalf("Open over an undecodable add = %v, want ErrCorrupt naming link \"a\" sid 2", err)
	}
}

func TestWriteHookFailureBehavesLikeCrash(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	var budget = 200 // bytes of WAL the "disk" accepts before failing
	boom := errors.New("injected crash")
	st, err := Open(dir, schema, Options{
		WriteHook: func(segment string, off int64, p []byte) error {
			if budget -= len(p); budget < 0 {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for i := 0; i < 20; i++ {
		if err := st.appendAdd("", uint64(i+1), payload(t, rect(t, schema, i%8))); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("append failed with %v, want the injected error", err)
			}
			break
		}
		logged++
	}
	if logged == 0 || logged == 20 {
		t.Fatalf("injection never fired usefully (logged %d)", logged)
	}
	// Abandon the store as a crash would (no Close) and recover: exactly
	// the records that landed before the injected failure survive. A real
	// crash kills the process and with it the dir flock; dying in-process
	// is simulated by dropping the lock handle.
	st.lock.Close()
	st2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Held("")); got != logged {
		t.Fatalf("recovered %d entries, want the %d logged before the crash", got, logged)
	}
}

// TestDurableDetectorRecovery pins the core durability contract on the
// single-detector backend: recovered providers answer with the same
// durable sids the pre-restart ones assigned.
func TestDurableDetectorRecovery(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	newDetector := func() core.Provider {
		return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	}

	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Durable("", newDetector())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 6)
	for i := range ids {
		if ids[i], err = d.Insert(rect(t, schema, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Remove(ids[4]); err != nil {
		t.Fatal(err)
	}
	liveAnswers := coverAnswers(t, schema, d, 6)
	d.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2, err := st2.Durable("", newDetector())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 5 {
		t.Fatalf("recovered Len = %d, want 5", d2.Len())
	}
	if got := coverAnswers(t, schema, d2, 6); got != liveAnswers {
		t.Fatalf("recovered answers diverge:\n got %v\nwant %v", got, liveAnswers)
	}
	// New sids continue past the recovered ceiling — no reuse.
	newID, err := d2.Insert(rect(t, schema, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if newID == old {
			t.Fatalf("recovered provider reused sid %d", newID)
		}
	}
	// Subscriptions serves the recovered dump, sorted.
	subs := d2.Subscriptions()
	if len(subs) != 6 {
		t.Fatalf("Subscriptions() = %d entries, want 6", len(subs))
	}
	for i := 1; i < len(subs); i++ {
		if subs[i].ID <= subs[i-1].ID {
			t.Fatal("Subscriptions() not sorted by id")
		}
	}
}

// coverAnswers fingerprints FindCover over the disjoint probe family —
// the exact (id, found) pairs — and the held set Enumerate returns, which
// must be bit-identical between a recovered provider and its
// never-crashed twin.
func coverAnswers(t testing.TB, schema *subscription.Schema, p core.Provider, n int) string {
	t.Helper()
	out := ""
	for i := 0; i < n; i++ {
		id, found, _, err := p.FindCover(inner(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("c%d:%v/%d;", i, found, id)
	}
	held, err := coretest.HeldOf(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range held {
		out += fmt.Sprintf("h%d:%v;", h.ID, h.Rect)
	}
	return out
}

func TestDurableDoubleWrapRefused(t *testing.T) {
	schema := testSchema()
	st, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mk := func() core.Provider {
		return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	}
	d, err := st.Durable("x", mk())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Durable("x", mk()); err == nil {
		t.Fatal("wrapping the same link twice must fail")
	}
	d.Close()
	d2, err := st.Durable("x", mk())
	if err != nil {
		t.Fatalf("re-wrapping after Close: %v", err)
	}
	d2.Close()
}

// TestStoreSingleOpener pins the data-dir lock: a second live store over
// the same dir must be refused (two daemons on one -data-dir would
// silently diverge), and the lock dies with Close.
func TestStoreSingleOpener(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, schema, Options{}); err == nil {
		t.Fatal("second Open over a live store must be refused")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	st2.Close()
}

// TestRemoveLogFailureRestoresClaim pins the claim → log → apply
// ordering: a remove whose log write fails must leave the subscription
// held, mapped and persisted — memory never runs ahead of durable state.
func TestRemoveLogFailureRestoresClaim(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	fail := false
	boom := errors.New("injected write failure")
	st, err := Open(dir, schema, Options{
		WriteHook: func(string, int64, []byte) error {
			if fail {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := st.Durable("", core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sid, err := d.Insert(rect(t, schema, 1))
	if err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := d.Remove(sid); !errors.Is(err, boom) {
		t.Fatalf("Remove under failing log = %v, want the injected error", err)
	}
	if errs := d.RemoveBatch([]uint64{sid}); !errors.Is(errs[0], boom) {
		t.Fatalf("RemoveBatch under failing log = %v, want the injected error", errs[0])
	}
	fail = false
	// The failed removes changed nothing: still held, still answering,
	// still removable.
	if d.Len() != 1 {
		t.Fatalf("Len = %d after failed removes, want 1", d.Len())
	}
	if got, ok := d.Subscription(sid); !ok || !got.Equal(rect(t, schema, 1)) {
		t.Fatal("sid lost its mapping after a failed remove")
	}
	if _, found, _, err := d.FindCover(inner(t, schema, 1)); err != nil || !found {
		t.Fatalf("FindCover after failed remove = (%v,%v), want a hit", found, err)
	}
	if err := d.Remove(sid); err != nil {
		t.Fatalf("remove after recovery from log failure: %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after successful remove", d.Len())
	}
}

// TestIdleSnapshotSkipped pins the no-op snapshot path: with nothing
// logged since the last snapshot, Snapshot must neither rotate the WAL
// nor rewrite the snapshot file.
func TestIdleSnapshotSkipped(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.appendAdd("", 1, payload(t, rect(t, schema, 0))); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segs1, _ := listSeqs(dir, "wal-", ".log")
	if err := st.Snapshot(); err != nil { // idle: must be a no-op
		t.Fatal(err)
	}
	segs2, _ := listSeqs(dir, "wal-", ".log")
	if st.Stats().Snapshots != 1 {
		t.Fatalf("idle snapshot was not skipped: %d snapshots", st.Stats().Snapshots)
	}
	if len(segs2) != len(segs1) {
		t.Fatalf("idle snapshot rotated the WAL: %v -> %v", segs1, segs2)
	}
	// New records re-arm it.
	if err := st.appendRemove("", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Snapshots != 2 {
		t.Fatalf("dirty snapshot skipped: %d snapshots", st.Stats().Snapshots)
	}
}

// TestFailedAppendLeavesNoTornBytes pins the snip-on-failure behavior: a
// vetoed (failed) append must leave the segment at its last record
// boundary so later successful appends are not stranded behind torn
// bytes that replay would drop.
func TestFailedAppendLeavesNoTornBytes(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	fail := false
	boom := errors.New("injected write failure")
	st, err := Open(dir, schema, Options{
		WriteHook: func(string, int64, []byte) error {
			if fail {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.appendAdd("", 1, payload(t, rect(t, schema, 0))); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := st.appendAdd("", 2, payload(t, rect(t, schema, 1))); !errors.Is(err, boom) {
		t.Fatalf("append under failing disk = %v, want the injected error", err)
	}
	fail = false
	// The disk "recovered": the next append must land and be replayable.
	if err := st.appendAdd("", 3, payload(t, rect(t, schema, 2))); err != nil {
		t.Fatalf("append after disk recovery: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	held := st2.Held("")
	if len(held) != 2 || held[0].ID != 1 || held[1].ID != 3 {
		t.Fatalf("recovered %+v, want exactly sids 1 and 3 (the failed 2 snipped, the later 3 preserved)", held)
	}
}

// TestDurableInsertBatch pins the durable wrapper's bulk insert: one batch, durable sids out, a single log write that
// replays under the same sids after a restart — and nothing applied to
// the wrapped provider when that log write fails.
func TestDurableInsertBatch(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	newDetector := func() core.Provider {
		return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	}

	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Durable("", newDetector())
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*subscription.Subscription, 4)
	for i := range subs {
		subs[i] = rect(t, schema, i)
	}
	sids, err := d.InsertBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sids) != 4 {
		t.Fatalf("InsertBatch returned %d sids, want 4", len(sids))
	}
	seen := map[uint64]bool{}
	for _, sid := range sids {
		if seen[sid] {
			t.Fatalf("InsertBatch reused sid %d inside one batch", sid)
		}
		seen[sid] = true
	}
	if d.Len() != 4 {
		t.Fatalf("Len after batch = %d, want 4", d.Len())
	}
	liveAnswers := coverAnswers(t, schema, d, 4)
	d.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2, err := st2.Durable("", newDetector())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 4 {
		t.Fatalf("recovered Len = %d, want 4", d2.Len())
	}
	if got := coverAnswers(t, schema, d2, 4); got != liveAnswers {
		t.Fatalf("recovered answers diverge:\n got %v\nwant %v", got, liveAnswers)
	}
	// The batch's sids survived recovery verbatim, and stay live handles:
	// removing through one must stick.
	for _, sid := range sids {
		if _, ok := d2.Subscription(sid); !ok {
			t.Fatalf("sid %d from the pre-restart batch is gone after recovery", sid)
		}
	}
	if err := d2.Remove(sids[2]); err != nil {
		t.Fatalf("Remove(recovered batch sid): %v", err)
	}
	if d2.Len() != 3 {
		t.Fatalf("Len after removing one batch member = %d, want 3", d2.Len())
	}

	// A failed log write must leave the wrapped provider empty —
	// no subscription may be queryable that the log never recorded.
	dir2 := t.TempDir()
	st3, err := Open(dir2, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d3, err := st3.Durable("", newDetector())
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d3.InsertBatch(subs); !errors.Is(err, ErrClosed) {
		t.Fatalf("InsertBatch on closed store = %v, want ErrClosed", err)
	}
	if d3.Len() != 0 {
		t.Fatalf("wrapped provider holds %d subscriptions after a failed batch log, want 0", d3.Len())
	}
}
