package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The id high-water mark: a DurableProvider never mints an id an add
// record in the dir's history carried, even once a remove dropped it and
// nothing held shows it — across a restart, a snapshot, a release and
// re-wrap, and a follower's reset and promotion.

// mintThreeDropThree wraps link on st, mints three ids from first on
// and removes the largest: afterwards no held id shows that it was
// minted.
func mintThreeDropThree(t *testing.T, st *Store, link string, first uint64) *DurableProvider {
	t.Helper()
	d, err := st.Durable(link, newTestEngine(st.Schema(), 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range uint64(3) {
		id, err := d.Insert(rect(t, st.Schema(), int(i)))
		if err != nil {
			t.Fatal(err)
		}
		if id != first+i {
			t.Fatalf("minted %d, want %d", id, first+i)
		}
	}
	if err := d.Remove(first + 2); err != nil {
		t.Fatal(err)
	}
	return d
}

// requireMints wraps link on st and requires its next mint to be want.
func requireMints(t *testing.T, st *Store, link string, want uint64) {
	t.Helper()
	d, err := st.Durable(link, newTestEngine(st.Schema(), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.Insert(rect(t, st.Schema(), 5))
	if err != nil {
		t.Fatal(err)
	}
	if id != want {
		t.Fatalf("minted %d, want %d: an id minted before was minted again", id, want)
	}
}

// TestMarkSurvivesRestart: after a restart that replays the WAL, the
// removed top id is not minted again.
func TestMarkSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mintThreeDropThree(t, st, "", 1).Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	requireMints(t, st, "", 4)
}

// TestMarkSurvivesSnapshot: a snapshot compacts the add of 3 away, and
// its header carries the mark across the restart.
func TestMarkSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mintThreeDropThree(t, st, "x", 1).Close()
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqs(dir, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range segs {
		if fi, err := os.Stat(filepath.Join(dir, segmentName(seq))); err != nil || fi.Size() > int64(len(walMagic)) {
			t.Fatalf("segment %d outlived the snapshot with records in it (%v)", seq, err)
		}
	}
	st, err = Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	requireMints(t, st, "x", 4)
}

// TestMarkSurvivesRewrap: with no restart at all, releasing the link and
// wrapping it again — what sfcd's unlink does before the link's next use
// — mints past the mark.
func TestMarkSurvivesRewrap(t *testing.T) {
	st, err := Open(t.TempDir(), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d := mintThreeDropThree(t, st, "x", 1)
	d.Release()
	requireMints(t, st, "x", 4)
	// The mark is the store's: a fresh link starts past it.
	mintThreeDropThree(t, st, "y", 5).Close()
	requireMints(t, st, "y", 8)
}

// TestPromotedFollowerMintsPastMark: a follower that took the primary's
// state as a reset image, and one that followed its records live, each
// promoted (its links wrapped) after the primary removed its largest id,
// mint past that id — the image carries the mark, and the live records
// advance it.
func TestPromotedFollowerMintsPastMark(t *testing.T) {
	schema := testSchema()
	primary, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	live, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	tail, err := primary.Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	mintThreeDropThree(t, primary, "", 1).Close()
	for live.Pos() != primary.Pos() {
		b, err := tail.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		applyBatch(t, live, b)
	}

	reset, err := primary.Tail(primary.Pos() + 100) // divergent: a reset image
	if err != nil {
		t.Fatal(err)
	}
	defer reset.Close()
	b, err := reset.Next(nil)
	if err != nil || !b.Reset {
		t.Fatalf("divergent position got reset %v (%v), want a reset image", b.Reset, err)
	}
	fdir := t.TempDir()
	follower, err := Open(fdir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyBatch(t, follower, b)
	requireMints(t, live, "", 4)
	requireMints(t, follower, "", 4)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err = Open(fdir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	requireMints(t, follower, "", 5) // 4 was minted, and logged, before the restart
}

// TestFollowerSnapshotIsPrimaryImage: the snapshot a follower installs
// from a reset is the image the primary streamed, byte for byte.
func TestFollowerSnapshotIsPrimaryImage(t *testing.T) {
	schema := testSchema()
	primary, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	eng, det := wrapPair(t, primary)
	defer eng.Close()
	defer det.Close()
	goldenOps(t, eng)
	goldenOps(t, det)
	tail, err := primary.Tail(primary.Pos() + 100)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	b, err := tail.Next(nil)
	if err != nil || !b.Reset {
		t.Fatalf("divergent position got reset %v (%v), want a reset image", b.Reset, err)
	}
	fdir := t.TempDir()
	follower, err := Open(fdir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	applyBatch(t, follower, b)
	snaps, err := listSeqs(fdir, "snap-", ".snap")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("follower snapshots = %v (%v), want one", snaps, err)
	}
	got, err := os.ReadFile(filepath.Join(fdir, snapshotName(snaps[0])))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b.Recs) {
		t.Fatalf("the follower's snapshot (%d bytes) is not the primary's image (%d bytes)", len(got), len(b.Recs))
	}
	demandSameState(t, follower, primary)
}

// TestSFCS2DirOpensAtLargestRecoveredID: a dir whose snapshot predates
// the mark opens with mark 0, so it mints one past its largest recovered
// id, as before the mark; the WAL it replays on top advances the mark.
func TestSFCS2DirOpensAtLargestRecoveredID(t *testing.T) {
	schema := testSchema()
	for _, c := range []struct {
		name string
		wal  []record
		want uint64
	}{
		{"snapshot only", nil, 6},
		{"snapshot and WAL", []record{addRec(t, "", 9, 2), {op: opRem, link: "", sid: 9}}, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			img := imageOf(snapMagicV2, schema, 4, 0, addRec(t, "", 2, 0), addRec(t, "", 5, 1))
			if err := writeSnapshot(dir, 1, img); err != nil {
				t.Fatal(err)
			}
			seg := []byte(walMagic)
			for _, r := range c.wal {
				seg = appendRecord(seg, r)
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, schema, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if st.Pos() != 4+uint64(len(c.wal)) {
				t.Fatalf("Pos = %d, want %d", st.Pos(), 4+len(c.wal))
			}
			requireMints(t, st, "", c.want)
		})
	}
}

// TestSFCS1DirRefused: a dir whose snapshot predates basePos (SFCS1) is
// refused as corrupt, checksum intact or not.
func TestSFCS1DirRefused(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshot(dir, 1, imageOf("SFCS1\n", testSchema(), 4, 0, addRec(t, "", 2, 0))); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(dir, testSchema(), Options{}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			st.Close()
		}
		t.Fatalf("Open of an SFCS1 dir = %v, want ErrCorrupt", err)
	}
}
