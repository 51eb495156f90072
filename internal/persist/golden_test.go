package persist

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sfccover/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from this run")

// TestSnapshotBytesGolden pins the bytes a snapshot file and a Reset dump
// carry for a fixed op sequence: a Detector wrapped on "det", a one-slice
// engine wrapped on the shared link and one link written straight to the
// store and never wrapped. The goldens are compared byte for byte; run
// with -update to regenerate them, and review the diff.
func TestSnapshotBytesGolden(t *testing.T) {
	schema := testSchema()
	st, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 5; i++ {
		if err := st.appendAdd("plain", uint64(100+i), payload(t, rect(t, schema, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.appendRemove("plain", 102); err != nil {
		t.Fatal(err)
	}
	det, err := st.Durable("det", newTestDetector(schema))
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	eng, err := st.Durable("", newTestEngine(schema, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, p := range []core.Provider{det, eng} {
		goldenOps(t, p)
	}

	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSeqs(st.Dir(), "snap-", ".snap")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v (%v), want one", snaps, err)
	}
	snap, err := os.ReadFile(filepath.Join(st.Dir(), snapshotName(snaps[0])))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.golden", snap)

	tail, err := st.Tail(st.Pos() + 100) // divergent: always a Reset dump
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	b, err := tail.Next(make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reset {
		t.Fatal("divergent position got a plain batch, want a Reset dump")
	}
	checkGolden(t, "dump.golden", append(binary.AppendUvarint(nil, b.Pos), b.Recs...))
}

// goldenOps drives every write path of p through a fixed sequence: single
// inserts and arrivals, both batch forms, a single and a batch removal.
func goldenOps(t *testing.T, p core.Provider) {
	t.Helper()
	schema := p.Schema()
	a, err := p.Insert(rect(t, schema, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.Add(rect(t, schema, 1)); err != nil {
		t.Fatal(err)
	}
	batch, err := p.InsertBatch(family(t, schema, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.AddBatch(family(t, schema, 8, 12)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := p.Remove(a); err != nil {
		t.Fatal(err)
	}
	for _, err := range p.RemoveBatch(batch[1:3]) {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the golden's %d (run with -update and review the diff)", name, len(got), len(want))
	}
}
