package sfcd_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// daemon bundles one persistent daemon instance over a data dir.
type daemon struct {
	eng    *engine.Engine
	store  *persist.Store
	srv    *sfcd.Server
	client *sfcd.Client
}

// startDaemon boots engine + store + persistent server on dir and dials
// it.
func startDaemon(t *testing.T, schema *subscription.Schema, dir string) *daemon {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Detector:  core.Config{Schema: schema, Mode: core.ModeExact, Seed: 5},
		Shards:    4,
		Partition: engine.PartitionPrefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := persist.Open(dir, schema, persist.Options{})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv, err := sfcd.NewPersistentServer(eng, store, sfcd.ServerConfig{})
	if err != nil {
		store.Close()
		eng.Close()
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := sfcd.Dial(addr.String(), schema)
	if err != nil {
		t.Fatal(err)
	}
	return &daemon{eng: eng, store: store, srv: srv, client: client}
}

// stop tears the daemon down without snapshotting — the WAL alone must
// carry recovery.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.client.Close() //nolint:errcheck // the test owns a single Close
	d.srv.Close()
	d.eng.Close()
	if err := d.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// antiRect is the anti-chain family of the persist battery (one-sided min
// constraints: unique covering answers, cheap exact SFC search).
func antiRect(t testing.TB, schema *subscription.Schema, i int) *subscription.Subscription {
	t.Helper()
	return subscription.MustParse(schema, fmt.Sprintf("x >= %d && y >= %d", 2*i, 2*(16-i)))
}

// remoteFingerprint captures Len plus the covering answers over the
// family through a RemoteProvider. Every family member is stored at most
// once per namespace, so the answers name the held ids member by member.
func remoteFingerprint(t *testing.T, schema *subscription.Schema, p core.Provider) string {
	t.Helper()
	out := fmt.Sprintf("len=%d;", p.Len())
	for i := 0; i < 16; i++ {
		probe := subscription.MustParse(schema, fmt.Sprintf("x >= %d && y >= %d", 2*i+1, 2*(16-i)+1))
		id, found, _, err := p.FindCover(probe)
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("c%d:%v/%d;", i, found, id)
	}
	return out
}

// finalWALSegment globs the data dir for its newest WAL segment and
// returns where its last record ends. While the store holds the segment
// open the file runs on as zero padding up to the writer's reservation,
// so the end is found by walking the records (uvarint body length, body,
// 4-byte CRC) from the header to the first zero length byte.
func finalWALSegment(t *testing.T, dir string) (path string, end int64) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dir, err)
	}
	sort.Strings(matches) // zero-padded hex seqs sort lexicographically
	path = matches[len(matches)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := uint64(len("SFCW1\n"))
	for off < uint64(len(data)) && data[off] != 0 {
		bodyLen, n := binary.Uvarint(data[off:])
		if n <= 0 || off+uint64(n)+bodyLen+4 > uint64(len(data)) {
			break
		}
		off += uint64(n) + bodyLen + 4
	}
	return path, int64(min(off, uint64(len(data))))
}

func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRemoteCrashRecoveryBattery is the Remote leg of the crash battery:
// a persistent daemon takes a workload across two link namespaces (with a
// mid-stream snapshot), and for every record boundary — and a torn offset
// inside every record — of the final WAL segment, a fresh daemon booted
// from the truncated dir must answer bit-identically to the live,
// never-crashed daemon as of that record.
func TestRemoteCrashRecoveryBattery(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	live := t.TempDir()
	d := startDaemon(t, schema, live)

	shared, err := d.client.Provider("")
	if err != nil {
		t.Fatal(err)
	}
	linked, err := d.client.Provider("L")
	if err != nil {
		t.Fatal(err)
	}

	// Pre-snapshot phase.
	ctx := context.Background()
	var sharedSids []uint64
	for i := 0; i < 5; i++ {
		sid, err := shared.Insert(antiRect(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		sharedSids = append(sharedSids, sid)
		if _, err := linked.Insert(antiRect(t, schema, i+5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := shared.Remove(sharedSids[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.client.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}

	// Post-snapshot phase: after every op, record the final segment's end
	// and the live fingerprints — the never-crashed truth for a crash
	// right after that op's record.
	type checkpoint struct {
		size  int64
		print map[string]string
	}
	snap := func() checkpoint {
		_, size := finalWALSegment(t, live)
		return checkpoint{size: size, print: map[string]string{
			"":  remoteFingerprint(t, schema, shared),
			"L": remoteFingerprint(t, schema, linked),
		}}
	}
	checkpoints := []checkpoint{snap()}
	for i := 10; i < 14; i++ {
		if _, err := shared.Insert(antiRect(t, schema, i)); err != nil {
			t.Fatal(err)
		}
		checkpoints = append(checkpoints, snap())
	}
	if err := shared.Remove(sharedSids[3]); err != nil {
		t.Fatal(err)
	}
	checkpoints = append(checkpoints, snap())
	if _, err := linked.Insert(antiRect(t, schema, 15)); err != nil {
		t.Fatal(err)
	}
	checkpoints = append(checkpoints, snap())
	d.stop(t)

	finalPath, _ := finalWALSegment(t, live)
	for ci, cp := range checkpoints {
		points := []int64{cp.size} // clean record boundary
		if ci+1 < len(checkpoints) {
			points = append(points, (cp.size+checkpoints[ci+1].size)/2) // torn inside the next record
		}
		for _, n := range points {
			t.Run(fmt.Sprintf("crash@%d", n), func(t *testing.T) {
				dir := cloneDir(t, live)
				if err := os.Truncate(filepath.Join(dir, filepath.Base(finalPath)), n); err != nil {
					t.Fatal(err)
				}
				rd := startDaemon(t, schema, dir)
				defer rd.stop(t)
				for link, want := range cp.print {
					rp, err := rd.client.Provider(link)
					if err != nil {
						t.Fatal(err)
					}
					if got := remoteFingerprint(t, schema, rp); got != want {
						t.Fatalf("link %q diverges at crash point %d:\n got %s\nwant %s", link, n, got, want)
					}
				}
			})
		}
	}
	// Guard against a vacuous battery: the final checkpoint must find
	// covers on both namespaces.
	for link, print := range checkpoints[len(checkpoints)-1].print {
		if !strings.Contains(print, "true") {
			t.Fatalf("vacuous battery on link %q: %s", link, print)
		}
	}
}

// TestRemotePersistenceConformance runs the shared snapshot→restore→
// re-run battery with a daemon restart between the halves: the remote
// provider recovered by a rebooted daemon must behave exactly like a
// local one recovered from its store.
func TestRemotePersistenceConformance(t *testing.T) {
	schema := coretest.Schema()
	dir := t.TempDir()
	var cur *daemon
	coretest.RunPersistenceConformance(t, schema, func(t *testing.T) core.Provider {
		if cur != nil {
			cur.stop(t)
		}
		cur = startDaemon(t, schema, dir)
		p, err := cur.client.Provider("conformance")
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	if cur != nil {
		cur.stop(t)
	}
}

// TestSnapshotUnsupportedWithoutDataDir pins the typed outcome on a
// daemon running without persistence.
func TestSnapshotUnsupportedWithoutDataDir(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	eng, err := engine.New(engine.Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact},
		Shards:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := sfcd.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := sfcd.Dial(addr.String(), schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var se *sfcd.ServerError
	if err := c.Snapshot(context.Background()); !errors.As(err, &se) || se.Code != sfcd.CodeUnsupported {
		t.Fatalf("Snapshot on a store-less daemon = %v, want a CodeUnsupported server error", err)
	}
	p, err := c.Provider("")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("RemoteProvider.Snapshot = %v, want core.ErrUnsupported", err)
	}
}

// TestSnapshotGauges takes a snapshot on a -data-dir daemon and reads the
// last snapshot's cut hold and length back: on the stats op (0 < hold ≤
// length) and as the two /metrics gauges beside sfcd_snapshots_total.
func TestSnapshotGauges(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	d := startDaemon(t, schema, t.TempDir())
	defer d.stop(t)
	bg := context.Background()
	for i := 0; i < 16; i++ {
		if _, err := d.client.Insert(bg, antiRect(t, schema, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.client.Snapshot(bg); err != nil {
		t.Fatal(err)
	}
	st, err := d.client.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 1 || st.SnapshotHoldNs <= 0 || st.SnapshotHoldNs > st.SnapshotNs {
		t.Fatalf("stats after a snapshot: %d snapshots, hold %d ns, length %d ns; want 1 and 0 < hold <= length", st.Snapshots, st.SnapshotHoldNs, st.SnapshotNs)
	}
	text, err := d.client.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sfcd_snapshot_hold_seconds", "sfcd_snapshot_seconds"} {
		if !strings.Contains(text, "# TYPE "+name+" gauge\n") || !strings.Contains(text, "\n"+name+" ") || strings.Contains(text, "\n"+name+" 0\n") {
			t.Errorf("metrics exposition lacks a non-zero %s gauge", name)
		}
	}
}

// TestDaemonNeverRemintsAnID: on a -data-dir daemon, subscribe three
// times (ids 1, 2, 3) and unsubscribe 3, the largest; the next subscribe
// answers 4, never 3 again — after a restart on the shared engine, and
// on a link namespace after an unlink with no restart, which rebuilds the
// link from its durable state on its next use.
func TestDaemonNeverRemintsAnID(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	subscribeThreeDropThree := func(t *testing.T, p core.Provider) {
		t.Helper()
		for i := range 3 {
			id, _, _, err := p.Add(antiRect(t, schema, i))
			if err != nil {
				t.Fatal(err)
			}
			if id != uint64(i+1) {
				t.Fatalf("subscribe %d answered id %d, want %d", i+1, id, i+1)
			}
		}
		if err := p.Remove(3); err != nil {
			t.Fatal(err)
		}
	}
	requireNext := func(t *testing.T, p core.Provider) {
		t.Helper()
		id, _, _, err := p.Add(antiRect(t, schema, 5))
		if err != nil {
			t.Fatal(err)
		}
		if id != 4 {
			t.Fatalf("subscribe answered id %d, want 4: a removed id was minted again", id)
		}
	}
	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		d := startDaemon(t, schema, dir)
		p, err := d.client.Provider("")
		if err != nil {
			t.Fatal(err)
		}
		subscribeThreeDropThree(t, p)
		d.stop(t)
		d = startDaemon(t, schema, dir)
		defer d.stop(t)
		if p, err = d.client.Provider(""); err != nil {
			t.Fatal(err)
		}
		requireNext(t, p)
	})
	t.Run("unlink", func(t *testing.T) {
		d := startDaemon(t, schema, t.TempDir())
		defer d.stop(t)
		p, err := d.client.Provider("L")
		if err != nil {
			t.Fatal(err)
		}
		subscribeThreeDropThree(t, p)
		p.Close() // unlink: the daemon drops the link's index and rebuilds it on next use
		if p, err = d.client.Provider("L"); err != nil {
			t.Fatal(err)
		}
		requireNext(t, p)
	})
}
