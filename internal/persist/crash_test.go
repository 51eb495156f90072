package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
)

// The crash battery: drive a deterministic workload (adds, removes, a
// mid-stream snapshot, segment rotations) against a durable provider
// while journaling, for every operation, where its WAL record ended. Then
// for every crash point — every byte offset of the final segment — clone
// the data dir, truncate it there, recover, and demand bit-identical
// FindCover/FindCovered answers against a never-crashed twin built by
// replaying exactly the operations whose records survived the cut.
//
// The Detector backend runs the full per-byte sweep; the engine backend
// and the remote backend (in internal/sfcd) run the same battery at
// record granularity plus torn mid-record offsets.

// op is one journaled workload step.
type op struct {
	remove  bool
	link    string
	rectIdx int    // add: which rect
	sid     uint64 // remove: which durable sid
	// seq/offset locate the op's WAL record: the byte offset after the
	// record in segment seq. An op survives a crash at byte N of the
	// final segment iff seq < finalSeq or offset <= N.
	seq    uint64
	offset int64
}

// crashWorkload drives the canonical battery workload against providers
// built by mk (one per link), journaling every op's record location.
// Returns the journal; the store is left un-Closed, as a crash would.
func crashWorkload(t *testing.T, st *Store, mk func() core.Provider) []op {
	t.Helper()
	schema := st.Schema()
	provs := map[string]*DurableProvider{}
	for _, link := range []string{"", "L"} {
		d, err := st.Durable(link, mk())
		if err != nil {
			t.Fatal(err)
		}
		provs[link] = d
	}
	var journal []op
	sids := map[string][]uint64{}
	locate := func() (uint64, int64) {
		t.Helper()
		segs, err := listSeqs(st.dir, "wal-", ".log")
		if err != nil || len(segs) == 0 {
			t.Fatalf("locating final segment: %v (%d segs)", err, len(segs))
		}
		seq := segs[len(segs)-1]
		fi, err := os.Stat(filepath.Join(st.dir, segmentName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		return seq, fi.Size()
	}
	add := func(link string, i int) {
		t.Helper()
		sid, err := provs[link].Insert(rect(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		sids[link] = append(sids[link], sid)
		seq, off := locate()
		journal = append(journal, op{link: link, rectIdx: i, seq: seq, offset: off})
	}
	remove := func(link string, k int) {
		t.Helper()
		sid := sids[link][k]
		if err := provs[link].Remove(sid); err != nil {
			t.Fatal(err)
		}
		seq, off := locate()
		journal = append(journal, op{remove: true, link: link, sid: sid, seq: seq, offset: off})
	}

	for i := 0; i < 5; i++ {
		add("", i)
		add("L", i+5)
	}
	remove("", 2)
	remove("L", 0)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		add("", i)
	}
	add("L", 14)
	remove("", 5) // rect 10, logged after the snapshot
	add("L", 15)
	return journal
}

// cloneDir copies every regular file of src into a fresh temp dir.
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

// finalSegment returns the newest segment's seq and size.
func finalSegment(t *testing.T, dir string) (uint64, int64) {
	t.Helper()
	segs, err := listSeqs(dir, "wal-", ".log")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s", dir)
	}
	seq := segs[len(segs)-1]
	fi, err := os.Stat(filepath.Join(dir, segmentName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	return seq, fi.Size()
}

// twinFor builds the never-crashed twin of a crash point: a fresh durable
// provider pair that executes exactly the journal prefix surviving the
// cut. Deterministic sid assignment makes its ids the ground truth the
// recovered provider must reproduce bit-identically.
func twinFor(t *testing.T, schema *subscription.Schema, mk func() core.Provider, journal []op, finalSeq uint64, n int64) (map[string]*DurableProvider, func()) {
	t.Helper()
	st, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	provs := map[string]*DurableProvider{}
	for _, link := range []string{"", "L"} {
		d, err := st.Durable(link, mk())
		if err != nil {
			t.Fatal(err)
		}
		provs[link] = d
	}
	for _, o := range journal {
		if o.seq > finalSeq || (o.seq == finalSeq && o.offset > n) {
			continue // this record did not survive the crash
		}
		if o.remove {
			if err := provs[o.link].Remove(o.sid); err != nil {
				t.Fatal(err)
			}
		} else if _, err := provs[o.link].Insert(rect(t, schema, o.rectIdx)); err != nil {
			t.Fatal(err)
		}
	}
	return provs, func() {
		for _, d := range provs {
			d.Close()
		}
		st.Close()
	}
}

// probeFingerprint fingerprints both covering directions over the whole
// rect family (stored or not) for one provider.
func probeFingerprint(t *testing.T, schema *subscription.Schema, p core.Provider) string {
	t.Helper()
	return fmt.Sprintf("len=%d;%s", p.Len(), coverAnswers(t, schema, p, 16))
}

// runCrashBattery is the shared battery body. byteGranular sweeps every
// byte of the final segment; otherwise the crash points are each record
// boundary plus a torn offset inside each record.
func runCrashBattery(t *testing.T, schema *subscription.Schema, mk func() core.Provider, byteGranular bool) {
	live := t.TempDir()
	st, err := Open(live, schema, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	journal := crashWorkload(t, st, mk)
	// Abandon st without Close: the on-disk state is the crash image.
	finalSeq, finalSize := finalSegment(t, live)

	var points []int64
	if byteGranular {
		for n := int64(0); n <= finalSize; n++ {
			points = append(points, n)
		}
	} else {
		// Record boundaries plus one torn offset: the byte-granular sweep
		// already exercises every torn position on the Detector backend.
		points = append(points, int64(len(walMagic)))
		torn := false
		for _, o := range journal {
			if o.seq == finalSeq {
				if !torn {
					points = append(points, o.offset-3)
					torn = true
				}
				points = append(points, o.offset)
			}
		}
		points = append(points, finalSize)
	}

	for _, n := range points {
		if n < 0 || n > finalSize {
			continue
		}
		n := n
		t.Run(fmt.Sprintf("crash@%d", n), func(t *testing.T) {
			dir := cloneDir(t, live)
			if err := os.Truncate(filepath.Join(dir, segmentName(finalSeq)), n); err != nil {
				t.Fatal(err)
			}
			rst, err := Open(dir, schema, Options{})
			if err != nil {
				t.Fatalf("recovery at crash point %d: %v", n, err)
			}
			defer rst.Close()
			twins, closeTwins := twinFor(t, schema, mk, journal, finalSeq, n)
			defer closeTwins()
			for _, link := range []string{"", "L"} {
				rec, err := rst.Durable(link, mk())
				if err != nil {
					t.Fatalf("link %q: %v", link, err)
				}
				got := probeFingerprint(t, schema, rec)
				want := probeFingerprint(t, schema, twins[link])
				rec.Close()
				if got != want {
					t.Fatalf("link %q diverges at crash point %d:\n got %s\nwant %s", link, n, got, want)
				}
				if n == finalSize && !strings.Contains(want, "true") {
					t.Fatalf("vacuous battery: the full-state twin finds no covers on link %q: %s", link, want)
				}
			}
		})
	}
}

func detectorBackend(schema *subscription.Schema) func() core.Provider {
	return func() core.Provider {
		return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	}
}

func engineBackend(t *testing.T, schema *subscription.Schema) func() core.Provider {
	return func() core.Provider {
		// Exact mode over the SFC index: the anti-chain family's one-sided
		// constraints keep exhaustive decomposition cheap.
		e, err := engine.New(engine.Config{
			Detector: core.Config{
				Schema: schema, Mode: core.ModeExact, Seed: 7,
			},
			Shards:  4,
			Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

// TestCrashRecoveryDetectorEveryByte sweeps every byte offset of the
// final WAL segment as a crash point on the Detector backend.
func TestCrashRecoveryDetectorEveryByte(t *testing.T) {
	schema := testSchema()
	runCrashBattery(t, schema, detectorBackend(schema), true)
}

// TestCrashRecoveryEnginePrefix runs the battery at record granularity on
// the sharded engine.
func TestCrashRecoveryEnginePrefix(t *testing.T) {
	schema := testSchema()
	runCrashBattery(t, schema, engineBackend(t, schema), false)
}

// TestCrashDuplicatedSegment replays a duplicated final segment: record
// idempotency must make recovery identical to the never-crashed twin.
func TestCrashDuplicatedSegment(t *testing.T) {
	schema := testSchema()
	live := t.TempDir()
	st, err := Open(live, schema, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	mk := detectorBackend(schema)
	journal := crashWorkload(t, st, mk)
	finalSeq, finalSize := finalSegment(t, live)

	dir := cloneDir(t, live)
	data, err := os.ReadFile(filepath.Join(dir, segmentName(finalSeq)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(finalSeq+1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rst, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	twins, closeTwins := twinFor(t, schema, mk, journal, finalSeq, finalSize)
	defer closeTwins()
	for _, link := range []string{"", "L"} {
		rec, err := rst.Durable(link, mk())
		if err != nil {
			t.Fatal(err)
		}
		got, want := probeFingerprint(t, schema, rec), probeFingerprint(t, schema, twins[link])
		rec.Close()
		if got != want {
			t.Fatalf("duplicated segment diverges on link %q:\n got %s\nwant %s", link, got, want)
		}
	}
}

// TestCrashMidCompactionLeftovers: a crash between snapshot publication
// and old-segment deletion leaves superseded segments behind; recovery
// must skip them by sequence, not replay stale records over the snapshot.
func TestCrashMidCompactionLeftovers(t *testing.T) {
	schema := testSchema()
	live := t.TempDir()
	st, err := Open(live, schema, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	mk := detectorBackend(schema)
	journal := crashWorkload(t, st, mk)
	finalSeq, finalSize := finalSegment(t, live)

	dir := cloneDir(t, live)
	// Resurrect a stale pre-cutoff segment holding a record that was
	// superseded: an add of a long-removed sid. If recovery replayed it,
	// the removed subscription would resurrect.
	stale := appendRecord(nil, record{op: opAdd, link: "", sid: 3, payload: payload(t, rect(t, schema, 2))})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), append([]byte(walMagic), stale...), 0o644); err != nil {
		t.Fatal(err)
	}
	rst, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	twins, closeTwins := twinFor(t, schema, mk, journal, finalSeq, finalSize)
	defer closeTwins()
	for _, link := range []string{"", "L"} {
		rec, err := rst.Durable(link, mk())
		if err != nil {
			t.Fatal(err)
		}
		got, want := probeFingerprint(t, schema, rec), probeFingerprint(t, schema, twins[link])
		rec.Close()
		if got != want {
			t.Fatalf("stale segment leaked into recovery on link %q:\n got %s\nwant %s", link, got, want)
		}
	}
}
