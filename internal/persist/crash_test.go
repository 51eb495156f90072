package persist

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
)

// The crash battery: drive a deterministic workload (adds, removes, a
// mid-stream snapshot, segment rotations) against a durable provider
// while journaling, for every operation, where its WAL record ended. Then
// for every crash point — every byte offset of the final segment — clone
// the data dir, truncate it there, recover, and demand bit-identical
// FindCover answers and held sets against a never-crashed twin built by
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
		return seq, recordsEnd(t, filepath.Join(st.dir, segmentName(seq)))
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

// finalSegment returns the newest segment's seq and where its last
// record ends.
func finalSegment(t *testing.T, dir string) (uint64, int64) {
	t.Helper()
	segs, err := listSeqs(dir, "wal-", ".log")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s", dir)
	}
	seq := segs[len(segs)-1]
	return seq, recordsEnd(t, filepath.Join(dir, segmentName(seq)))
}

// recordsEnd returns the offset where the last whole record of the segment
// at path ends: its size once the segment is closed, and the start of its
// zero padding while a writer still holds it open (the file is then as
// long as the writer's reservation, not its records).
func recordsEnd(t testing.TB, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < len(walMagic) {
		return int64(len(data))
	}
	rest := data[len(walMagic):]
	for len(rest) > 0 && rest[0] != 0 {
		_, next, err := decodeRecord(rest, "")
		if err != nil {
			break
		}
		rest = next
	}
	return int64(len(data) - len(rest))
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

// probeFingerprint fingerprints the covering answers over the whole rect
// family (stored or not) and the held set for one provider.
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
	fi, err := os.Stat(filepath.Join(live, segmentName(finalSeq)))
	if err != nil {
		t.Fatal(err)
	}
	// The open segment runs on past its records as zero padding up to the
	// writer's reservation: a crash image ends anywhere in there.
	padded := fi.Size()

	var points []int64
	if byteGranular {
		for n := int64(0); n <= finalSize; n++ {
			points = append(points, n)
		}
		points = append(points, finalSize+1, (finalSize+padded)/2, padded)
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
		points = append(points, finalSize, padded)
	}

	for _, n := range points {
		if n < 0 || n > padded {
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

// TestCrashImagePaddedTail: a store abandoned without Close leaves its
// open segment as long as the writer's reservation, the records followed
// by zeros. Recovery reads the zeros as the end of the log and gets back
// every acked record.
func TestCrashImagePaddedTail(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := st.appendAdd("", uint64(i+1), payload(t, rect(t, schema, i%familyK))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.appendRemove("", 7); err != nil {
		t.Fatal(err)
	}
	seq, end := finalSegment(t, dir)
	fi, err := os.Stat(filepath.Join(dir, segmentName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= end {
		t.Fatalf("open segment is %d bytes with records ending at %d: no padded tail to recover through", fi.Size(), end)
	}
	// Dying in-process: drop the dir lock, as the process's death would.
	st.lock.Close()
	rst, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatalf("recovery over a padded tail: %v", err)
	}
	defer rst.Close()
	if got := len(rst.Held("")); got != n-1 {
		t.Fatalf("recovered %d entries, want the %d acked", got, n-1)
	}
	if rst.Pos() != n+1 {
		t.Fatalf("recovered Pos = %d, want %d", rst.Pos(), n+1)
	}
}

// TestCrashMidRotationPaddedSegment: a crash after rotation created the
// next segment but before it truncated the retired one leaves a padded
// segment that is not the final one. Its padding ends its records
// cleanly; a non-zero byte after the padding starts cannot come from a
// crash there and is ErrCorrupt.
func TestCrashMidRotationPaddedSegment(t *testing.T) {
	schema := testSchema()
	live := t.TempDir()
	st, err := Open(live, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := st.appendAdd("", uint64(i+1), payload(t, rect(t, schema, i))); err != nil {
			t.Fatal(err)
		}
	}
	seq, end := finalSegment(t, live)
	// The image rotation leaves between its two steps: the next segment
	// holds its header, the retired one still its reserve.
	image := func(t *testing.T) string {
		dir := cloneDir(t, live)
		if err := os.WriteFile(filepath.Join(dir, segmentName(seq+1)), []byte(walMagic), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("padded", func(t *testing.T) {
		rst, err := Open(image(t), schema, Options{})
		if err != nil {
			t.Fatalf("recovery over a padded non-final segment: %v", err)
		}
		defer rst.Close()
		if got := len(rst.Held("")); got != n {
			t.Fatalf("recovered %d entries, want %d", got, n)
		}
	})
	for _, at := range []string{"first", "last"} {
		t.Run("garbage-after-padding-"+at, func(t *testing.T) {
			dir := image(t)
			path := filepath.Join(dir, segmentName(seq))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := end + 1
			if at == "last" {
				off = int64(len(data)) - 1
			}
			data[off] = 0x5A
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, schema, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open over non-zero bytes in a non-final segment's padding = %v, want ErrCorrupt", err)
			}
		})
	}
}

// killChildEnv carries the data dir to the re-executed test binary that
// TestKilledProcessKeepsAckedRecords kills.
const killChildEnv = "SFCCOVER_PERSIST_KILL_CHILD_DIR"

// TestKilledProcessKeepsAckedRecords pins the process-crash promise of
// the mapped WAL. A child process (this test binary, re-executed) appends
// records under group commit with an interval it never reaches, so no
// fsync runs; it reports each ack on stdout and SIGKILLs itself. Every
// acked record was copied into the shared mapping, and so into the page
// cache, before its ack: recovery must find each one.
func TestKilledProcessKeepsAckedRecords(t *testing.T) {
	schema := testSchema()
	if dir := os.Getenv(killChildEnv); dir != "" {
		killedChild(t, schema, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKilledProcessKeepsAckedRecords$", "-test.count=1")
	cmd.Env = append(os.Environ(), killChildEnv+"="+dir)
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child exited with %v, want a SIGKILL; output:\n%s", err, out)
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child ended with %v, want SIGKILL; output:\n%s", exit, out)
	}
	var acked []uint64
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "ack "); ok {
			sid, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("bad ack line %q", line)
			}
			acked = append(acked, sid)
		}
	}
	if len(acked) != killChildRecords {
		t.Fatalf("child acked %d records, want %d", len(acked), killChildRecords)
	}
	seq, _ := finalSegment(t, dir)
	if fi, err := os.Stat(filepath.Join(dir, segmentName(seq))); err != nil || fi.Size() <= walMapInitial {
		t.Fatalf("the child's segment never outgrew its first mapping (%v, %v)", fi, err)
	}
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	held := map[uint64]subscription.Rect{}
	for _, h := range st.Held("") {
		held[h.ID] = h.Rect
	}
	for _, sid := range acked {
		if r, ok := held[sid]; !ok || r != rect(t, schema, int(sid)%familyK).Rect() {
			t.Fatalf("acked sid %d is missing or changed after the kill", sid)
		}
	}
}

// killChildRecords is how many records the killed child appends: enough
// to outgrow the first 64 KiB mapping, so the grown one is covered too.
const killChildRecords = 6000

// killedChild is the child half of TestKilledProcessKeepsAckedRecords.
func killedChild(t *testing.T, schema *subscription.Schema, dir string) {
	st, err := Open(dir, schema, Options{SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for sid := uint64(1); sid <= killChildRecords; sid++ {
		if err := st.appendAdd("", sid, payload(t, rect(t, schema, int(sid)%familyK))); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("ack %d\n", sid) // unbuffered: on the pipe before the next append
	}
	syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck // the process ends here
	select {}
}

// TestWriteZerosReserve drives the reserve's fallback for filesystems
// without fallocate: the file grows to the reservation with zeros, in
// chunks, and its header is left alone.
func TestWriteZerosReserve(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte(walMagic)); err != nil {
		t.Fatal(err)
	}
	const size = 3*walMapInitial + 5
	if err := writeZeros(f, int64(len(walMagic)), size); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != size || string(data[:len(walMagic)]) != walMagic || !allZero(data[len(walMagic):]) {
		t.Fatalf("reserve is %d bytes (want %d), header %q, zeros %v", len(data), size, data[:len(walMagic)], allZero(data[len(walMagic):]))
	}
}
