package persist_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/obs"
	"sfccover/internal/persist"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// The cold-start benchmarks compare the two recovery sources: a data dir
// holding one snapshot (the sorted dump feeds the engine's bulk-load
// path directly) versus the same population as raw WAL records (replay
// reconstructs the mirror map first, then bulk-loads). Run with -bench
// Recover; the numbers are recorded in EXPERIMENTS.md.

func benchSubs(tb testing.TB, schema *subscription.Schema, n int) []*subscription.Subscription {
	tb.Helper()
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: n, Dist: workload.DistUniform, WidthFrac: 0.05, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return subs
}

// seedDir populates a fresh data dir so that n subscriptions survive and
// returns it. churn additionally writes (and removes) 2n transient
// subscriptions first — dead log weight that only compaction can shed.
// snapshotted selects whether the final state lands as one snapshot (WAL
// compacted away) or stays as raw WAL records.
func seedDir(b *testing.B, schema *subscription.Schema, subs []*subscription.Subscription, snapshotted, churn bool) string {
	b.Helper()
	dir := b.TempDir()
	st, err := persist.Open(dir, schema, persist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	det := core.MustNew(core.Config{Schema: schema, Mode: core.ModeOff})
	d, err := st.Durable("", det)
	if err != nil {
		b.Fatal(err)
	}
	if churn {
		transient := benchSubs(b, schema, 2*len(subs))
		var sids []uint64
		for _, r := range d.AddBatch(transient) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			sids = append(sids, r.ID)
		}
		for _, err := range d.RemoveBatch(sids) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, r := range d.AddBatch(subs) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	if snapshotted {
		if err := d.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	d.Close()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func benchRecover(b *testing.B, snapshotted, churn bool) {
	schema := subscription.MustSchema(10, "volume", "price")
	for _, n := range []int{10000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			subs := benchSubs(b, schema, n)
			dir := seedDir(b, schema, subs, snapshotted, churn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := persist.Open(dir, schema, persist.Options{})
				if err != nil {
					b.Fatal(err)
				}
				eng := engine.MustNew(engine.Config{
					Detector:  core.Config{Schema: schema, Mode: core.ModeOff},
					Shards:    8,
					Partition: engine.PartitionPrefix,
				})
				d, err := st.Durable("", eng)
				if err != nil {
					b.Fatal(err)
				}
				if d.Len() != n {
					b.Fatalf("recovered %d of %d", d.Len(), n)
				}
				b.StopTimer()
				d.Close()
				st.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRecoverFromSnapshot measures boot from a compacted dir: one
// snapshot file, no WAL replay.
func BenchmarkRecoverFromSnapshot(b *testing.B) { benchRecover(b, true, false) }

// BenchmarkRecoverFromWAL measures boot from raw log records: full
// segment replay, then the same bulk load.
func BenchmarkRecoverFromWAL(b *testing.B) { benchRecover(b, false, false) }

// BenchmarkRecoverFromChurnedWAL measures boot from a log carrying 4n
// dead records (2n transient adds + their removes) ahead of the n live
// ones — the case periodic snapshots exist for.
func BenchmarkRecoverFromChurnedWAL(b *testing.B) { benchRecover(b, false, true) }

// BenchmarkRecoverFromChurnedSnapshot is the same churned history after
// one snapshot compacted it away.
func BenchmarkRecoverFromChurnedSnapshot(b *testing.B) { benchRecover(b, true, true) }

// BenchmarkDurableAddBatch measures the write-path overhead the WAL adds
// to the engine's batched arrival path.
func BenchmarkDurableAddBatch(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(b, schema, 10000)
	for _, durable := range []bool{false, true} {
		name := "engine-bare"
		if durable {
			name = "engine-durable"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := engine.MustNew(engine.Config{
					Detector:  core.Config{Schema: schema, Mode: core.ModeOff},
					Shards:    8,
					Partition: engine.PartitionPrefix,
				})
				var p core.Provider = eng
				var st *persist.Store
				if durable {
					var err error
					st, err = persist.Open(b.TempDir(), schema, persist.Options{})
					if err != nil {
						b.Fatal(err)
					}
					p, err = st.Durable("", eng)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, r := range p.AddBatch(subs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				b.StopTimer()
				p.Close()
				if st != nil {
					st.Close()
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDurableInsertSync compares the three WAL durability settings
// on the per-append path group commit exists for: a stream of single
// inserts. "sync" pays one fsync per append, "group" (SyncEvery) returns
// after the copy into the segment's mapping and lets the store's sync loop fold the whole
// window into one fsync, "nosync" leaves flushing to the OS entirely.
// Run with -bench InsertSync; the margin is recorded in EXPERIMENTS.md.
func BenchmarkDurableInsertSync(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	for _, mode := range []struct {
		name string
		opts persist.Options
	}{
		{"sync", persist.Options{Sync: true}},
		{"group-5ms", persist.Options{SyncEvery: 5 * time.Millisecond}},
		{"nosync", persist.Options{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			subs := benchSubs(b, schema, 4096)
			st, err := persist.Open(b.TempDir(), schema, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			det := core.MustNew(core.Config{Schema: schema, Mode: core.ModeOff})
			d, err := st.Durable("", det)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Insert(subs[i%len(subs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d.Close()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDurableAddBatchSync is the batch-path companion: AddBatch
// already folds its whole batch into one segment write (and one fsync
// under Sync), so group commit's win here comes from folding *batches*
// into one sync window rather than records. Run with -bench AddBatchSync.
func BenchmarkDurableAddBatchSync(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	const batch = 64
	for _, mode := range []struct {
		name string
		opts persist.Options
	}{
		{"sync", persist.Options{Sync: true}},
		{"group-5ms", persist.Options{SyncEvery: 5 * time.Millisecond}},
		{"nosync", persist.Options{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			subs := benchSubs(b, schema, 4096)
			st, err := persist.Open(b.TempDir(), schema, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			det := core.MustNew(core.Config{Schema: schema, Mode: core.ModeOff})
			d, err := st.Durable("", det)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * batch) % (len(subs) - batch)
				for _, r := range d.AddBatch(subs[lo : lo+batch]) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			d.Close()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDurableChurn is churn_durable's write path on its own: a
// default engine behind a DurableProvider with group commit, alternating
// Add (a covering query plus an insert) and Remove of the oldest entry at
// a constant population of churnWindow. It reports the process's write
// syscalls per op (syscw in /proc/self/io, where that file is readable):
// an append copies into the segment's shared mapping, so only the
// group-commit tick's fsync and the rare rotation or mapping growth reach
// the kernel.
func BenchmarkDurableChurn(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(b, schema, 4096)
	const churnWindow = 1024
	st, err := persist.Open(b.TempDir(), schema, persist.Options{SyncEvery: 100 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	d, err := st.Durable("", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
	if err != nil {
		b.Fatal(err)
	}
	ids, err := d.InsertBatch(subs[:churnWindow])
	if err != nil {
		b.Fatal(err)
	}
	// live is a FIFO of the held ids: an Add pushes at head, a Remove pops
	// at tail, and the population alternates churnWindow+1 and churnWindow.
	live := make([]uint64, churnWindow+1)
	copy(live, ids)
	head, tail := churnWindow, 0
	b.ReportAllocs()
	writes0, ioOK := procWrites()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			id, _, _, err := d.Add(subs[(churnWindow+i/2)%len(subs)])
			if err != nil {
				b.Fatal(err)
			}
			live[head] = id
			head = (head + 1) % len(live)
			continue
		}
		if err := d.Remove(live[tail]); err != nil {
			b.Fatal(err)
		}
		tail = (tail + 1) % len(live)
	}
	b.StopTimer()
	if writes1, ok := procWrites(); ok && ioOK {
		b.ReportMetric(float64(writes1-writes0)/float64(b.N), "writes/op")
	}
	d.Close()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDurableChurnParallel is BenchmarkDurableChurn's op pair under
// RunParallel: every goroutine adds and removes the oldest of its own
// adds on one DurableProvider, so the pairs contend for the provider's
// write section and the store's log lock. Compare -cpu 1,2.
func BenchmarkDurableChurnParallel(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(b, schema, 4096)
	const churnWindow = 1024
	st, err := persist.Open(b.TempDir(), schema, persist.Options{SyncEvery: 100 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	d, err := st.Durable("", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, err := d.InsertBatch(subs[:churnWindow]); err != nil {
		b.Fatal(err)
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		next := int(worker.Add(1)) * 997 // each goroutine walks the inputs from its own offset
		var live []uint64
		for pb.Next() {
			id, _, _, err := d.Add(subs[next%len(subs)])
			if err != nil {
				b.Error(err)
				return
			}
			next++
			if live = append(live, id); len(live) > 64 {
				if err := d.Remove(live[0]); err != nil {
					b.Error(err)
					return
				}
				live = live[1:]
			}
		}
	})
}

// TestDurableChurnAllocs pins the allocations of BenchmarkDurableChurn's
// op pair — an Add and a Remove of the oldest entry through a
// DurableProvider over a default engine with group commit, at constant
// population — at zero. The payload is marshalled into the provider's
// kept buffer and the replication ring copies the record's WAL bytes, the
// engine holds the rectangle by value, the store keeps no copy of a
// wrapped link, the remove's claim is a probe of the engine's own slot,
// and the id tables add nothing. The count is the runtime's malloc
// counter over 64 000 pairs, which testing.AllocsPerRun's truncated mean
// is not. A WAL rotation allocates (about a dozen times, at each 4 MiB
// segment switch), so the counted window starts on a fresh segment, cut
// by a snapshot, and the test checks that it ended in the same one.
func TestDurableChurnAllocs(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(t, schema, 4096)
	const churnWindow = 1024
	dir := t.TempDir()
	st, err := persist.Open(dir, schema, persist.Options{SyncEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := st.Durable("", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ids, err := d.InsertBatch(subs[:churnWindow])
	if err != nil {
		t.Fatal(err)
	}
	live, next := ids, churnWindow
	pair := func() {
		id, _, _, err := d.Add(subs[next%len(subs)])
		if err != nil {
			t.Fatal(err)
		}
		next++
		if err := d.Remove(live[0]); err != nil {
			t.Fatal(err)
		}
		copy(live, live[1:])
		live[len(live)-1] = id
	}
	// 64 000 pairs first: the id tables reach the size the population's
	// peak dictates, the engine settles its slices, and their arrays the
	// leaf count the churn splits and merges through.
	for range 64000 {
		pair()
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segments := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := segments()
	n := mallocs(64000, pair)
	if after := segments(); !slices.Equal(before, after) {
		t.Fatalf("the counted window rotated the WAL (segments %v, then %v): it must stay in one segment", before, after)
	}
	if n != 0 {
		t.Fatalf("64 000 durable Add+Remove pairs allocate %d times, want 0", n)
	}
}

// mallocs counts the heap allocations n calls of f make, by the runtime's
// malloc counter, on one P as testing.AllocsPerRun runs. The counter is
// the process's: a collection first, and a pause that lets the
// finalizers it queues run, keep what earlier tests left behind out of
// the count.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSnapshotAllocs: a snapshot of a wrapped engine link allocates a
// fixed number of times, whatever the link holds — the engine copies its
// stripes' held slots into one array, the listing sorts it by id with one
// scratch array, and the snapshot decodes and encodes each key straight
// into one buffer sized up front, building no subscription and no
// payload. At 2 048 and at 20 480 subscriptions it
// stays under the same small bound (building a subscription and a payload
// for each made 62 080 allocations at 20 480); what it spends is the
// rotation's and the snapshot file's system calls, which a finalizer run
// by a collection in the window can shift by a few, and one unsorted read
// of the data dir for the compaction: 71–78 measured (66–77 when the
// listing was sorted under the cut; ~85 when the compaction listed the
// dir twice, once for segments and once for snapshots, each read sorted
// by name).
func TestSnapshotAllocs(t *testing.T) {
	const snapshotMallocs = 96
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(t, schema, 20480+1)
	counts := map[int]uint64{}
	for _, n := range []int{2048, 20480} {
		st, err := persist.Open(t.TempDir(), schema, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := st.Durable("", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertBatch(subs[:n]); err != nil {
			t.Fatal(err)
		}
		snapshot := func() {
			if err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		snapshot() // the first rotation and snapshot name the dir's files once
		if _, err := d.Insert(subs[n]); err != nil {
			t.Fatal(err)
		}
		counts[n] = mallocs(1, snapshot)
		d.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("a snapshot allocates %d times at 2 048 subscriptions, %d at 20 480", counts[2048], counts[20480])
	for n, c := range counts {
		if c > snapshotMallocs {
			t.Fatalf("a snapshot at %d subscriptions allocates %d times, want at most %d at any size", n, c, snapshotMallocs)
		}
	}
}

// TestRecoveryAllocs: recovering a one-link snapshot — persist.Open
// decoding it, Durable restoring the link into a fresh default engine —
// allocates about as often at 20 480 subscriptions as at 2 048. Each of
// the snapshot's payloads is decoded in place into its rectangle and each
// link's table is sized once, so nothing on the path allocates per
// subscription; what grows with
// the count is the engine's SFC array leaves, one allocation each, about
// one per 48 subscriptions a bulk load places. The test bounds the growth
// at one allocation per 32 subscriptions: 0.022 measured, 1.03 when every
// payload was copied on its own.
func TestRecoveryAllocs(t *testing.T) {
	const maxPerSub = 1.0 / 32
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(t, schema, 20480)
	counts := map[int]uint64{}
	for _, n := range []int{2048, 20480} {
		dir := t.TempDir()
		st, err := persist.Open(dir, schema, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := st.Durable("", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertBatch(subs[:n]); err != nil {
			t.Fatal(err)
		}
		if err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
		d.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		var closers []func()
		counts[n] = mallocs(1, func() {
			st, err := persist.Open(dir, schema, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			d, err := st.Durable("", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
			if err != nil {
				t.Fatal(err)
			}
			if d.Len() != n {
				t.Fatalf("recovered %d of %d subscriptions", d.Len(), n)
			}
			closers = append(closers, d.Close, func() { st.Close() })
		})
		for _, c := range closers {
			c()
		}
	}
	perSub := (float64(counts[20480]) - float64(counts[2048])) / (20480 - 2048)
	t.Logf("recovery allocates %d times at 2 048 subscriptions, %d at 20 480: %.3f a subscription between", counts[2048], counts[20480], perSub)
	if perSub > maxPerSub {
		t.Fatalf("recovery allocates %d times at 20 480 subscriptions, %d at 2 048: %.3f a subscription, want at most %.3f", counts[20480], counts[2048], perSub, maxPerSub)
	}
}

// TestReplayAllocs: opening a data dir whose state is all WAL records —
// replay decoding each add's payload into the mirror's rectangle — on a
// named link allocates about as often at 20 480 records as at 2 048. A
// decoded record's payload aliases the segment's bytes and its link
// shares the previous record's name, so what grows with the count is
// the mirror's id table, by doubling. The test bounds the growth at one
// allocation per 32 records: 2.0 a record when every payload and every
// link name was copied on its own.
func TestReplayAllocs(t *testing.T) {
	const maxPerRecord = 1.0 / 32
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(t, schema, 20480)
	counts := map[int]uint64{}
	for _, n := range []int{2048, 20480} {
		dir := t.TempDir()
		st, err := persist.Open(dir, schema, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := st.Durable("b0-n1", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertBatch(subs[:n]); err != nil {
			t.Fatal(err)
		}
		d.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		var closers []func()
		counts[n] = mallocs(1, func() {
			st, err := persist.Open(dir, schema, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Pos() != uint64(n) {
				t.Fatalf("replayed %d of %d records", st.Pos(), n)
			}
			closers = append(closers, func() { st.Close() })
		})
		for _, c := range closers {
			c()
		}
	}
	perRecord := (float64(counts[20480]) - float64(counts[2048])) / (20480 - 2048)
	t.Logf("replay allocates %d times at 2 048 records, %d at 20 480: %.3f a record between", counts[2048], counts[20480], perRecord)
	if perRecord > maxPerRecord {
		t.Fatalf("replay allocates %d times at 20 480 records, %d at 2 048: %.3f a record, want at most %.3f", counts[20480], counts[2048], perRecord, maxPerRecord)
	}
}

// TestApplyReplicatedAllocs: a follower applying one streamed frame — a
// primary's committed batch on a named link, as its tailer hands it out —
// allocates about as often at 1 024 records as at 128. The run is decoded
// in place and logged verbatim; what grows with the count is the
// record list and the mirror's id table, by doubling. The test bounds
// the growth at one allocation per 32 records: 2.0 a record when each
// record was decoded into an exported form with its own link name and
// payload copy, and encoded again for the follower's log.
func TestApplyReplicatedAllocs(t *testing.T) {
	const maxPerRecord = 1.0 / 32
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(t, schema, 1024)
	counts := map[int]uint64{}
	for _, n := range []int{128, 1024} {
		primary, err := persist.Open(t.TempDir(), schema, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := primary.Durable("b0-n1", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
		if err != nil {
			t.Fatal(err)
		}
		tail, err := primary.Tail(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertBatch(subs[:n]); err != nil {
			t.Fatal(err)
		}
		b, err := tail.Next(nil)
		if err != nil || b.Reset || b.Pos != uint64(n) {
			t.Fatalf("tailer handed out reset %v at %d (%v), want the batch of %d", b.Reset, b.Pos, err, n)
		}
		follower, err := persist.Open(t.TempDir(), schema, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		counts[n] = mallocs(1, func() {
			if err := follower.ApplyReplicated(b.Base, b.Recs); err != nil {
				t.Fatal(err)
			}
		})
		if follower.Pos() != uint64(n) || len(follower.Held("b0-n1")) != n {
			t.Fatalf("follower at %d holding %d, want %d", follower.Pos(), len(follower.Held("b0-n1")), n)
		}
		tail.Close()
		d.Close()
		follower.Close()
		primary.Close()
	}
	perRecord := (float64(counts[1024]) - float64(counts[128])) / (1024 - 128)
	t.Logf("a frame allocates %d times at 128 records, %d at 1 024: %.3f a record between", counts[128], counts[1024], perRecord)
	if perRecord > maxPerRecord {
		t.Fatalf("a frame allocates %d times at 1 024 records, %d at 128: %.3f a record, want at most %.3f", counts[1024], counts[128], perRecord, maxPerRecord)
	}
}

// TestDurableHoldsEachSubscriptionOnce: a bulk-loaded subscription behind
// a DurableProvider costs the live heap at most 16 B more than in a bare
// engine. The store keeps no copy of a wrapped link's state, and the
// replication ring keeps a bulk load's last records without pinning the
// load's whole payload arena.
func TestDurableHoldsEachSubscriptionOnce(t *testing.T) {
	const n = 131072
	schema := subscription.MustSchema(10, "volume", "price")
	subs := benchSubs(t, schema, n)
	newEngine := func() *engine.Engine {
		return engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}})
	}
	bareEngine := func() func() {
		eng := newEngine()
		if _, err := eng.InsertBatch(subs); err != nil {
			t.Fatal(err)
		}
		return eng.Close
	}
	liveHeapOf(t, bareEngine) // the first engine also builds what later ones share
	bare := liveHeapOf(t, bareEngine)
	durable := liveHeapOf(t, func() func() {
		st, err := persist.Open(t.TempDir(), schema, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := st.Durable("", newEngine())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertBatch(subs); err != nil {
			t.Fatal(err)
		}
		return func() {
			d.Close()
			st.Close()
		}
	})
	runtime.KeepAlive(subs) // held across every measurement, so none sees it freed
	perSub := func(bytes int64) float64 { return float64(bytes) / n }
	t.Logf("live heap per subscription: bare engine %.1f B, durable %.1f B", perSub(bare), perSub(durable))
	if perSub(durable) > perSub(bare)+16 {
		t.Fatalf("a durable subscription holds %.1f B, a bare one %.1f B: more than 16 B apart", perSub(durable), perSub(bare))
	}
}

// liveHeapOf returns how much the live heap grows by what build makes,
// measured after a collection on each side while it is still held; build
// returns the release of what it made.
func liveHeapOf(t *testing.T, build func() (release func())) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	release := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	release()
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// procWrites reads the process's write syscall count (syscw in
// /proc/self/io); ok is false where the file is unreadable.
func procWrites() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if val, found := strings.CutPrefix(line, "syscw: "); found {
			n, err := strconv.ParseUint(val, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// BenchmarkWriteDuringSnapshot times Snapshot on a DurableProvider over a
// default engine holding n subscriptions while one goroutine runs
// Insert+Remove pairs on it: what a snapshot costs the writers beside it.
// An op is one Snapshot; each metric is the median over the b.N
// snapshots. snapshot_ms is a snapshot's length, hold_ms its cut hold
// (StoreStats.SnapshotHold), writer_worst_pair_ms the longest pair the
// writer saw during it and worst/snapshot that pair over that snapshot's
// length. writer_p99_us is the 99th percentile of every pair, and
// max_pair_ms the longest pair of the run. Compare -cpu 1,2.
func BenchmarkWriteDuringSnapshot(b *testing.B) {
	for _, n := range []int{131072, 1048576} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchWriteDuringSnapshot(b, n) })
	}
}

// stallSubs caches BenchmarkWriteDuringSnapshot's subscriptions by
// population: the benchmark function runs once per b.N it tries.
var stallSubs = map[int][]*subscription.Subscription{}

func benchWriteDuringSnapshot(b *testing.B, n int) {
	subs := stallSubs[n]
	if subs == nil {
		subs = benchSubs(b, subscription.MustSchema(10, "volume", "price"), n+1024)
		stallSubs[n] = subs
	}
	schema, base, single := subs[0].Schema(), subs[:n], subs[n:]
	st, err := persist.Open(b.TempDir(), schema, persist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	d, err := st.Durable("", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema}}))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, err := d.InsertBatch(base); err != nil {
		b.Fatal(err)
	}
	if err := d.Snapshot(); err != nil { // the load's own snapshot, off the clock
		b.Fatal(err)
	}
	// The writer counts its pairs and keeps the longest since the
	// benchmark last took it.
	lat := obs.NewHistogram()
	var pairs, longest atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			id, err := d.Insert(single[i%len(single)])
			if err == nil {
				err = d.Remove(id)
			}
			if err != nil {
				panic(err)
			}
			l := time.Since(t0)
			lat.Observe(l)
			if int64(l) > longest.Load() {
				longest.Store(int64(l))
			}
			pairs.Add(1)
		}
	}()
	// nextPair waits for the writer to finish a pair begun after the call.
	nextPair := func() {
		for seen := pairs.Load(); pairs.Load() < seen+2; {
			runtime.Gosched()
		}
	}
	snaps, holds, worst := make([]float64, b.N), make([]float64, b.N), make([]float64, b.N)
	ratios := make([]float64, b.N)
	var maxPair int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A snapshot with nothing logged since the last one returns at
		// once, so a pair lands first; the longest pair is taken from one
		// that began before the snapshot to one that ended after it.
		nextPair()
		maxPair = max(maxPair, longest.Swap(0))
		t0 := time.Now()
		if err := d.Snapshot(); err != nil {
			b.Fatal(err)
		}
		snap := time.Since(t0)
		nextPair()
		w := longest.Swap(0)
		maxPair = max(maxPair, w)
		snaps[i], holds[i], worst[i] = ms(snap), ms(st.Stats().SnapshotHold), ms(time.Duration(w))
		ratios[i] = float64(w) / float64(snap)
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(median(snaps), "snapshot_ms")
	b.ReportMetric(median(holds), "hold_ms")
	b.ReportMetric(median(worst), "writer_worst_pair_ms")
	b.ReportMetric(median(ratios), "worst/snapshot")
	b.ReportMetric(float64(lat.Snapshot().Quantile(0.99).Nanoseconds())/1e3, "writer_p99_us")
	b.ReportMetric(ms(time.Duration(maxPair)), "max_pair_ms")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
