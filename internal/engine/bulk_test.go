package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// TestBulkLoadLayoutIdentity pins what the bulk paths build — every
// slice's leaves with their keys, ids and summaries, the separators, the
// block and array summaries, the boundary table and the ids minted — to
// digests of what the same inputs built when a bulk load still sorted
// 64-byte Keys through an index permutation and merged them as Keys. The
// steps cover a cold load and a batch onto a warm array, on a single
// dominance.Index and on an engine; equal keys whose ids arrive out of
// order (the Index batch lists its ids descending, and the Restore its
// held set by id descending), which a stable sort by key alone would
// misorder; a hotspot batch and a forced Rebalance after a lopsided drain;
// on a one-word universe (2 × 16) and two wide ones (3 × 11 and 4 × 10).
// A digest that moves names the first step whose layout did.
func TestBulkLoadLayoutIdentity(t *testing.T) {
	want := map[string][]string{
		"2x16": {"f6bc7e769290e4b6", "b6805791460887b1", "825df27500a2809e", "0a091502fc017ef0", "b1f4804da92ba11f", "bf3a9aaf556c12cc", "f40bba6f05450d59"},
		"3x11": {"ce8931692ae314d8", "3794043d55210fec", "bd62946a45bf9129", "c1875c3b0b6486dc", "6b555626b8cf7171", "12ff1eb044fe5d62", "85a435e2f1679cf7"},
		"4x10": {"1dc07e637de52ad5", "878b3e444118238e", "934cd0c74487c1a8", "a858067368373cfb", "195d4078d70f5662", "777be3041c08849a", "d03f5f619e938f46"},
	}
	for _, u := range []struct {
		name  string
		bits  int
		attrs []string
	}{
		{"2x16", 16, []string{"a", "b"}},
		{"3x11", 11, []string{"a", "b", "c"}},
		{"4x10", 10, []string{"a", "b", "c", "d"}},
	} {
		t.Run(u.name, func(t *testing.T) {
			schema := subscription.MustSchema(u.bits, u.attrs...)
			steps, got := bulkLayouts(t, schema)
			for i, step := range steps {
				if got[i] != want[u.name][i] {
					t.Errorf("step %d (%s): layout digest %s, want %s", i, step, got[i], want[u.name][i])
				}
			}
		})
	}
}

// bulkLayouts runs the bulk-load steps on schema and returns their names
// and the digest of the layout after each.
func bulkLayouts(t *testing.T, schema *subscription.Schema) (steps, digests []string) {
	t.Helper()
	uniform := testSubs(t, schema, 1800, 7)
	uniform = append(uniform, uniform[:400]...) // equal keys under distinct ids
	hot := hotspotSubs(t, schema, 1500, 8)
	record := func(step string, layout []byte, ids []uint64) {
		h := sha256.New()
		h.Write(layout)
		for _, id := range ids {
			h.Write(binary.LittleEndian.AppendUint64(nil, id))
		}
		steps = append(steps, step)
		digests = append(digests, fmt.Sprintf("%x", h.Sum(nil)[:8]))
	}

	idx := dominance.MustIndex(dominance.Config{Dims: schema.Dims(), Bits: schema.Bits(), MaxCubes: 5000})
	points := func(subs []*subscription.Subscription) [][]uint32 {
		ps := make([][]uint32, len(subs))
		for i, s := range subs {
			ps[i] = s.Point()
		}
		return ps
	}
	desc := make([]uint64, len(uniform))
	for i := range desc {
		desc[i] = uint64(len(uniform) - i)
	}
	idx.InsertBatch(points(uniform), desc)
	record("index cold, ids descending", idx.AppendLayout(nil), nil)
	asc := make([]uint64, len(hot))
	for i := range asc {
		asc[i] = uint64(len(uniform) + 1 + i)
	}
	idx.InsertBatch(points(hot), asc)
	record("index warm", idx.AppendLayout(nil), nil)

	e := MustNew(Config{Detector: approxDetector(schema)})
	defer e.Close()
	load := func(subs []*subscription.Subscription) []uint64 {
		ids, err := e.InsertBatch(subs)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	ids := load(uniform[:1200])
	record("engine cold", e.idx.AppendLayout(nil), ids)
	ids = load(uniform[1200:])
	record("engine warm", e.idx.AppendLayout(nil), ids)
	ids = load(hot)
	record("engine hotspot batch", e.idx.AppendLayout(nil), ids)

	held, err := coretest.HeldOf(e)
	if err != nil {
		t.Fatal(err)
	}
	var buf [2 * subscription.MaxAttrs]uint32
	for _, h := range held {
		if e.idx.Locate(h.Rect.PointInto(schema, buf[:])).Slice < e.NumShards()/2 {
			if err := e.Remove(h.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	res := e.Rebalance()
	if res.Moves == 0 {
		t.Fatalf("a forced rebalance after a lopsided drain moved nothing: %+v", res)
	}
	record(fmt.Sprintf("engine forced rebalance (%d moves, %d migrated)", res.Moves, res.Migrated),
		e.idx.AppendLayout(nil), []uint64{uint64(res.Moves), uint64(res.Migrated)})

	if held, err = coretest.HeldOf(e); err != nil {
		t.Fatal(err)
	}
	slices.Reverse(held)
	twin := MustNew(Config{Detector: approxDetector(schema)})
	defer twin.Close()
	if err := twin.Restore(held); err != nil {
		t.Fatal(err)
	}
	record("restore, ids descending", twin.idx.AppendLayout(nil), nil)
	return steps, digests
}

// TestBulkLoadAllocs bounds what bulk-loading 16 384 subscriptions into a
// default engine allocates, by the runtime's TotalAlloc: each key is
// computed once as a word and sorted as a 16-byte value, the stripes'
// id tables are sized once for their share, and the arrays are built
// from the sorted words. It was 5.9 MiB when the load widened every key to
// a 64-byte Key, sorted an index permutation over them and grew each
// table by doubling.
func TestBulkLoadAllocs(t *testing.T) {
	const n, bound = 16384, 3 << 20
	schema := subscription.MustSchema(10, "volume", "price")
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: n, Dist: workload.DistUniform, WidthFrac: 0.05, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := MustNew(Config{Detector: core.Config{Schema: schema}})
	defer e.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := e.InsertBatch(subs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("bulk-loading %d subscriptions allocates %.2f MiB", n, float64(got)/(1<<20))
	if got > bound {
		t.Fatalf("bulk-loading %d subscriptions allocates %.2f MiB, want <= %.1f", n, float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}

// TestAddBatchRacesSingleWrites races AddBatch and RemoveBatch on some
// goroutines against single Inserts and Removes on others, with a forced
// Rebalance beside them; meaningful under -race. A batch's shares are
// minted, held and indexed each under its own stripe's lock, so every id
// a batch returns must be held at once, and when everything is removed
// again the index must hold nothing: an entry a Remove missed because its
// load had not reached the index yet would be left there.
func TestAddBatchRacesSingleWrites(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	e := MustNew(Config{Detector: core.Config{Schema: schema}, Shards: 4})
	defer e.Close()
	if _, err := e.InsertBatch(testSubs(t, schema, 2000, 3)); err != nil {
		t.Fatal(err)
	}
	held, err := coretest.HeldOf(e)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs := testSubs(t, schema, 400, int64(40+g))
			for range 5 {
				if g%2 == 0 {
					ids := make([]uint64, 0, len(subs))
					for _, r := range e.AddBatch(subs) {
						if r.Err != nil {
							t.Error(r.Err)
							return
						}
						if !e.Holds(r.ID) {
							t.Errorf("batch id %d is not held once AddBatch returned", r.ID)
						}
						ids = append(ids, r.ID)
					}
					for _, err := range e.RemoveBatch(ids) {
						if err != nil {
							t.Error(err)
						}
					}
					continue
				}
				for _, s := range subs {
					id, err := e.Insert(s)
					if err != nil {
						t.Error(err)
						return
					}
					if err := e.Remove(id); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 20 {
			e.Rebalance()
		}
	}()
	wg.Wait()
	for _, h := range held {
		if err := e.Remove(h.ID); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for _, size := range e.ShardSizes() {
		n += size
	}
	if e.Len() != 0 || n != 0 {
		t.Fatalf("after removing everything the stripes hold %d and the index %d", e.Len(), n)
	}
}

// BenchmarkEngineBulkLoad times the benchmark workloads' set-up: a default
// engine built and bulk-loaded with 16 384 subscriptions.
func BenchmarkEngineBulkLoad(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 16384, Dist: workload.DistUniform, WidthFrac: 0.05, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		e := MustNew(Config{Detector: core.Config{Schema: schema}})
		if _, err := e.InsertBatch(subs); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

// BenchmarkEngineWriteDuringAddBatch times single-item writes — an Insert
// and the Remove of what it inserted — on an engine holding 16 384
// subscriptions while another goroutine loops AddBatch of 4 096 more
// into it and RemoveBatch of them again: what a wire batch-subscribe
// costs the single-item writers beside it. ns/op is per Insert+Remove
// pair; p50-ns and p99-ns are percentiles of a pair's latency, and
// batches/s is the background loop's rate.
func BenchmarkEngineWriteDuringAddBatch(b *testing.B) {
	schema := subscription.MustSchema(10, "volume", "price")
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 16384 + 4096 + 1024, Dist: workload.DistUniform, WidthFrac: 0.05, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	base, batch, single := subs[:16384], subs[16384:16384+4096], subs[16384+4096:]
	e := MustNew(Config{Detector: core.Config{Schema: schema}})
	defer e.Close()
	if _, err := e.InsertBatch(base); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			ids := make([]uint64, 0, len(batch))
			for _, r := range e.AddBatch(batch) {
				if r.Err != nil {
					panic(r.Err)
				}
				ids = append(ids, r.ID)
			}
			e.RemoveBatch(ids)
			n++
		}
	}()
	lat := make([]time.Duration, 0, b.N)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		id, err := e.Insert(single[i%len(single)])
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Remove(id); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	batches := <-done
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(batches)/time.Since(start).Seconds(), "batches/s")
}
