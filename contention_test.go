package sfccover_test

import (
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/sfc"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// BenchmarkEngineContention is the measurement the engine's slices are
// kept on (EXPERIMENTS.md "Shards under contention"): closed-loop readers
// calling FindCover, with or without one writer looping Add/Remove beside
// them, on the benchmark's population (16 384 planted parents; approx,
// ε 0.3, 50 000-step budget) — the default engine against the same engine
// built with one slice. hot readers cycle 256 children of the parents
// (top-cube hits); miss readers walk 65 536 distinct uniform shapes. The
// reported rates are per second of wall clock across all readers and for
// the writer; GOMAXPROCS is set by the sub-benchmark, not by -cpu.
//
// The skew=k rows are what the rebalancer's threshold is read from: the
// default engine with one slice hand-loaded to k times the others, two
// readers on two threads and no writer (an insert would trip the
// always-armed rebalancer and undo the hand's work).
func BenchmarkEngineContention(b *testing.B) {
	in := newContentionInputs(b)
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	b.Logf("%s, %d CPUs, commit %s", runtime.Version(), runtime.NumCPU(), commit)
	for _, shape := range []string{"hot", "miss"} {
		for _, procs := range []int{1, 2} {
			for _, readers := range []int{1, 2} {
				for _, writer := range []bool{false, true} {
					for shards, name := range []string{"default", "one-slice"} { // Shards: 0 and 1
						name = fmt.Sprintf("%s/procs=%d/readers=%d/writer=%v/%s", shape, procs, readers, writer, name)
						b.Run(name, func(b *testing.B) { in.run(b, in.engine(b, shards, 1), shape, procs, readers, writer) })
					}
				}
			}
		}
		for _, skew := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/procs=2/readers=2/writer=false/skew=%d", shape, skew), func(b *testing.B) {
				in.run(b, in.engine(b, 0, skew), shape, 2, 2, false)
			})
		}
	}
}

type contentionInputs struct {
	schema  *subscription.Schema
	parents []*subscription.Subscription
	byKey   []*subscription.Subscription // the parents in Z-key order
	hot     []*subscription.Subscription
	miss    []*subscription.Subscription
	churn   []*subscription.Subscription
}

func newContentionInputs(tb testing.TB) *contentionInputs {
	tb.Helper()
	schema := subscription.MustSchema(10, "volume", "price")
	planted, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 16384, SlackFrac: 0.2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	in := &contentionInputs{schema: schema}
	for i, p := range planted {
		in.parents = append(in.parents, p.Parent)
		if i < 256 {
			in.hot = append(in.hot, p.Child)
		}
	}
	if in.miss, err = workload.Subscriptions(workload.SubSpec{Schema: schema, N: 65536, WidthFrac: 0.1, Seed: 2}); err != nil {
		tb.Fatal(err)
	}
	churn, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 4096, SlackFrac: 0.2, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range churn {
		in.churn = append(in.churn, p.Child)
	}
	// Key order is what lets engine() weigh a key range by hand.
	z, err := sfc.New("z", sfc.Config{Dims: schema.Dims(), Bits: schema.Bits()})
	if err != nil {
		tb.Fatal(err)
	}
	in.byKey = append(in.byKey, in.parents...)
	sort.SliceStable(in.byKey, func(i, j int) bool {
		return z.Key(in.byKey[i].Point()).Less(z.Key(in.byKey[j].Point()))
	})
	return in
}

// engine bulk-loads the parents into an engine of the given slice count
// (0 = the default). skew > 1 leaves the highest-keyed slice — a query's
// dominance region lies above its key, so that is where readers meet —
// holding skew times the entries of each of the others, with the parents
// still the whole population: every parent below the heavy key range goes
// in skew times over, the engine places its boundaries at the quantiles of that
// weighted load, and the extra copies are removed again — removals never
// trip the rebalancer.
func (in *contentionInputs) engine(tb testing.TB, shards, skew int) *engine.Engine {
	tb.Helper()
	e, err := engine.New(engine.Config{
		Detector: core.Config{Schema: in.schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 50000},
		Shards:   shards,
	})
	if err != nil {
		tb.Fatal(err)
	}
	load := in.parents
	if skew > 1 {
		// The heavy range is one slice's share of the weighted load:
		// heavy = (heavy + skew·(n − heavy)) / slices.
		n, slices := len(in.parents), e.NumShards()
		heavy := skew * n / (slices - 1 + skew)
		for c := 1; c < skew; c++ {
			load = append(load[:len(load):len(load)], in.byKey[:n-heavy]...)
		}
	}
	ids, err := e.InsertBatch(load)
	if err != nil {
		tb.Fatal(err)
	}
	for _, err := range e.RemoveBatch(ids[len(in.parents):]) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

func (in *contentionInputs) run(b *testing.B, e *engine.Engine, shape string, procs, readers int, writer bool) {
	defer e.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	queries := in.miss
	if shape == "hot" {
		queries = in.hot
		for pass := 0; pass < 3; pass++ { // warm the pooled scratch
			for _, q := range queries {
				if _, _, _, err := e.FindCover(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	var (
		stop     atomic.Bool
		writes   int
		writerWG sync.WaitGroup
		readerWG sync.WaitGroup
	)
	b.ResetTimer()
	if writer {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; !stop.Load(); i++ {
				id, _, _, err := e.Add(in.churn[i%len(in.churn)])
				if err == nil {
					err = e.Remove(id)
				}
				if err != nil {
					b.Error(err)
					return
				}
				writes += 2
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := r; i < b.N; i += readers {
				if _, _, _, err := e.FindCover(queries[i%len(queries)]); err != nil {
					b.Error(err)
					return
				}
			}
		}(r)
	}
	readerWG.Wait()
	b.StopTimer()
	stop.Store(true)
	writerWG.Wait()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.N)/secs, "reader_ops/s")
	b.ReportMetric(float64(writes)/secs, "writer_ops/s")
	b.ReportMetric(e.Stats().SkewRatio, "skew")
}
