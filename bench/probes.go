package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/engine"
	"sfccover/internal/geom"
	"sfccover/internal/persist"
	"sfccover/internal/sfc"
	"sfccover/internal/sfcarray"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// Standalone probes: the leaf layers timed on the traced run's own inputs,
// and the rungs that have no end-to-end workload yet (batching, pipelining,
// durable and replicated daemons, the broker's counters). Each returns
// metrics by their BENCHMARK.json names.

type metrics map[string]metric

func (m metrics) ns(name string, v float64)    { m[name] = metric{v, "ns"} }
func (m metrics) count(name string, v float64) { m[name] = metric{v, "count"} }
func (m metrics) ratio(name string, v float64) { m[name] = metric{v, "ratio"} }

// perOp is elapsed nanoseconds per op.
func perOp(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(ops)
}

// sink keeps results the compiler must not discard.
var sink uint64

// enumerate is the ε-search's decomposition on its own: truncate the
// region, then list standard cubes largest level first until the volume
// target or the cube budget is met. It returns the key ranges a search
// would probe.
func enumerate(curve sfc.Curve, enum *cubes.LevelEnum, region geom.Extremal, ranges []sfc.KeyRange, wantRanges bool) (int, []sfc.KeyRange, error) {
	target, _, err := cubes.TruncateExtremal(region, epsilon)
	if err != nil {
		return 0, ranges, err
	}
	targetVol := (1 - epsilon) * region.Volume()
	n, searched := 0, 0.0
	for level := region.K; level >= 0; level-- {
		err := enum.Visit(target, level, func(corner []uint32, side uint64) bool {
			n++
			vol := 1.0
			for range corner {
				vol *= float64(side)
			}
			searched += vol
			if wantRanges {
				ranges = append(ranges, sfc.CubeRange(curve, corner, side))
			}
			return n < maxCubes
		})
		if err != nil {
			return n, ranges, err
		}
		if n >= maxCubes || searched >= targetVol {
			break
		}
	}
	return n, ranges, nil
}

// medianPass runs pass five times and returns the median of its elapsed
// nanoseconds per op: the leaf loops last a millisecond or so, and one
// pass is at the mercy of whatever else the box did in that millisecond.
func medianPass(ops int, pass func() error) (float64, error) {
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		per = append(per, perOp(time.Since(t0), ops))
	}
	return medianFloat(per), nil
}

// leafProbes times sfc, cubes, sfcarray and subscription on their own.
func leafProbes(schema *subscription.Schema, in planted, queries []*sub, out metrics) error {
	curve, err := sfc.New("z", sfc.Config{Dims: schema.Dims(), Bits: schema.Bits()})
	if err != nil {
		return err
	}
	points := make([][]uint32, len(in.parents))
	for i, p := range in.parents {
		points[i] = p.Point()
	}
	record := func(name string, ops int, pass func() error) error {
		ns, err := medianPass(ops, pass)
		out.ns(name, ns)
		return err
	}

	// sfc: one key per point.
	keys := make([]bits.Key, len(points))
	err = record("sfc.key_ns", len(points), func() error {
		for i, p := range points {
			keys[i] = curve.Key(p)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// cubes: the decomposition a query of each shape would enumerate,
	// without probing. A separate pass collects key ranges for the probe
	// timing so that this one measures cubes alone.
	shapes := queries[:min(64, len(queries))]
	var enum cubes.LevelEnum
	err = record("cubes.decompose_ns", len(shapes), func() error {
		for _, q := range shapes {
			if _, _, err := enumerate(curve, &enum, geom.QueryRegion(q.Point(), schema.Bits()), nil, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var ranges []sfc.KeyRange
	for _, q := range shapes {
		if _, ranges, err = enumerate(curve, &enum, geom.QueryRegion(q.Point(), schema.Bits()), ranges, true); err != nil {
			return err
		}
		if len(ranges) >= 1<<16 {
			break
		}
	}

	// sfcarray: bulk load, then probe, insert and delete on the loaded treap.
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return sfcarray.EntryLess(keys[order[a]], uint64(order[a]), keys[order[b]], uint64(order[b]))
	})
	sortedKeys, sortedIDs := make([]bits.Key, len(keys)), make([]uint64, len(keys))
	for i, o := range order {
		sortedKeys[i], sortedIDs[i] = keys[o], uint64(o)
	}
	var arr sfcarray.Index
	err = record("sfcarray.bulkload_ns_per_entry", len(keys), func() (err error) {
		if arr, err = sfcarray.New("treap", indexSeed); err == nil {
			arr.InsertSorted(sortedKeys, sortedIDs)
		}
		return err
	})
	if err != nil {
		return err
	}
	err = record("sfcarray.probe_ns", len(ranges), func() error {
		for _, r := range ranges {
			id, _ := arr.FirstInRange(r.Lo, r.Hi)
			sink += id
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Insert and delete alternate, so every pass starts from the base keys.
	fresh := in.children[:min(4096, len(in.children))]
	freshKeys := make([]bits.Key, len(fresh))
	for i, c := range fresh {
		freshKeys[i] = curve.Key(c.Point())
	}
	var ins, del []float64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i, k := range freshKeys {
			arr.Insert(k, uint64(len(keys)+i))
		}
		t1 := time.Now()
		for i, k := range freshKeys {
			if !arr.Delete(k, uint64(len(keys)+i)) {
				return fmt.Errorf("sfcarray: inserted entry %d not found", i)
			}
		}
		ins, del = append(ins, perOp(t1.Sub(t0), len(fresh))), append(del, perOp(time.Since(t1), len(fresh)))
	}
	out.ns("sfcarray.insert_ns", medianFloat(ins))
	out.ns("sfcarray.delete_ns", medianFloat(del))

	// subscription: the binary form the wire and the WAL both carry.
	payloads := make([][]byte, len(fresh))
	bytes := 0
	err = record("subscription.marshal_ns", len(fresh), func() (err error) {
		bytes = 0
		for i, c := range fresh {
			if payloads[i], err = c.MarshalBinary(); err != nil {
				return err
			}
			bytes += len(payloads[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = record("subscription.unmarshal_ns", len(fresh), func() error {
		for _, p := range payloads {
			if _, err := subscription.UnmarshalSubscription(schema, p); err != nil {
				return err
			}
		}
		return nil
	})
	out["subscription.wire_bytes"] = metric{float64(bytes) / float64(len(fresh)), "B"}
	return err
}

// engineProbes: the batch path and the telemetry switch, on hot shapes.
func engineProbes(schema *subscription.Schema, in planted, hot []*sub, reps int, slice time.Duration, out metrics) error {
	on, _, err := loadedEngine(schema, in.parents)
	if err != nil {
		return err
	}
	defer on.Close()
	off, err := newEngine(schema, true)
	if err != nil {
		return err
	}
	defer off.Close()
	if _, err := off.InsertBatch(in.parents); err != nil {
		return err
	}

	batch := hot[:min(64, len(hot))]
	var per []float64
	for r := 0; r < reps+3; r++ {
		t0 := time.Now()
		res := on.CoverQueryBatch(batch)
		d := time.Since(t0)
		for _, q := range res {
			if q.Err != nil {
				return q.Err
			}
		}
		if r >= 3 { // the first touches fill the decomposition cache
			per = append(per, perOp(d, len(batch)))
		}
	}
	out.ns("engine.batch_query_ns_per_item", medianFloat(per))

	// Telemetry: alternate short slices on the two engines so drift in the
	// box's speed hits both.
	spin := func(e *engine.Engine) float64 {
		n, t0 := 0, time.Now()
		for time.Since(t0) < slice {
			for _, q := range hot {
				_, found, _, _ := e.FindCover(q)
				if found {
					sink++
				}
			}
			n += len(hot)
		}
		return perOp(time.Since(t0), n)
	}
	spin(on)
	spin(off)
	var nsOn, nsOff []float64
	for r := 0; r < 4; r++ {
		nsOn = append(nsOn, spin(on))
		nsOff = append(nsOff, spin(off))
	}
	out.ratio("obs.telemetry_overhead_ratio", medianFloat(nsOn)/medianFloat(nsOff))

	st := on.Stats()
	if st.Queries > 0 {
		out.ratio("engine.shard_searches_per_query", float64(st.ShardSearches)/float64(st.Queries))
	}
	out.ratio("engine.skew_ratio", st.SkewRatio)
	return nil
}

// relay forwards one TCP connection to addr and counts the bytes each way.
type relay struct {
	ln       net.Listener
	up, down atomic.Int64
	wg       sync.WaitGroup
}

func newRelay(addr string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		in, err := ln.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer out.Close()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			io.Copy(countingWriter{in, &r.down}, out) // ends when either side closes
			in.Close()
		}()
		io.Copy(countingWriter{out, &r.up}, in)
	}()
	return r, nil
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// close stops the relay and waits for its goroutines; the client side
// must already be closed.
func (r *relay) close() {
	r.ln.Close()
	r.wg.Wait()
}

// wireProbes: what the single-request ladder cannot show about the daemon.
func wireProbes(schema *subscription.Schema, in planted, hot []*sub, reps int, out metrics) error {
	l, err := newLoopback(schema, in.parents)
	if err != nil {
		return err
	}
	defer l.close()
	ctx := context.Background()
	query := func(cl *sfcd.Client, n int) error {
		for i := 0; i < n; i++ {
			if _, _, err := cl.Query(ctx, hot[i%len(hot)]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := query(l.cl, 3*len(hot)); err != nil { // fill the decomposition cache
		return err
	}

	// Allocations per request, client and server side together.
	n := reps * 16
	m0 := mallocs()
	if err := query(l.cl, n); err != nil {
		return err
	}
	out.count("sfcd.allocs_per_req", float64(mallocs()-m0)/float64(n))

	// Bytes per request, both directions, through a counting relay.
	rl, err := newRelay(l.addr)
	if err != nil {
		return err
	}
	via, err := sfcd.Dial(rl.ln.Addr().String(), schema)
	if err != nil {
		rl.close()
		return err
	}
	up0, down0 := rl.up.Load(), rl.down.Load() // the hello exchange is not a request
	err = query(via, n)
	via.Close()
	rl.close()
	if err != nil {
		return err
	}
	out["sfcd.wire_bytes_per_req"] = metric{float64(rl.up.Load()-up0+rl.down.Load()-down0) / float64(n), "B"}

	// One 64-item batch frame.
	batch := hot[:min(64, len(hot))]
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := l.cl.QueryBatch(ctx, batch); err != nil {
			return err
		}
		per = append(per, perOp(time.Since(t0), len(batch)))
	}
	out.ns("sfcd.batch_query_ns_per_item", medianFloat(per))

	// 16 requests in flight on the one connection.
	const inflight = 16
	each := max(reps, 16)
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each && errs[g] == nil; i++ {
				_, _, errs[g] = l.cl.Query(ctx, hot[(g*each+i)%len(hot)])
			}
		}(g)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	out.ns("sfcd.pipelined16_ns_per_op", perOp(d, inflight*each))
	return nil
}

// durableDaemon is a persistent sfcd server with its store and a client.
type durableDaemon struct {
	dir   string
	store *persist.Store
	eng   *engine.Engine
	srv   *sfcd.Server
	cl    *sfcd.Client
	addr  string
}

// newDurableDaemon starts a follower of the daemon at follow or, when
// follow is empty, a primary holding the base population. The primary's
// data dir is written through a DurableProvider first and then recovered
// by the server, the way a restarted daemon boots: the wire's own bulk op
// would run one covering query per subscription.
func newDurableDaemon(schema *subscription.Schema, tmpDir, follow string, base []*sub) (_ *durableDaemon, err error) {
	d := &durableDaemon{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.dir, err = os.MkdirTemp(tmpDir, "daemon-"); err != nil {
		return nil, err
	}
	if follow == "" {
		if err = seedDataDir(d.dir, schema, base); err != nil {
			return nil, err
		}
	}
	if d.store, err = persist.Open(d.dir, schema, storeOptions()); err != nil {
		return nil, err
	}
	if d.eng, err = newEngine(schema, false); err != nil {
		return nil, err
	}
	if follow == "" {
		d.srv, err = sfcd.NewPersistentServer(d.eng, d.store, sfcd.ServerConfig{})
	} else {
		d.srv, err = sfcd.NewFollowerServer(d.eng, d.store, sfcd.ServerConfig{}, follow)
	}
	if err != nil {
		return nil, err
	}
	addr, err := d.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addr = addr.String()
	if follow == "" {
		d.cl, err = sfcd.Dial(d.addr, schema)
	}
	return d, err
}

// seedDataDir leaves dir holding base as durable state.
func seedDataDir(dir string, schema *subscription.Schema, base []*sub) error {
	d, err := openDurable(dir, schema)
	if err != nil {
		return err
	}
	_, err = d.dp.InsertBatch(base)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	return err
}

func (d *durableDaemon) close() {
	if d.cl != nil {
		d.cl.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.eng != nil {
		d.eng.Close()
	}
	if d.store != nil {
		d.store.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// subscribeSpans subscribes and unsubscribes each shape in turn and
// returns the subscribe latencies. after, when non-nil, runs after each
// acknowledged subscribe, off the subscribe clock.
func subscribeSpans(cl *sfcd.Client, shapes []*sub, after func()) ([]time.Duration, error) {
	ctx := context.Background()
	lat := make([]time.Duration, 0, len(shapes))
	for _, s := range shapes {
		t0 := time.Now()
		sid, _, _, err := cl.Subscribe(ctx, s)
		lat = append(lat, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if after != nil {
			after()
		}
		if err := cl.Unsubscribe(ctx, sid); err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// replicationProbes: the rungs "durable" and "replicated" for one
// subscribe. plain is a client of a non-durable daemon holding the same
// population; it and the durable daemon take each shape in turn, so the
// durable rung's self time is a median of paired differences.
func replicationProbes(schema *subscription.Schema, in planted, writes []*sub, plain *sfcd.Client, tmpDir string, out metrics) error {
	primary, err := newDurableDaemon(schema, tmpDir, "", in.parents)
	if err != nil {
		return err
	}
	defer primary.close()
	warm, shapes := writes[:min(64, len(writes)/2)], writes[len(writes)/2:]
	if _, err := subscribeSpans(primary.cl, warm, nil); err != nil {
		return err
	}
	self := make([]float64, 0, len(shapes))
	for i := range shapes {
		one := shapes[i : i+1]
		p, err := subscribeSpans(plain, one, nil)
		if err != nil {
			return err
		}
		d, err := subscribeSpans(primary.cl, one, nil)
		if err != nil {
			return err
		}
		self = append(self, float64((d[0] - p[0]).Nanoseconds()))
	}
	out.ns("sfcd.durable_subscribe_self_ns", medianFloat(self))

	follower, err := newDurableDaemon(schema, tmpDir, primary.addr, nil)
	if err != nil {
		return err
	}
	defer follower.close()
	caughtUp := func(limit time.Duration) bool {
		target, t0 := primary.store.Pos(), time.Now()
		for follower.store.Pos() < target {
			if time.Since(t0) > limit {
				return false
			}
			time.Sleep(20 * time.Microsecond)
		}
		return true
	}
	if !caughtUp(30 * time.Second) {
		return fmt.Errorf("follower never caught up with the primary's %d records", primary.store.Pos())
	}
	var lag []time.Duration
	stalled := false
	repl, err := subscribeSpans(primary.cl, shapes, func() {
		t0 := time.Now()
		if !caughtUp(5 * time.Second) {
			stalled = true
		}
		lag = append(lag, time.Since(t0))
	})
	if err != nil {
		return err
	}
	if stalled {
		return fmt.Errorf("follower stalled behind the primary")
	}
	out.ns("sfcd.replicated_subscribe_ns", medianDuration(repl))
	out["sfcd.replication_lag_ms"] = metric{medianDuration(lag) / 1e6, "ms"}
	return nil
}

// persistProbes: snapshot, recovery and space on the ladder's durable
// rung, after its write part. It closes and reopens the rung's store.
func persistProbes(r *rungs, out metrics) error {
	t0 := time.Now()
	if err := r.dp.Snapshot(); err != nil {
		return err
	}
	out["persist.snapshot_ms"] = metric{float64(time.Since(t0).Nanoseconds()) / 1e6, "ms"}

	live := r.dp.Len()
	var disk int64
	err := filepath.Walk(r.dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			disk += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	out["persist.disk_bytes_per_sub"] = metric{float64(disk) / float64(live), "B"}

	if err := r.durable.close(); err != nil {
		return err
	}
	r.durable = durable{}
	t0 = time.Now()
	if r.durable, err = openDurable(r.dir, r.schema); err != nil {
		return err
	}
	out["persist.recover_s"] = metric{time.Since(t0).Seconds(), "s"}
	if got := r.dp.Len(); got != live {
		return fmt.Errorf("recovery restored %d subscriptions, want %d", got, live)
	}
	return nil
}

// brokerProbes drives a fresh overlay through its first ops with a span
// per op and reads the broker's own counters. It returns the median span
// over the ops, whose mix is the overlay workload's.
func brokerProbes(schema *subscription.Schema, seed int64, sc scale, ops int, tr *tracer, out metrics) (opP50 float64, err error) {
	pool, events, err := overlayInputs(schema, seed, sc.overlayPool, overlayEvents)
	if err != nil {
		return 0, err
	}
	o, err := newOverlay(schema, false, pool, events, sc.overlayPreload)
	if err != nil {
		return 0, err
	}
	defer o.net.Close()
	m0 := o.net.Metrics()
	names := map[opKind]string{opPublish: "broker.publish", opSubscribe: "broker.subscribe", opUnsubscribe: "broker.unsubscribe"}
	dur := map[opKind][]time.Duration{}
	for i := 0; i < ops; i++ {
		kind := opKind(0)
		// The kind is known only after the step; name the span afterwards.
		id, d := tr.timed(1<<30+i, "", 0, func() { kind, _ = o.step() })
		tr.spans[id-1].Name = names[kind]
		dur[kind] = append(dur[kind], d)
	}
	if o.errs > 0 {
		return 0, fmt.Errorf("overlay reported %d errors", o.errs)
	}
	out.ns("broker.publish_ns", medianDuration(dur[opPublish]))
	out.ns("broker.subscribe_ns", medianDuration(dur[opSubscribe]))
	out.ns("broker.unsubscribe_ns", medianDuration(dur[opUnsubscribe]))
	var all []time.Duration
	for _, d := range dur {
		all = append(all, d...)
	}
	opP50 = medianDuration(all)

	m1 := o.net.Metrics()
	if n := len(dur[opSubscribe]); n > 0 {
		// Re-forwards an unsubscribe triggers are subscribe messages too.
		out.count("broker.msgs_per_subscribe", float64(m1.SubscribeMsgs-m0.SubscribeMsgs)/float64(n))
	}
	if n := len(dur[opPublish]); n > 0 {
		out.count("broker.event_msgs_per_publish", float64(m1.EventMsgs-m0.EventMsgs)/float64(n))
	}
	if total := m1.SuppressedForwards + m1.SubscribeMsgs; total > 0 {
		out.ratio("broker.suppressed_ratio", float64(m1.SuppressedForwards)/float64(total))
	}
	out.count("broker.table_rows", float64(o.net.TableRows()))
	us := func(d time.Duration) metric { return metric{float64(d.Nanoseconds()) / 1e3, "us"} }
	out["broker.forward_query_p50_us"] = us(o.net.ForwardLatency().Quantile(0.5))
	out["broker.delivery_p50_us"] = us(o.net.DeliveryLatency().Quantile(0.5))
	out["broker.delivery_p99_us"] = us(o.net.DeliveryLatency().Quantile(0.99))
	return opP50, nil
}
