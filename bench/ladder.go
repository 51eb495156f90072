package main

import (
	"context"
	"errors"
	"os"
	"slices"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/engine"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// The ladder: the same op made at each rung of
//
//	dominance < core < engine < { persist, sfcd }
//
// every rung a separate instance holding the same base population. The
// spans are recorded here, around the public call into each layer; no
// clock runs inside the program. A layer's self time is its span minus
// the span one rung down for the same op. persist and sfcd both sit
// directly on the engine (the plain server calls the engine, as in
// wire_mixed; the durable server is a separate probe).

// span is one timed call into one layer.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"` // spans of one replayed op share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span id; 0 = root
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17)} }

// timed records fn as a span and returns the span's id and duration.
func (t *tracer) timed(op int, name string, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, op, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent})
	return id, end.Sub(start)
}

func (t *tracer) write(path string) error {
	return writeJSON(path, struct {
		Spans []span `json:"spans"`
	}{t.spans})
}

type opName string

const (
	ladderQuery  opName = "find_cover"
	ladderAdd    opName = "add"
	ladderRemove opName = "remove"
)

// Rung order, bottom up. persist and sfcd are both children of the same
// engine span; whichever the workload's own stack ends in is the root.
var rungNames = []string{"dominance", "core", "engine", "persist", "sfcd"}

// rungs are the five instances. Each starts with the base population.
type rungs struct {
	schema *subscription.Schema
	idx    *dominance.Index
	det    *core.Detector
	eng    *engine.Engine
	durable
	dir  string
	wire *loopback

	nextIdx uint64 // ids the dominance rung assigns itself
	// What the dominance rung's queries reported.
	queries, found, probes, cubes int
}

// loopback is an in-process sfcd server over a loaded engine plus one
// client connected to it over real loopback TCP.
type loopback struct {
	eng  *engine.Engine
	ids  []uint64
	srv  *sfcd.Server
	cl   *sfcd.Client
	addr string
}

func newLoopback(schema *subscription.Schema, parents []*sub) (*loopback, error) {
	eng, ids, err := loadedEngine(schema, parents)
	if err != nil {
		return nil, err
	}
	l := &loopback{eng: eng, ids: ids, srv: sfcd.NewServerWith(eng, sfcd.ServerConfig{})}
	addr, err := l.srv.Listen("127.0.0.1:0")
	if err != nil {
		l.close()
		return nil, err
	}
	l.addr = addr.String()
	if l.cl, err = sfcd.Dial(l.addr, schema); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *loopback) close() {
	if l.cl != nil {
		l.cl.Close()
	}
	l.srv.Close()
	l.eng.Close()
}

func newRungs(schema *subscription.Schema, parents []*sub, tmpDir string) (_ *rungs, err error) {
	r := &rungs{schema: schema, nextIdx: 1 << 40}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	r.idx, err = dominance.NewIndex(dominance.Config{
		Dims: schema.Dims(), Bits: schema.Bits(), Seed: indexSeed, MaxCubes: maxCubes,
	})
	if err != nil {
		return nil, err
	}
	points, ids := make([][]uint32, len(parents)), make([]uint64, len(parents))
	for i, p := range parents {
		points[i], ids[i] = p.Point(), uint64(i+1)
	}
	r.idx.InsertBatch(points, ids)

	if r.det, err = core.New(detectorConfig(schema)); err != nil {
		return nil, err
	}
	if _, err = r.det.InsertBatch(parents); err != nil {
		return nil, err
	}
	if r.eng, _, err = loadedEngine(schema, parents); err != nil {
		return nil, err
	}

	if r.dir, err = os.MkdirTemp(tmpDir, "ladder-"); err != nil {
		return nil, err
	}
	if r.durable, err = openDurable(r.dir, schema); err != nil {
		return nil, err
	}
	if _, err = r.dp.InsertBatch(parents); err != nil {
		return nil, err
	}

	r.wire, err = newLoopback(schema, parents)
	return r, err
}

func (r *rungs) close() {
	if r.wire != nil {
		r.wire.close()
	}
	if r.dp != nil {
		r.durable.close()
	}
	if r.eng != nil {
		r.eng.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// rungCalls are the three ops at one rung. p is s.Point(), computed
// outside the span: only the dominance rung takes points, and the layers
// above compute their own inside theirs.
type rungCalls struct {
	query  func(s *sub, p []uint32) error
	add    func(s *sub, p []uint32) (uint64, error)
	remove func(id uint64, p []uint32) error
}

func (r *rungs) calls() [5]rungCalls {
	ctx := context.Background()
	return [5]rungCalls{
		{
			query: func(_ *sub, p []uint32) error {
				_, found, st, err := r.idx.Query(p, epsilon)
				r.queries++
				r.probes += st.RunsProbed
				r.cubes += st.CubesGenerated
				if found {
					r.found++
				}
				return err
			},
			// What Detector.Add does with its index: search, then insert.
			add: func(_ *sub, p []uint32) (uint64, error) {
				_, _, _, err := r.idx.Query(p, epsilon)
				r.nextIdx++
				r.idx.Insert(p, r.nextIdx)
				return r.nextIdx, err
			},
			remove: func(id uint64, p []uint32) error {
				if !r.idx.Delete(p, id) {
					return errNotIndexed
				}
				return nil
			},
		},
		{
			query:  func(s *sub, _ []uint32) error { _, _, _, err := r.det.FindCover(s); return err },
			add:    func(s *sub, _ []uint32) (uint64, error) { id, _, _, err := r.det.Add(s); return id, err },
			remove: func(id uint64, _ []uint32) error { return r.det.Remove(id) },
		},
		{
			query:  func(s *sub, _ []uint32) error { _, _, _, err := r.eng.FindCover(s); return err },
			add:    func(s *sub, _ []uint32) (uint64, error) { id, _, _, err := r.eng.Add(s); return id, err },
			remove: func(id uint64, _ []uint32) error { return r.eng.Remove(id) },
		},
		{
			query:  func(s *sub, _ []uint32) error { _, _, _, err := r.dp.FindCover(s); return err },
			add:    func(s *sub, _ []uint32) (uint64, error) { id, _, _, err := r.dp.Add(s); return id, err },
			remove: func(id uint64, _ []uint32) error { return r.dp.Remove(id) },
		},
		{
			query:  func(s *sub, _ []uint32) error { _, _, err := r.wire.cl.Query(ctx, s); return err },
			add:    func(s *sub, _ []uint32) (uint64, error) { id, _, _, err := r.wire.cl.Subscribe(ctx, s); return id, err },
			remove: func(id uint64, _ []uint32) error { return r.wire.cl.Unsubscribe(ctx, id) },
		},
	}
}

var errNotIndexed = errors.New("dominance rung: deleted entry was not indexed")

// ladder replays ops through the rungs and keeps per-layer durations.
type ladder struct {
	r    *rungs
	tr   *tracer
	root string // the workload's own top rung: "engine", "persist" or "sfcd"
	ops  int
	errs int
	// dur[kind][rung][i] is the span of the i-th op of that kind at that
	// rung; ids holds the span ids, so a lower rung can name its parent.
	dur map[opName]*[5][]time.Duration
	ids map[opName]*[5][]int

	// Counter deltas over the recorded parts, from the rungs' own accessors.
	cacheHits, cacheMisses uint64
	walBytes               int64
	walRecords             int
	writeOps               int
}

func newLadder(r *rungs, tr *tracer, root string) *ladder {
	l := &ladder{r: r, tr: tr, root: root, dur: map[opName]*[5][]time.Duration{}, ids: map[opName]*[5][]int{}}
	for _, k := range []opName{ladderQuery, ladderAdd, ladderRemove} {
		l.dur[k], l.ids[k] = &[5][]time.Duration{}, &[5][]int{}
	}
	return l
}

// parentRung is the rung whose span caused a rung's span: one rung up,
// except that persist and sfcd both call the engine. The engine's parent
// is the top rung of the workload's own stack; the other top rung is
// recorded as a second root of the same op.
func (l *ladder) parentRung(rung int) int {
	switch {
	case rung >= 3:
		return -1
	case rung == 2:
		switch l.root {
		case "persist":
			return 3
		case "sfcd":
			return 4
		}
		return -1
	}
	return rung + 1
}

// record times fn as the span of op number i of the given kind at rung.
func (l *ladder) record(kind opName, rung, op, i int, fn func() error) {
	parent := 0
	if pr := l.parentRung(rung); pr >= 0 {
		parent = l.ids[kind][pr][i]
	}
	var err error
	id, d := l.tr.timed(op, rungNames[rung]+"."+string(kind), parent, func() { err = fn() })
	if err != nil {
		l.errs++
	}
	l.dur[kind][rung] = append(l.dur[kind][rung], d)
	l.ids[kind][rung] = append(l.ids[kind][rung], id)
}

// ladderInputs are what a traced run replays: the workload's own query
// shapes, and the shared hit-heavy write shapes.
type ladderInputs struct {
	queries []*sub // in replay order
	warm    []*sub // replayed unrecorded first, so caches are as the workload leaves them
	writes  []*sub
}

func newLadderInputs(name string, schema *subscription.Schema, in planted, seed int64, sc scale) (ladderInputs, error) {
	hot := in.children[:min(hotShapes, len(in.children)/2)]
	li := ladderInputs{writes: in.children[len(hot):]}
	if name == "query_miss" {
		// First touches, exactly as in the workload: no warm-up.
		shapes, err := missQueries(schema, seed, sc.missShapes)
		if err != nil {
			return li, err
		}
		li.queries = shapes[:min(sc.ladderMissOps, len(shapes))]
		return li, nil
	}
	// The decomposition cache admits a shape on its second touch and
	// serves it from the third: three unrecorded passes.
	for pass := 0; pass < 3; pass++ {
		li.warm = append(li.warm, hot...)
	}
	for i := 0; i < sc.ladderOps; i++ {
		li.queries = append(li.queries, hot[i%len(hot)])
	}
	return li, nil
}

// run replays the inputs one rung at a time, top rung first so that every
// span can name its parent. At each rung: the unrecorded warm-up, the
// query part, then the write part as adds and removes with a short FIFO
// between them. Each rung runs its ops back to back, as the workloads do,
// and spans of the same op at different rungs are paired by op number.
// The trace file keeps the spans as the clock read them; the durations the
// metrics are computed from are rescaled block by block.
func (l *ladder) run(li ladderInputs, writeOps int) {
	const lag = 32 // adds outstanding before the first remove
	adds := writeOps / 2
	points := func(subs []*sub) [][]uint32 {
		ps := make([][]uint32, len(subs))
		for i, s := range subs {
			ps[i] = s.Point()
		}
		return ps
	}
	warmPts, queryPts, writePts := points(li.warm), points(li.queries), points(li.writes)
	calls := l.r.calls()

	cal := newRefKernel()
	// scale rescales what a block of ops recorded at one rung by the box's
	// speed around that block, like the slices of an untraced run.
	scale := func(rung int, before float64, kinds ...opName) {
		speed := (before + cal.boxSpeed()) / 2
		for _, kind := range kinds {
			for i, d := range l.dur[kind][rung] {
				l.dur[kind][rung][i] = time.Duration(float64(d) * speed)
			}
		}
	}

	for rung := len(calls) - 1; rung >= 0; rung-- {
		c := calls[rung]
		stopCompanion := func() {}
		if rung == 4 && l.root == "sfcd" {
			// wire_mixed shares its client between two closed-loop
			// goroutines; give the wire rung the same neighbour, so its
			// spans include the waiting the workload's ops see.
			stopCompanion = l.companion(li.queries)
		}
		for i, s := range li.warm {
			if c.query(s, warmPts[i]) != nil {
				l.errs++
			}
		}
		l.r.queries, l.r.found, l.r.probes, l.r.cubes = 0, 0, 0, 0 // count the recorded part only
		h0, m0 := l.r.idx.CacheStats()
		before := cal.boxSpeed()
		for i, s := range li.queries {
			l.record(ladderQuery, rung, 1+i, i, func() error { return c.query(s, queryPts[i]) })
		}
		scale(rung, before, ladderQuery)
		if rung == 0 {
			h1, m1 := l.r.idx.CacheStats()
			l.cacheHits, l.cacheMisses = h1-h0, m1-m0
		}

		ws0 := l.r.store.Stats()
		var fifo []uint64
		before = cal.boxSpeed()
		for i := 0; i < adds+lag; i++ {
			if i < adds {
				w := i % len(li.writes)
				l.record(ladderAdd, rung, 1+len(li.queries)+2*i, i, func() error {
					id, err := c.add(li.writes[w], writePts[w])
					fifo = append(fifo, id)
					return err
				})
			}
			if j := i - lag; j >= 0 {
				w := j % len(li.writes)
				l.record(ladderRemove, rung, 2+len(li.queries)+2*j, j, func() error {
					id := fifo[0]
					fifo = fifo[1:]
					return c.remove(id, writePts[w])
				})
			}
		}
		scale(rung, before, ladderAdd, ladderRemove)
		stopCompanion()
		if rung == 3 {
			ws1 := l.r.store.Stats()
			l.walBytes, l.walRecords = ws1.WALBytes-ws0.WALBytes, ws1.WALRecords-ws0.WALRecords
		}
	}
	l.ops, l.writeOps = len(li.queries)+2*adds, 2*adds
}

// companion queries the wire rung's client in a closed loop until the
// returned stop function is called.
func (l *ladder) companion(shapes []*sub) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		ctx := context.Background()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			// Errors surface on the recorded side, which shares the client.
			_, _, _ = l.r.wire.cl.Query(ctx, shapes[(i+len(shapes)/2)%len(shapes)])
		}
	}()
	return func() { close(done); <-exited }
}

// childOf gives the rung whose span is subtracted for a rung's self time.
var childOf = [5]int{-1, 0, 1, 2, 2}

// selfNS is the median over ops of (span at rung) - (span one rung down).
func (l *ladder) selfNS(kind opName, rung int) float64 {
	top := l.dur[kind][rung]
	if len(top) == 0 {
		return 0
	}
	self := make([]float64, len(top))
	for i, d := range top {
		self[i] = float64(d.Nanoseconds())
		if c := childOf[rung]; c >= 0 {
			self[i] -= float64(l.dur[kind][c][i].Nanoseconds())
		}
	}
	return medianFloat(self)
}

// spanNS is the median span at a rung: self time plus everything below.
func (l *ladder) spanNS(kind opName, rung int) float64 {
	return medianDuration(l.dur[kind][rung])
}

// rootP50 is the median span at the workload's own top rung over the
// workload's own op mix: what its untraced op_p50_us should read if the
// ladder accounts for the whole op.
func (l *ladder) rootP50(workload string) float64 {
	rung := map[string]int{"engine": 2, "persist": 3, "sfcd": 4}[l.root]
	mix := map[opName]int{ladderQuery: 1}
	switch workload {
	case "churn_durable":
		mix = map[opName]int{ladderAdd: 1, ladderRemove: 1}
	case "wire_mixed":
		mix = map[opName]int{ladderQuery: 8, ladderAdd: 1, ladderRemove: 1}
	}
	var pooled []time.Duration
	for kind, weight := range mix {
		for w := 0; w < weight; w++ {
			pooled = append(pooled, l.dur[kind][rung]...)
		}
	}
	return medianDuration(pooled)
}

func medianDuration(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return float64(s[len(s)/2].Nanoseconds())
}
