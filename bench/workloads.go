package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"sfccover/internal/broker"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
)

type sub = subscription.Subscription

// workloadNames is the order workloads run in and are documented in.
var workloadNames = []string{"query_hot", "query_miss", "churn_durable", "wire_mixed", "overlay_pubsub"}

// newWorkload generates the named workload's inputs from seed. tmpDir
// hosts its data dirs.
func newWorkload(name string, seed int64, sc scale, tmpDir string) (workload, error) {
	schema := newSchema()
	if name == "overlay_pubsub" {
		return newOverlayPubsub(schema, seed, sc)
	}
	in, err := plantedPairs(schema, seed, sc.population)
	if err != nil {
		return nil, err
	}
	switch name {
	case "query_hot":
		return newQueryHot(schema, in), nil
	case "query_miss":
		shapes, err := missQueries(schema, seed, sc.missShapes)
		if err != nil {
			return nil, err
		}
		return newQueryMiss(schema, in, shapes, sc), nil
	case "churn_durable":
		return newChurnDurable(schema, in, sc, tmpDir), nil
	case "wire_mixed":
		return newWireMixed(schema, in), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// coverAnswer is one recorded FindCover/Add/Query outcome.
type coverAnswer struct {
	id    uint64
	found bool
}

// ---------------------------------------------------------------- query_hot

// queryHot: one goroutine, Engine.FindCover over a few recurring shapes
// that all sit in the decomposition cache.
type queryHot struct {
	schema *subscription.Schema
	in     planted
	shapes []*sub

	eng *engine.Engine
	ids []uint64

	n          int64
	expect     []coverAnswer // first pass, checked by the oracle; later passes must repeat it
	mismatches int64
	errs       int64
}

func newQueryHot(schema *subscription.Schema, in planted) *queryHot {
	n := hotShapes
	if n > len(in.children) {
		n = len(in.children)
	}
	return &queryHot{schema: schema, in: in, shapes: in.children[:n], expect: make([]coverAnswer, n)}
}

func (w *queryHot) build() (err error) {
	w.eng, w.ids, err = loadedEngine(w.schema, w.in.parents)
	w.n = 0
	return err
}
func (w *queryHot) close() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
}
func (w *queryHot) clients() int     { return 1 }
func (w *queryHot) sampleEvery() int { return 64 }
func (w *queryHot) warmOps() int64   { return 0 }
func (w *queryHot) period() int      { return 64 }
func (w *queryHot) startTimed()      {}

func (w *queryHot) step(int) time.Duration {
	k := int(w.n % int64(len(w.shapes)))
	id, found, _, err := w.eng.FindCover(w.shapes[k])
	if err != nil {
		w.errs++
	}
	if w.n < int64(len(w.shapes)) {
		w.expect[k] = coverAnswer{id, found}
	} else if got := (coverAnswer{id, found}); got != w.expect[k] {
		w.mismatches++
	}
	w.n++
	return 0
}

func (w *queryHot) check() (verdict, error) {
	if w.n < int64(len(w.shapes)) {
		return verdict{}, fmt.Errorf("query_hot: %d ops never completed one pass of %d shapes", w.n, len(w.shapes))
	}
	v := verdict{failed: w.errs + w.mismatches}
	held := newHeldSet(w.ids, w.in.parents)
	for k, q := range w.shapes {
		held.judge(&v, w.expect[k], q, anyCovers(w.in.parents, q))
	}
	return v, nil
}

// --------------------------------------------------------------- query_miss

// queryMiss: one goroutine, Engine.FindCover over distinct shapes. The
// sequence never wraps inside a run, so every op is a first touch.
type queryMiss struct {
	schema *subscription.Schema
	in     planted
	shapes []*sub
	warm   int // shapes[len-warm:] are touched only during warm-up
	recall int // cover_recall is taken over the first recall timed ops

	eng *engine.Engine
	ids []uint64

	timed   bool
	n       int64
	answers []coverAnswer // by timed op index
	errs    int64
}

func newQueryMiss(schema *subscription.Schema, in planted, shapes []*sub, sc scale) *queryMiss {
	timedShapes := len(shapes) - sc.missWarm
	return &queryMiss{
		schema: schema, in: in, shapes: shapes, warm: sc.missWarm,
		recall: min(512, timedShapes/4), answers: make([]coverAnswer, timedShapes),
	}
}

func (w *queryMiss) build() (err error) {
	w.eng, w.ids, err = loadedEngine(w.schema, w.in.parents)
	w.n, w.timed = 0, false
	return err
}
func (w *queryMiss) close() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
}
func (w *queryMiss) clients() int     { return 1 }
func (w *queryMiss) sampleEvery() int { return 1 }
func (w *queryMiss) warmOps() int64   { return 0 }
func (w *queryMiss) period() int      { return 1 }
func (w *queryMiss) startTimed()      { w.n, w.timed = 0, true }

func (w *queryMiss) step(int) time.Duration {
	timedShapes := int64(len(w.answers))
	var q *sub
	if w.timed {
		q = w.shapes[w.n%timedShapes]
	} else {
		q = w.shapes[timedShapes+w.n%int64(w.warm)]
	}
	id, found, _, err := w.eng.FindCover(q)
	if err != nil {
		w.errs++
	}
	if w.timed && w.n < timedShapes {
		w.answers[w.n] = coverAnswer{id, found}
	}
	w.n++
	return 0
}

func (w *queryMiss) check() (verdict, error) {
	v := verdict{failed: w.errs}
	held := newHeldSet(w.ids, w.in.parents)
	done := int(min(w.n, int64(len(w.answers))))
	for i := 0; i < done; i++ {
		q := w.shapes[i]
		if i < w.recall {
			held.judge(&v, w.answers[i], q, anyCovers(w.in.parents, q))
		} else if a := w.answers[i]; a.found && !held.genuine(a.id, q) {
			v.failed++
		}
	}
	return v, nil
}

// ------------------------------------------------------------ churn_durable

// churnDurable: one goroutine, persist.DurableProvider over the engine,
// alternating Add(child) / Remove(oldest) at a constant population, with
// an inline snapshot every snapEvery ops.
//
// Children enter in a fixed order: the j-th child ever inserted (its
// ordinal; the preloaded window is ordinals 0..window-1) is
// children[j % len(children)], and the live window is always the last
// `window` ordinals. The oracle rebuilds every live set from that.
type churnDurable struct {
	schema *subscription.Schema
	in     planted
	window int
	tmpDir string

	dir string
	durable

	baseIDs []uint64
	ring    []uint64 // sids of the live window; ring[ord % window] holds ordinal ord
	next    int      // next ordinal to add
	n       int64
	// removeNext is the sid the coming Remove op deletes: the oldest of
	// the window, displaced from the ring by the Add before it.
	removeNext uint64

	sids     []uint64 // sid by ordinal, for resolving claimed cover ids
	startOrd int      // first ordinal added in the timed region
	answers  []coverAnswer
	errs     int64
}

const (
	churnAnswerCap = 1 << 17 // timed adds the oracle judges
	churnSidCap    = 1 << 22 // ordinals whose sid is logged
)

func newChurnDurable(schema *subscription.Schema, in planted, sc scale, tmpDir string) *churnDurable {
	return &churnDurable{
		schema: schema, in: in, window: sc.churnWindow, tmpDir: tmpDir,
		sids:    make([]uint64, 0, churnSidCap),
		answers: make([]coverAnswer, 0, churnAnswerCap),
	}
}

func (w *churnDurable) child(ord int) *sub { return w.in.children[ord%len(w.in.children)] }

func (w *churnDurable) build() error {
	dir, err := os.MkdirTemp(w.tmpDir, "churn-")
	if err != nil {
		return err
	}
	w.dir = dir
	if err := w.open(); err != nil {
		return err
	}
	if w.baseIDs, err = w.dp.InsertBatch(w.in.parents); err != nil {
		return err
	}
	if w.ring, err = w.dp.InsertBatch(w.in.children[:w.window]); err != nil {
		return err
	}
	w.sids = append(w.sids[:0], w.ring...)
	w.next, w.n = w.window, 0
	return nil
}

// open (re)opens the data dir; the fresh engine recovers whatever it holds.
func (w *churnDurable) open() (err error) {
	w.durable, err = openDurable(w.dir, w.schema)
	return err
}

func (w *churnDurable) shut() error {
	if w.dp == nil {
		return nil
	}
	err := w.durable.close()
	w.durable = durable{}
	return err
}

func (w *churnDurable) close() {
	_ = w.shut() // the dir is removed next; a failed final sync loses nothing we keep
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
func (w *churnDurable) clients() int     { return 1 }
func (w *churnDurable) sampleEvery() int { return 1 }
func (w *churnDurable) warmOps() int64   { return 0 }
func (w *churnDurable) period() int      { return 2 }

func (w *churnDurable) startTimed() {
	w.startOrd = w.next
	w.answers = w.answers[:0]
}

func (w *churnDurable) step(int) (skip time.Duration) {
	if w.n%2 == 0 {
		sid, covered, by, err := w.dp.Add(w.child(w.next))
		if err != nil {
			w.errs++
		}
		if len(w.sids) < cap(w.sids) {
			w.sids = append(w.sids, sid)
		}
		if len(w.answers) < cap(w.answers) {
			w.answers = append(w.answers, coverAnswer{by, covered})
		}
		// The new sid takes the ring slot of the oldest ordinal, which
		// the next op removes; Add and Remove are separate ops so each
		// gets its own latency sample.
		slot := w.next % w.window
		w.removeNext, w.ring[slot] = w.ring[slot], sid
		w.next++
		w.n++
		return 0
	}
	if err := w.dp.Remove(w.removeNext); err != nil {
		w.errs++
	}
	w.n++
	if w.n%snapEvery == 0 {
		t0 := time.Now()
		if err := w.dp.Snapshot(); err != nil {
			w.errs++
		}
		skip = time.Since(t0)
	}
	return skip
}

func (w *churnDurable) check() (verdict, error) {
	v := verdict{failed: w.errs}

	// Replay the timed adds against the oracle's own copy of the live
	// set: the base population plus the window of the last ordinals.
	held := newHeldSet(w.baseIDs, w.in.parents)
	for ord, sid := range w.sids {
		held.byID[sid] = w.child(ord)
	}
	for k, a := range w.answers {
		ord := w.startOrd + k
		q := w.child(ord)
		exists := anyCovers(w.in.parents, q)
		for j := ord - w.window; !exists && j < ord; j++ {
			exists = w.child(j).Covers(q)
		}
		held.judge(&v, a, q, exists)
	}

	// Durability: a store reopened from the bytes on disk must hold
	// exactly the live set.
	want := make(map[uint64]*sub, len(w.baseIDs)+w.window)
	for i, sid := range w.baseIDs {
		want[sid] = w.in.parents[i]
	}
	for ord := w.next - w.window; ord < w.next; ord++ {
		want[w.ring[ord%w.window]] = w.child(ord)
	}
	if err := w.shut(); err != nil {
		return v, err
	}
	if err := w.open(); err != nil {
		return v, fmt.Errorf("reopen: %w", err)
	}
	got := w.dp.Subscriptions()
	if len(got) != len(want) {
		v.failed += int64(max(len(got), len(want)) - min(len(got), len(want)))
	}
	for _, d := range got {
		if s := want[d.ID]; s == nil || !s.Equal(d.Sub) {
			v.failed++
		}
	}
	return v, nil
}

// --------------------------------------------------------------- wire_mixed

// wireMixed: two goroutines share one pipelined client to a non-durable
// loopback server; per ten ops each issues 8 queries, 1 subscribe and 1
// unsubscribe of its own previous subscription.
type wireMixed struct {
	schema *subscription.Schema
	in     planted
	hot    []*sub

	*loopback

	cs [2]*wireClient
}

// wireClient is one goroutine's private state.
type wireClient struct {
	n       int64
	next    int // next child to subscribe
	stride  int
	pending uint64
	subs    []wireSub    // every subscribe, so any claimed cover id resolves
	answers []wireAnswer // cover outcomes the oracle checks, up to wireRecordCap
	errs    int64
	_       [64]byte // keep the two clients' counters off one cache line
}

type wireSub struct {
	sid   uint64
	child int
}

type wireAnswer struct {
	shape int // index into children
	coverAnswer
}

const wireRecordCap = 1 << 16

func newWireMixed(schema *subscription.Schema, in planted) *wireMixed {
	n := min(hotShapes, len(in.children)/2)
	w := &wireMixed{schema: schema, in: in, hot: in.children[:n]}
	for c := range w.cs {
		w.cs[c] = &wireClient{
			subs:    make([]wireSub, 0, 1<<18),
			answers: make([]wireAnswer, 0, wireRecordCap),
		}
	}
	return w
}

func (w *wireMixed) build() (err error) {
	if w.loopback, err = newLoopback(w.schema, w.in.parents); err != nil {
		return err
	}
	for c, st := range w.cs {
		// Each client subscribes its own half of the non-hot children.
		st.n, st.pending, st.errs = 0, 0, 0
		st.next, st.stride = len(w.hot)+c, len(w.cs)
		st.subs, st.answers = st.subs[:0], st.answers[:0]
	}
	return nil
}

func (w *wireMixed) close() {
	if w.loopback != nil {
		w.loopback.close()
		w.loopback = nil
	}
}
func (w *wireMixed) clients() int     { return len(w.cs) }
func (w *wireMixed) sampleEvery() int { return 1 }
func (w *wireMixed) warmOps() int64   { return 0 }
func (w *wireMixed) period() int      { return 10 }
func (w *wireMixed) startTimed() {
	for _, st := range w.cs {
		st.answers = st.answers[:0]
	}
}

func (w *wireMixed) step(c int) time.Duration {
	st := w.cs[c]
	ctx := context.Background()
	switch st.n % 10 {
	case 0:
		child := st.next
		if st.next += st.stride; st.next >= len(w.in.children) {
			st.next = len(w.hot) + c
		}
		sid, covered, by, err := w.cl.Subscribe(ctx, w.in.children[child])
		if err != nil {
			st.errs++
		}
		st.pending = sid
		if len(st.subs) < cap(st.subs) {
			st.subs = append(st.subs, wireSub{sid, child})
		}
		st.record(child, by, covered)
	case 5:
		if err := w.cl.Unsubscribe(ctx, st.pending); err != nil {
			st.errs++
		}
	default:
		shape := int(st.n+int64(c)*7) % len(w.hot)
		covered, by, err := w.cl.Query(ctx, w.hot[shape])
		if err != nil {
			st.errs++
		}
		st.record(shape, by, covered)
	}
	st.n++
	return 0
}

func (st *wireClient) record(shape int, by uint64, covered bool) {
	if len(st.answers) < cap(st.answers) {
		st.answers = append(st.answers, wireAnswer{shape, coverAnswer{by, covered}})
	}
}

func (w *wireMixed) check() (verdict, error) {
	var v verdict
	held := newHeldSet(w.ids, w.in.parents)
	for _, st := range w.cs {
		v.failed += st.errs
		for _, s := range st.subs {
			held.byID[s.sid] = w.in.children[s.child]
		}
	}
	// Which of the other client's subscriptions were live when a query ran
	// depends on the interleaving, so the exact reference scans the base
	// population only. Every shape's planted parent is in it, so existence
	// over the base equals existence over the live set.
	for _, st := range w.cs {
		for _, a := range st.answers {
			q := w.in.children[a.shape]
			held.judge(&v, a.coverAnswer, q, anyCovers(w.in.parents, q))
		}
	}
	return v, nil
}

// ----------------------------------------------------------- overlay_pubsub

// overlayPubsub: the deterministic broker.Network; per five ops one
// subscribe, one unsubscribe of the oldest live subscription and three
// publishes, each followed by Drain to quiescence.
type overlayPubsub struct {
	schema  *subscription.Schema
	pool    []*sub
	events  []subscription.Event
	preload int
	recall  int

	sut *overlay

	start     overlayCursor // where the timed region began, for the oracle's replay
	delivered []uint32      // per timed publish: bit c set when client c received it
	atRecall  broker.Metrics
}

const overlayRecordCap = 1 << 16

func newOverlayPubsub(schema *subscription.Schema, seed int64, sc scale) (*overlayPubsub, error) {
	pool, events, err := overlayInputs(schema, seed, sc.overlayPool, overlayEvents)
	if err != nil {
		return nil, err
	}
	return &overlayPubsub{
		schema: schema, pool: pool, events: events, preload: sc.overlayPreload, recall: sc.overlayRecall,
		delivered: make([]uint32, 0, overlayRecordCap),
	}, nil
}

func (w *overlayPubsub) build() (err error) {
	w.sut, err = newOverlay(w.schema, false, w.pool, w.events, w.preload)
	return err
}
func (w *overlayPubsub) close() {
	if w.sut != nil {
		w.sut.net.Close()
		w.sut = nil
	}
}
func (w *overlayPubsub) clients() int     { return 1 }
func (w *overlayPubsub) sampleEvery() int { return 1 }
func (w *overlayPubsub) period() int      { return 5 }

// Every link index admits a shape to its decomposition cache on the second
// touch and serves it from the third: only after warmCycles cycles of the
// pool (one subscribe per five ops) do op costs and the heap stop drifting.
const warmCycles = 3

func (w *overlayPubsub) warmOps() int64 { return warmCycles * 5 * int64(len(w.pool)) }
func (w *overlayPubsub) startTimed() {
	w.start = w.sut.overlayCursor
	w.delivered = w.delivered[:0]
}

func (w *overlayPubsub) step(int) time.Duration {
	kind, mask := w.sut.step()
	if kind == opPublish && len(w.delivered) < cap(w.delivered) {
		w.delivered = append(w.delivered, mask)
	}
	if w.sut.n == int64(w.recall) {
		w.atRecall = w.sut.net.Metrics()
	}
	return 0
}

func (w *overlayPubsub) check() (verdict, error) {
	v := verdict{failed: w.sut.errs + int64(w.sut.net.Metrics().ProtocolErrors)}
	if w.sut.n < int64(w.recall) {
		return v, fmt.Errorf("overlay_pubsub: %d ops never reached the recall point %d", w.sut.n, w.recall)
	}

	// Deliveries: replay the timed ops on a model of who holds what.
	model := newOverlayModel(w.pool, w.start)
	cur := w.start
	for p := 0; p < len(w.delivered); {
		switch cur.advance() {
		case opSubscribe:
			model.add(cur.nextSub - 1)
		case opUnsubscribe:
			model.remove(cur.oldest - 1)
		case opPublish:
			if model.match(w.events[(cur.nextEv-1)%len(w.events)]) != w.delivered[p] {
				v.failed++
			}
			p++
		}
	}

	// Recall: the same preload and first ops on an exact, linear-scan
	// overlay. Every cover the approximate search misses sends a
	// subscription one hop further than it had to go, so the ratio of
	// subscribe messages, exact over approximate, is what approximation
	// cost: 1 when nothing was missed. (Counts of suppressed forwards do
	// not compare: a subscription that escapes its first cover can be
	// suppressed again at every later hop.)
	ref, err := newOverlay(w.schema, true, w.pool, w.events, w.preload)
	if err != nil {
		return v, err
	}
	defer ref.net.Close()
	for ref.n < int64(w.recall) {
		ref.step()
	}
	v.recallNum = int64(ref.net.Metrics().SubscribeMsgs)
	v.recallDen = int64(w.atRecall.SubscribeMsgs)
	return v, nil
}

type opKind uint8

const (
	opPublish opKind = iota
	opSubscribe
	opUnsubscribe
)

// overlayCursor is the position in the overlay's fixed op sequence.
type overlayCursor struct {
	n       int64 // ops issued since build
	nextSub int   // next pool subscription to add (pool index, unwrapped)
	oldest  int   // oldest live subscription (pool index, unwrapped)
	nextEv  int
}

// advance moves to the next op and reports its kind. The 60/20/20 mix is
// a fixed 5-cycle: S P P U P.
func (c *overlayCursor) advance() opKind {
	slot := c.n % 5
	c.n++
	switch slot {
	case 0:
		c.nextSub++
		return opSubscribe
	case 3:
		c.oldest++
		return opUnsubscribe
	}
	c.nextEv++
	return opPublish
}

// overlay is one broker network being driven through the op sequence.
type overlay struct {
	net     *broker.Network
	clients []*broker.Client
	pool    []*sub
	events  []subscription.Event
	overlayCursor
	errs int64
}

func newOverlay(schema *subscription.Schema, exact bool, pool []*sub, events []subscription.Event, preload int) (*overlay, error) {
	net, err := broker.NewNetwork(broker.BalancedTree(overlayBrokers), overlayConfig(schema, exact))
	if err != nil {
		return nil, err
	}
	o := &overlay{net: net, pool: pool, events: events}
	for c := 0; c < overlayClients; c++ {
		cl, err := net.AttachClient(c % overlayBrokers)
		if err != nil {
			net.Close()
			return nil, err
		}
		o.clients = append(o.clients, cl)
	}
	for i := 0; i < preload; i++ {
		if err := net.Subscribe(o.owner(i), pool[i]); err != nil {
			net.Close()
			return nil, err
		}
		net.Drain()
	}
	o.nextSub = preload
	return o, nil
}

// owner is the client holding pool subscription i (unwrapped index).
func (o *overlay) owner(i int) int { return o.clients[i%len(o.clients)].ID }

// step issues the next op, drains the network and, for a publish, returns
// which clients received the event. A second copy to one client is an error.
func (o *overlay) step() (opKind, uint32) {
	kind := o.advance()
	var err error
	switch kind {
	case opSubscribe:
		i := o.nextSub - 1
		err = o.net.Subscribe(o.owner(i), o.pool[i%len(o.pool)])
	case opUnsubscribe:
		i := o.oldest - 1
		err = o.net.Unsubscribe(o.owner(i), o.pool[i%len(o.pool)])
	case opPublish:
		i := o.nextEv - 1
		err = o.net.Publish(o.owner(i), o.events[i%len(o.events)])
	}
	if err != nil {
		o.errs++
	}
	o.net.Drain()
	var mask uint32
	if kind == opPublish {
		for c, cl := range o.clients {
			if n := len(cl.Received); n > 0 {
				mask |= 1 << c
				if n > 1 {
					o.errs++
				}
				cl.Received = cl.Received[:0]
			}
		}
	}
	return kind, mask
}
