package sfcd

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/subscription"
)

// TestInlinePredicate pins which decoded frames the read loop serves
// itself: ping, query, match and get, on a namespace that exists. One row
// per opcode on the shared engine, then the link and search-bound rows.
func TestInlinePredicate(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	newServer := func(det core.Config) *Server {
		det.Schema = schema
		eng := engine.MustNew(engine.Config{Detector: det, Shards: 2})
		srv := NewServer(eng)
		t.Cleanup(func() {
			srv.Close()
			eng.Close()
		})
		return srv
	}
	approx := newServer(core.Config{Mode: core.ModeApprox, Epsilon: 0.3})
	if _, err := approx.provider("held"); err != nil {
		t.Fatal(err)
	}
	exact := newServer(core.Config{Mode: core.ModeExact})
	unlimited := newServer(core.Config{Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: core.UnlimitedCubes})

	rows := []struct {
		srv    *Server
		op     Opcode
		link   string
		decErr error
		inline bool
	}{
		{approx, OpPing, "", nil, true},
		{approx, OpHello, "", nil, false},
		{approx, OpSubscribe, "", nil, false},
		{approx, OpInsert, "", nil, false},
		{approx, OpSubscribeBatch, "", nil, false},
		{approx, OpUnsubscribe, "", nil, false},
		{approx, OpUnsubscribeBatch, "", nil, false},
		{approx, OpQuery, "", nil, true},
		{approx, OpQueryBatch, "", nil, false},
		{approx, opRetiredCovered, "", errUnknownOp, false},
		{approx, OpGet, "", nil, true},
		{approx, OpMatch, "", nil, true},
		{approx, OpStats, "", nil, false},
		{approx, OpMetrics, "", nil, false},
		{approx, opRetiredRebalance, "", errUnknownOp, false},
		{approx, OpSnapshot, "", nil, false},
		{approx, OpUnlink, "", nil, false},
		{approx, OpTrace, "", nil, false},
		{approx, OpSlowlog, "", nil, false},
		{approx, OpReplicate, "", nil, false},
		{approx, OpPromote, "", nil, false},
		// A link namespace that exists is served like the shared engine; one
		// that does not yet would be built, which reads the store.
		{approx, OpQuery, "held", nil, true},
		{approx, OpGet, "held", nil, true},
		{approx, OpQuery, "absent", nil, false},
		{approx, OpMatch, "absent", nil, false},
		{approx, OpGet, "absent", nil, false},
		{approx, OpPing, "absent", nil, true},
		{approx, OpQuery, "", errTruncated, false},
		// A search the walk budget does not bound goes to a worker.
		{exact, OpQuery, "", nil, false},
		{exact, OpMatch, "", nil, false},
		{exact, OpGet, "", nil, true},
		{unlimited, OpQuery, "", nil, false},
	}
	if got, want := len(rows), int(numOps)-1+11; got != want {
		t.Fatalf("%d rows, want one per opcode plus 11", got)
	}
	for _, r := range rows {
		sc := &reqScratch{req: Request{ID: 1, Op: r.op, Link: r.link}, decErr: r.decErr}
		if got := r.srv.inline(sc); got != r.inline {
			t.Errorf("inline(%s, link %q, decode error %v, bounded %v) = %v, want %v",
				r.op, r.link, r.decErr, r.srv.boundedSearch, got, r.inline)
		}
	}
}

// TestStalledWriteDoesNotBlockReads pins that no op that may wait on the
// store runs on the read loop: with one durable subscribe held mid-WAL-
// write, a query and a ping pipelined behind it on the same connection are
// still answered, and the subscribe completes once the write is let go.
func TestStalledWriteDoesNotBlockReads(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	store, err := persist.Open(t.TempDir(), schema, persist.Options{
		WriteHook: func(string, int64, []byte) error {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := engine.MustNew(engine.Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3},
		Shards:   2,
	})
	defer eng.Close()
	srv, err := NewPersistentServer(eng, store, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String(), schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // before srv.Close, which waits for the held handler

	parent := subscription.MustParse(schema, "x >= 10 && y <= 200")
	child := subscription.MustParse(schema, "x >= 20 && y <= 100")
	parentID, _, _, err := c.Subscribe(bg, parent)
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	stalled := make(chan error, 1)
	go func() {
		_, _, _, err := c.Subscribe(bg, child)
		stalled <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the subscribe never reached the WAL")
	}

	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	// The stalled child is already in the engine (it is logged after the
	// insert), so ask about a shape only the parent covers.
	covered, by, err := c.Query(ctx, subscription.MustParse(schema, "x >= 15 && y <= 150"))
	if err != nil || !covered || by != parentID {
		t.Errorf("query behind a stalled subscribe = %v, %d, %v; want covered by %d", covered, by, err, parentID)
	}
	if err := c.Ping(ctx); err != nil {
		t.Errorf("ping behind a stalled subscribe = %v", err)
	}
	letGo()
	select {
	case err := <-stalled:
		if err != nil {
			t.Fatalf("subscribe after its WAL write was let go = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscribe still blocked after its WAL write was let go")
	}
}
