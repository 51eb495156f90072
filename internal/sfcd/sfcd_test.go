package sfcd

import (
	"context"
	"errors"
	"sync"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// bg is the context for test operations that need no deadline.
var bg = context.Background()

func startServer(t *testing.T, schema *subscription.Schema, mode core.Mode) (*Server, string) {
	t.Helper()
	cfg := core.Config{Schema: schema, Mode: mode}
	if mode == core.ModeExact {
		cfg.Strategy = core.StrategyLinear
	}
	if mode == core.ModeApprox {
		cfg.Epsilon = 0.3
		cfg.MaxCubes = 10000
	}
	eng := engine.MustNew(engine.Config{Detector: cfg, Shards: 4})
	srv := NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, addr.String()
}

func TestEndToEnd(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)

	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if c.Shards() != 4 || c.Mode() != "exact" {
		t.Errorf("hello negotiated shards=%d mode=%q", c.Shards(), c.Mode())
	}
	if err := c.Ping(bg); err != nil {
		t.Fatal(err)
	}

	broad := subscription.MustParse(schema, "volume in [100,900] && price in [10,400]")
	narrow := subscription.MustParse(schema, "volume in [200,300] && price in [50,60]")

	sid, covered, _, err := c.Subscribe(bg, broad)
	if err != nil {
		t.Fatal(err)
	}
	if covered {
		t.Error("first subscription cannot be covered")
	}

	covered, coveredBy, err := c.Query(bg, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if !covered || coveredBy != sid {
		t.Errorf("narrow should be covered by %d, got covered=%v by %d", sid, covered, coveredBy)
	}

	// An event inside the broad subscription matches; one outside does not.
	in, err := subscription.ParseEvent(schema, "volume = 500, price = 100")
	if err != nil {
		t.Fatal(err)
	}
	matched, matchedBy, err := c.Match(bg, in)
	if err != nil {
		t.Fatal(err)
	}
	if !matched || matchedBy != sid {
		t.Errorf("event should match %d, got matched=%v by %d", sid, matched, matchedBy)
	}
	out, err := subscription.ParseEvent(schema, "volume = 50, price = 1000")
	if err != nil {
		t.Fatal(err)
	}
	if matched, _, err := c.Match(bg, out); err != nil || matched {
		t.Errorf("event outside all subscriptions: matched=%v err=%v", matched, err)
	}

	// Second subscribe of the narrow subscription reports the cover.
	nsid, covered, coveredBy, err := c.Subscribe(bg, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if !covered || coveredBy != sid {
		t.Errorf("subscribe(narrow): covered=%v by %d, want by %d", covered, coveredBy, sid)
	}

	stats, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Subscriptions != 2 {
		t.Errorf("stats.Subscriptions = %d, want 2", stats.Subscriptions)
	}
	if stats.Queries < 3 {
		t.Errorf("stats.Queries = %d, want >= 3", stats.Queries)
	}
	if len(stats.ShardSizes) != 4 {
		t.Errorf("stats.ShardSizes has %d entries, want 4", len(stats.ShardSizes))
	}

	if err := c.Unsubscribe(bg, nsid); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(bg, nsid); err == nil {
		t.Error("double unsubscribe should fail")
	}
	if covered, _, err := c.Query(bg, narrow); err != nil || !covered {
		t.Errorf("broad still stored: covered=%v err=%v", covered, err)
	}
}

func TestBatchOps(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: 128, WidthFrac: 0.3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	added, err := c.SubscribeBatch(bg, subs)
	if err != nil {
		t.Fatal(err)
	}
	sids := make([]uint64, len(added))
	for i, r := range added {
		if r.Error != "" {
			t.Fatalf("subscribe %d: %s", i, r.Error)
		}
		sids[i] = r.SID
	}

	queried, err := c.QueryBatch(bg, subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range queried {
		if r.Error != "" {
			t.Fatalf("query %d: %s", i, r.Error)
		}
		if !r.Covered {
			t.Errorf("query %d: a stored subscription covers itself in exact mode", i)
		}
	}

	removed, err := c.UnsubscribeBatch(bg, sids)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range removed {
		if r.Error != "" {
			t.Fatalf("unsubscribe %d: %s", i, r.Error)
		}
	}
	stats, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Subscriptions != 0 {
		t.Errorf("stats.Subscriptions = %d after draining", stats.Subscriptions)
	}
}

func TestConcurrentClients(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, schema)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			subs, err := workload.Subscriptions(workload.SubSpec{
				Schema: schema, N: 40, WidthFrac: 0.2, Seed: int64(g),
			})
			if err != nil {
				errs <- err
				return
			}
			added, err := c.SubscribeBatch(bg, subs)
			if err != nil {
				errs <- err
				return
			}
			if _, err := c.QueryBatch(bg, subs); err != nil {
				errs <- err
				return
			}
			sids := make([]uint64, len(added))
			for i, r := range added {
				sids[i] = r.SID
			}
			if _, err := c.UnsubscribeBatch(bg, sids); err != nil {
				errs <- err
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDialSchemaMismatch(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	cases := map[string]*subscription.Schema{
		"attribute names": subscription.MustSchema(10, "volume", "qty"),
		"bit width":       subscription.MustSchema(8, "volume", "price"),
		"attribute count": subscription.MustSchema(10, "volume"),
	}
	for name, bad := range cases {
		_, err := Dial(addr, bad)
		if err == nil {
			t.Errorf("dial with mismatched %s should fail", name)
			continue
		}
		// The mismatch is typed so operators can branch on it (re-deploy
		// the daemon vs. fix the client) without string matching.
		if !errors.Is(err, ErrSchemaMismatch) {
			t.Errorf("mismatched %s: error %v is not ErrSchemaMismatch", name, err)
		}
	}
	// A matching schema still dials fine after the failures.
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestProtocolErrors speaks the wire protocol directly to exercise the
// server's failure paths.
func TestProtocolErrors(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	conn := DialRaw(t, addr)

	if resp := conn.Do(Request{ID: 1, Op: numOps + 7}); resp.OK || resp.ID != 1 || resp.Code != CodeUnknownOp {
		t.Errorf("unknown op must fail with %s, got %+v", CodeUnknownOp, resp)
	}
	if resp := conn.Do(Request{ID: 2, Op: OpSubscribe, Payload: []byte("!!!")}); resp.OK || resp.Code != CodeBadRequest {
		t.Errorf("undecodable payload must fail with %s, got %+v", CodeBadRequest, resp)
	}
	if resp := conn.Do(Request{ID: 3, Op: OpSubscribe, Payload: []byte{0, 0, 0}}); resp.OK {
		t.Error("malformed wire payload must fail")
	}
	if resp := conn.Do(Request{ID: 4, Op: OpUnsubscribe, SID: 999}); resp.OK || resp.Code != CodeOpFailed {
		t.Errorf("unknown sid must fail with %s, got %+v", CodeOpFailed, resp)
	}
	// A batch with one bad payload still succeeds per item.
	sub := subscription.MustParse(schema, "volume in [1,5]")
	raw, err := sub.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp := conn.Do(Request{ID: 5, Op: OpSubscribeBatch, Payloads: [][]byte{[]byte("!!!"), raw}})
	if !resp.OK || len(resp.Results) != 2 {
		t.Fatalf("mixed batch: ok=%v results=%d", resp.OK, len(resp.Results))
	}
	if resp.Results[0].Error == "" {
		t.Error("bad item should carry an error")
	}
	if resp.Results[1].Error != "" || resp.Results[1].SID == 0 {
		t.Errorf("good item should succeed, got %+v", resp.Results[1])
	}
}

// TestConnectionLevelErrorFramesClose pins the fatal protocol failures:
// a frame the server cannot attribute to a request id — a body that does
// not parse, or the reserved id 0 — gets one id-0 error frame and the
// connection is closed, exactly as the protocol documents (a pipelining
// client must treat stray id-0 frames as fatal, so the server must not
// keep serving past one).
func TestConnectionLevelErrorFramesClose(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	for name, frame := range map[string][]byte{
		// A 5-byte subscribe whose payload claims 50 bytes.
		"malformed body": {5, 1, byte(OpSubscribe), 0, 50, 'x'},
		"reserved id 0":  RequestFrame(Request{ID: 0, Op: OpPing}),
	} {
		conn := DialRaw(t, addr)
		conn.Send(frame)
		resp, err := conn.Recv()
		if err != nil {
			t.Fatalf("%s: no error frame: %v", name, err)
		}
		if resp.OK || resp.ID != 0 || resp.Code != CodeBadRequest {
			t.Fatalf("%s: frame = %+v, want a connection-level %s frame", name, resp, CodeBadRequest)
		}
		// The connection dies after the frame.
		if resp, err := conn.Recv(); err == nil {
			t.Fatalf("%s: connection still serving after a connection-level error: %+v", name, resp)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	srv, addr := startServer(t, schema, core.ModeExact)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(bg); err == nil {
		t.Error("ping after server close should fail")
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("listen after close should fail")
	}
}

func TestApproxDaemonSoundness(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeApprox)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pairs, err := workload.Covers(workload.CoverSpec{
		Schema: schema, N: 100, SlackFrac: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	parents := make([]*subscription.Subscription, len(pairs))
	children := make([]*subscription.Subscription, len(pairs))
	for i, p := range pairs {
		parents[i] = p.Parent
		children[i] = p.Child
	}
	if _, err := c.SubscribeBatch(bg, parents); err != nil {
		t.Fatal(err)
	}
	results, err := c.QueryBatch(bg, children)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("query %d: %s", i, r.Error)
		}
		if r.Covered {
			hits++
		}
	}
	if hits < len(pairs)/2 {
		t.Errorf("recall too low through the daemon: %d/%d", hits, len(pairs))
	}
}
