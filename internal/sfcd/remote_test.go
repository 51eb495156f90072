package sfcd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// startExactServer boots an exact-mode daemon on schema and returns a
// dialed client.
func startExactServer(t *testing.T, schema *subscription.Schema) (*Server, *Client) {
	t.Helper()
	eng := engine.MustNew(engine.Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   4,
		Workers:  4,
	})
	srv := NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String(), schema)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		eng.Close()
	})
	return srv, c
}

// TestRemoteProviderConformance runs the shared core.Provider battery
// against daemon link namespaces over one pipelined connection — the
// acceptance bar for treating a remote daemon exactly like an in-process
// Detector or Engine. Each factory call gets a fresh link, i.e. a fresh
// empty namespace on the shared daemon.
func TestRemoteProviderConformance(t *testing.T) {
	schema := coretest.Schema()
	_, c := startExactServer(t, schema)
	var linkCounter atomic.Int64
	coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
		p, err := c.Provider(fmt.Sprintf("conformance-%d", linkCounter.Add(1)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
}

// TestRemoteSharedProviderConformance runs the battery against the shared
// namespace — the daemon's engine, which has slices to rebalance where a
// link's Detector has none — with one fresh daemon per factory call, since
// the shared namespace cannot be reset.
func TestRemoteSharedProviderConformance(t *testing.T) {
	schema := coretest.Schema()
	coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
		_, c := startExactServer(t, schema)
		p, err := c.Provider("")
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
}

// TestRemoteHistories holds the histories of one pipelined loopback
// connection to the provider contract, on the shared engine and on a link
// namespace. Its background op dials a second client, asks a batch of
// queries and hangs up, so connections come and go on the daemon while
// the history runs.
func TestRemoteHistories(t *testing.T) {
	schema := coretest.Schema()
	subs, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: 40, WidthFrac: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range []int64{1, 2, 3, 4} {
		link := []string{"", "x"}[i%2] // the shared engine, then a link namespace
		t.Run(fmt.Sprintf("link=%s/seed=%d", link, seed), func(t *testing.T) {
			coretest.Histories(t, func(t *testing.T) (core.Provider, func()) {
				_, addr := startServer(t, schema, core.ModeExact)
				dial := func() (*Client, error) {
					return DialContext(bg, DialConfig{Addr: addr, Schema: schema, RequestTimeout: 5 * time.Second})
				}
				c, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				p, err := c.Provider(link)
				if err != nil {
					t.Fatal(err)
				}
				return p, func() {
					c, err := dial()
					if err == nil {
						_, err = c.QueryBatch(bg, subs)
						c.Close()
					}
					if err != nil {
						t.Error(err)
					}
				}
			}, seed)
		})
	}
}

// TestLinkNamespaceIsolation pins the multiplexing semantics: namespaces
// on one daemon are fully isolated subscription sets, and unlink resets a
// namespace without touching its neighbors or the shared engine.
func TestLinkNamespaceIsolation(t *testing.T) {
	schema := coretest.Schema()
	_, c := startExactServer(t, schema)
	wide := subscription.MustParse(schema, "volume in [100,900] && price in [10,400]")
	narrow := subscription.MustParse(schema, "volume in [200,300] && price in [50,60]")

	provider := func(link string) *RemoteProvider {
		p, err := c.Provider(link)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, shared := provider("link-a"), provider("link-b"), provider("")

	if _, err := a.Insert(wide); err != nil {
		t.Fatal(err)
	}
	if _, found, _, err := a.FindCover(narrow); err != nil || !found {
		t.Fatalf("link-a FindCover = (%v, %v), want hit", found, err)
	}
	if _, found, _, err := b.FindCover(narrow); err != nil || found {
		t.Fatalf("link-b FindCover = (%v, %v), want miss (isolated namespace)", found, err)
	}
	if _, found, _, err := shared.FindCover(narrow); err != nil || found {
		t.Fatalf("shared engine FindCover = (%v, %v), want miss", found, err)
	}
	if a.Len() != 1 || b.Len() != 0 || shared.Len() != 0 {
		t.Fatalf("Len a/b/shared = %d/%d/%d, want 1/0/0", a.Len(), b.Len(), shared.Len())
	}

	// Closing a namespace releases it; a fresh provider on the same link
	// starts empty. Close is idempotent.
	a.Close()
	a.Close()
	if _, found, _, err := provider("link-a").FindCover(narrow); err != nil || found {
		t.Fatalf("re-linked namespace FindCover = (%v, %v), want empty", found, err)
	}
	// Closing the shared-engine view must not disturb the engine.
	if _, err := shared.Insert(wide); err != nil {
		t.Fatal(err)
	}
	shared.Close()
	if shared.Len() != 1 {
		t.Fatal("closing the shared-engine provider must not clear the engine")
	}
}

// TestRemoteProviderPipelinedConcurrency drives one RemoteProvider (one
// connection) from many goroutines under -race: adds, covering queries
// and removals interleave freely on the pipelined client, and every
// inserted subscription must round-trip and be removed exactly once.
func TestRemoteProviderPipelinedConcurrency(t *testing.T) {
	schema := coretest.Schema()
	_, c := startExactServer(t, schema)
	p, err := c.Provider("churn")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const goroutines = 16
	const opsPerG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				lo := uint32((g*opsPerG + i) % 900)
				s := subscription.New(schema)
				if err := s.SetRange("volume", lo, lo+10); err != nil {
					errs <- err
					return
				}
				id, _, _, err := p.Add(s)
				if err != nil {
					errs <- err
					return
				}
				if _, found, _, err := p.FindCover(s); err != nil || !found {
					errs <- fmt.Errorf("g%d op%d: FindCover = (%v, %v), want own insert", g, i, found, err)
					return
				}
				if got, ok := p.Subscription(id); !ok || !got.Equal(s) {
					errs <- fmt.Errorf("g%d op%d: id %d does not round-trip", g, i, id)
					return
				}
				if err := p.Remove(id); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := p.Len(); n != 0 {
		t.Fatalf("Len = %d after balanced churn, want 0", n)
	}
}

// TestClientSurvivesServerRestartError pins the error surface of a lost
// daemon: in-flight and subsequent operations fail with
// ErrConnectionLost (never a hang, never a zero-value success), the
// client stays safely inert even after a replacement daemon appears, and
// recovery is an explicit re-dial.
func TestClientSurvivesServerRestartError(t *testing.T) {
	schema := coretest.Schema()
	eng := engine.MustNew(engine.Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   2,
		Workers:  2,
	})
	defer eng.Close()
	srv := NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String(), schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub := subscription.MustParse(schema, "volume in [1,5]")
	if _, _, _, err := c.Subscribe(bg, sub); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The dead connection surfaces as ErrConnectionLost on every op.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Ping(bg)
		if err != nil {
			if !errors.Is(err, ErrConnectionLost) {
				t.Fatalf("op after server close = %v, want ErrConnectionLost", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ops kept succeeding after server close")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A restarted daemon does not resurrect the old client: there is no
	// implicit reconnect, so the routing layer re-dials deliberately.
	srv2 := NewServerWith(eng, ServerConfig{})
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := c.Ping(bg); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("old client after restart = %v, want ErrConnectionLost", err)
	}
	c2, err := Dial(addr2.String(), schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(bg); err != nil {
		t.Fatal(err)
	}
	// After an explicit Close, the closed-client error wins for new ops.
	c2.Close()
	if err := c2.Ping(bg); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("op on closed client = %v, want ErrClientClosed", err)
	}
}

// TestRequestContextCancellation pins context handling: a canceled
// context abandons only its own call, and a deadline'd dial against a
// mute endpoint fails with the context error instead of hanging.
func TestRequestContextCancellation(t *testing.T) {
	schema := coretest.Schema()
	_, c := startExactServer(t, schema)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Ping(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ping with canceled ctx = %v, want context.Canceled", err)
	}
	// The client is undisturbed: the next call succeeds.
	if err := c.Ping(bg); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteBatchWritePlumbing pins that AddBatch/RemoveBatch genuinely
// ride the batch wire ops in one round trip each and keep slot alignment
// through per-item failures.
func TestRemoteBatchWritePlumbing(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	_, addr := startServer(t, schema, core.ModeExact)
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rp, err := c.Provider("batch-link")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	wide := subscription.MustParse(schema, "volume <= 1020 && price <= 1020")
	narrow := subscription.MustParse(schema, "volume in [5,1000] && price in [5,1000]")
	foreign := subscription.New(subscription.MustSchema(8, "volume", "price"))

	first := rp.AddBatch([]*subscription.Subscription{wide})
	if first[0].Err != nil || first[0].ID == 0 {
		t.Fatalf("AddBatch([wide]) = %+v", first[0])
	}
	res := rp.AddBatch([]*subscription.Subscription{narrow, foreign})
	if res[0].Err != nil || !res[0].Covered || res[0].CoveredBy != first[0].ID {
		t.Fatalf("AddBatch narrow = %+v, want covered by %d", res[0], first[0].ID)
	}
	if res[1].Err == nil {
		t.Fatal("foreign-schema slot must fail without poisoning the batch")
	}
	if rp.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rp.Len())
	}
	errs := rp.RemoveBatch([]uint64{first[0].ID, 9999})
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("RemoveBatch = %v, want [nil, error]", errs)
	}
	if rp.Len() != 1 {
		t.Fatalf("Len = %d after batch remove, want 1", rp.Len())
	}
}
