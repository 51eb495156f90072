package sfccover_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"sfccover"
)

func TestWireFacade(t *testing.T) {
	schema := sfccover.MustSchema(10, "volume", "price")
	s := sfccover.MustParseSubscription(schema, "volume in [10,20] && price >= 500")
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sfccover.UnmarshalSubscription(schema, data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Fatal("subscription wire roundtrip failed")
	}

	ev, err := sfccover.ParseEvent(schema, "volume = 15, price = 700")
	if err != nil {
		t.Fatal(err)
	}
	evData, err := ev.MarshalBinary(schema)
	if err != nil {
		t.Fatal(err)
	}
	evBack, err := sfccover.UnmarshalEvent(schema, evData)
	if err != nil {
		t.Fatal(err)
	}
	if evBack[0] != 15 || !back.Matches(evBack) {
		t.Fatal("event wire roundtrip failed")
	}
}

// TestProviderFacade drives a Detector and an Engine through the shared
// Provider interface: same protocol, different backing index.
func TestProviderFacade(t *testing.T) {
	schema := sfccover.MustSchema(10, "volume", "price")
	det, err := sfccover.NewDetector(sfccover.DetectorConfig{
		Schema: schema, Mode: sfccover.ModeExact, Strategy: sfccover.StrategyLinear,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sfccover.NewEngine(sfccover.EngineConfig{
		Detector: sfccover.DetectorConfig{
			Schema: schema, Mode: sfccover.ModeExact, Strategy: sfccover.StrategyLinear,
		},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wide := sfccover.MustParseSubscription(schema, "volume in [0,900] && price in [0,900]")
	narrow := sfccover.MustParseSubscription(schema, "volume in [100,200] && price in [100,200]")
	for _, p := range []sfccover.Provider{det, eng} {
		if _, covered, _, err := p.Add(wide); err != nil || covered {
			t.Fatalf("wide: covered=%v err=%v", covered, err)
		}
		if _, covered, _, err := p.Add(narrow); err != nil || !covered {
			t.Fatalf("narrow: covered=%v err=%v", covered, err)
		}
		res := p.CoverQueryBatch([]*sfccover.Subscription{narrow, wide})
		if !res[0].Covered {
			t.Fatal("batch query must find the cover of narrow")
		}
		ps := p.Stats()
		if ps.Subscriptions != 2 || ps.Queries < 3 {
			t.Fatalf("provider stats = %+v", ps)
		}
		if _, found, _, err := p.FindCover(wide.Clone()); err != nil || !found {
			t.Fatalf("FindCover(stored twin): found=%v err=%v", found, err)
		}
		p.Close()
	}
}

// TestEngineBackedNetworkFacade is the README quickstart for engine-backed
// brokers, pinned as a test.
func TestEngineBackedNetworkFacade(t *testing.T) {
	schema := sfccover.MustSchema(10, "topic", "price")
	net, err := sfccover.NewNetwork(sfccover.BalancedTreeTopology(7), sfccover.NetworkConfig{
		Schema:  schema,
		Mode:    sfccover.ModeApprox,
		Epsilon: 0.2,
		Backend: sfccover.NetworkBackendEnginePrefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	sub, _ := net.AttachClient(3)
	pub, _ := net.AttachClient(6)
	wide := sfccover.MustParseSubscription(schema, "price <= 500")
	narrow := sfccover.MustParseSubscription(schema, "price in [50,80]")
	for _, s := range []*sfccover.Subscription{wide, narrow} {
		if err := net.Subscribe(sub.ID, s); err != nil {
			t.Fatal(err)
		}
	}
	net.Drain()
	if err := net.Unsubscribe(sub.ID, wide); err != nil {
		t.Fatal(err)
	}
	net.Drain()
	ev, _ := sfccover.ParseEvent(schema, "topic = 1, price = 60")
	if err := net.Publish(pub.ID, ev); err != nil {
		t.Fatal(err)
	}
	net.Drain()
	if len(sub.Received) != 1 {
		t.Fatalf("received %d events, want 1 (covered-set resubscription)", len(sub.Received))
	}
	if m := net.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}

// TestRemoteDaemonFacade drives the README's shared-daemon deployment
// through the public facade: a daemon-as-Provider, a remote-backed
// broker network, and the typed dial errors.
func TestRemoteDaemonFacade(t *testing.T) {
	schema := sfccover.MustSchema(10, "topic", "price")
	eng, err := sfccover.NewEngine(sfccover.EngineConfig{
		Detector: sfccover.DetectorConfig{Schema: schema, Mode: sfccover.ModeExact, Strategy: sfccover.StrategyLinear},
		Shards:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := sfccover.NewDaemonServerWith(eng, sfccover.DaemonServerConfig{MaxConns: 8})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A mismatched schema fails with the typed error.
	if _, err := sfccover.DialDaemon(addr.String(), sfccover.MustSchema(8, "topic", "price")); !errors.Is(err, sfccover.ErrDaemonSchemaMismatch) {
		t.Fatalf("mismatched dial error = %v, want ErrDaemonSchemaMismatch", err)
	}

	client, err := sfccover.DialDaemonContext(context.Background(), sfccover.DaemonDialConfig{
		Addr:           addr.String(),
		Schema:         schema,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The daemon as a Provider: the facade's Provider seam, served remotely.
	var p sfccover.Provider
	p, err = client.Provider("facade-link")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	wide := sfccover.MustParseSubscription(schema, "price <= 500")
	if _, err := p.Insert(wide); err != nil {
		t.Fatal(err)
	}
	if _, found, _, err := p.FindCover(sfccover.MustParseSubscription(schema, "price in [50,80]")); err != nil || !found {
		t.Fatalf("remote FindCover = (%v, %v), want hit", found, err)
	}

	// A broker network with every link on the shared daemon.
	net, err := sfccover.NewNetwork(sfccover.LineTopology(3), sfccover.NetworkConfig{
		Schema:     schema,
		Mode:       sfccover.ModeExact,
		Strategy:   sfccover.StrategyLinear,
		Backend:    sfccover.NetworkBackendRemote,
		DaemonAddr: addr.String(),
		LinkPrefix: "facade/",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	sub, _ := net.AttachClient(0)
	pub, _ := net.AttachClient(2)
	if err := net.Subscribe(sub.ID, wide); err != nil {
		t.Fatal(err)
	}
	net.Drain()
	ev, _ := sfccover.ParseEvent(schema, "topic = 1, price = 60")
	if err := net.Publish(pub.ID, ev); err != nil {
		t.Fatal(err)
	}
	net.Drain()
	if len(sub.Received) != 1 {
		t.Fatalf("received %d events through the remote-backed overlay, want 1", len(sub.Received))
	}
	if m := net.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}

// TestDurableProviderFacade exercises the persistence exports end to end:
// open a store, wrap a detector, write, snapshot, restart, recover.
func TestDurableProviderFacade(t *testing.T) {
	schema := sfccover.MustSchema(8, "x", "y")
	dir := t.TempDir()

	store, err := sfccover.OpenPersistStore(dir, schema, sfccover.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	det, err := sfccover.NewDetector(sfccover.DetectorConfig{Schema: schema, Mode: sfccover.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.Durable("", det)
	if err != nil {
		t.Fatal(err)
	}
	var p sfccover.Provider = d
	sub := sfccover.MustParseSubscription(schema, "x >= 3 && y >= 5")
	sid, err := p.Insert(sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := sfccover.OpenPersistStore(dir, schema, sfccover.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	det2, err := sfccover.NewDetector(sfccover.DetectorConfig{Schema: schema, Mode: sfccover.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	r, err := store2.Durable("", det2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok := r.Subscription(sid)
	if !ok || !got.Equal(sub) {
		t.Fatalf("recovered Subscription(%d) does not round-trip", sid)
	}
}
