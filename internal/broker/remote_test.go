package broker

import (
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// startTestDaemon boots an sfcd daemon whose detector template matches
// the broker config's covering parameters, so remote link namespaces run
// the same detection the in-process backends would.
func startTestDaemon(t *testing.T, cfg Config) string {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Detector: core.Config{
			Schema:   cfg.Schema,
			Mode:     cfg.Mode,
			Epsilon:  cfg.Epsilon,
			Strategy: cfg.Strategy,
			MaxCubes: cfg.MaxCubes,
			Seed:     cfg.Seed,
		},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := sfcd.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return addr.String()
}

// TestRemoteBackendDeliversIdentically is the acceptance property for the
// shared-daemon deployment: with every broker link backed by a namespace
// on one live daemon, event deliveries are bit-identical to the
// single-detector backend — across topologies and covering modes. (The
// covering decisions themselves may differ in approximate mode — the
// daemon's index randomness is its own — which is exactly what the safety
// property tolerates: covering changes traffic, never deliveries.)
func TestRemoteBackendDeliversIdentically(t *testing.T) {
	schema := testSchema()
	const nClients = 6
	ops := genWorkload(schema, 404, 110, nClients)
	// The planted covering-removal sequence from the in-process parity
	// test: a wide cover arrives, suppresses the narrows, and is
	// withdrawn before the publishes.
	wide := subscription.MustParse(schema, "price <= 220")
	narrow1 := subscription.MustParse(schema, "price in [10,20]")
	narrow2 := subscription.MustParse(schema, "price in [30,60] && topic in [0,99]")
	probe := make(subscription.Event, schema.NumAttrs())
	probe[0], probe[1] = 50, 15
	planted := []workloadOp{
		{kind: 0, client: 0, sub: wide},
		{kind: 0, client: 1, sub: narrow1},
		{kind: 0, client: 2, sub: narrow2},
		{kind: 1, client: 0, sub: wide},
		{kind: 2, client: 3, event: probe},
	}
	ops = append(planted, ops...)

	topos := map[string]Topology{
		"line5": Line(5),
		"tree7": BalancedTree(7),
	}
	configs := map[string]Config{
		"off":    {Schema: schema, Mode: core.ModeOff},
		"exact":  {Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		"approx": {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 3000},
	}
	for topoName, topo := range topos {
		for cfgName, base := range configs {
			t.Run(topoName+"/"+cfgName, func(t *testing.T) {
				ref := runWorkload(t, base, topo, ops, nClients)

				remote := base
				remote.Backend = BackendRemote
				remote.DaemonAddr = startTestDaemon(t, base)
				remote.LinkPrefix = topoName + "-" + cfgName + "/"
				got := runWorkload(t, remote, topo, ops, nClients)
				for c := range ref {
					if !eventsEqual(got[c], ref[c]) {
						t.Fatalf("remote backend: client %d deliveries differ from detector backend (%d vs %d events)",
							c, len(got[c]), len(ref[c]))
					}
				}
			})
		}
	}
}

// TestRemoteBackendValidation pins the configuration errors: a missing
// daemon address and an unreachable daemon both fail network construction
// cleanly.
func TestRemoteBackendValidation(t *testing.T) {
	cfg := Config{Schema: testSchema(), Mode: core.ModeExact, Backend: BackendRemote}
	if _, err := NewNetwork(Line(2), cfg); err == nil {
		t.Fatal("BackendRemote without DaemonAddr must fail")
	}
	cfg.DaemonAddr = "127.0.0.1:1" // nothing listens there
	if _, err := NewNetwork(Line(2), cfg); err == nil {
		t.Fatal("BackendRemote with an unreachable daemon must fail")
	}
}

// TestRemoteBackendDaemonLossFloods pins the degradation contract: when
// the shared daemon dies mid-run, covering state is gone but no event may
// be lost — brokers fall back to flooding (forwarding unconditionally),
// recording protocol errors. The delicate path is cover withdrawal: the
// suppressed set is local, so the covered set still pops, and the failing
// re-screen probes must forward rather than drop.
func TestRemoteBackendDaemonLossFloods(t *testing.T) {
	schema := testSchema()
	base := Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}
	eng, err := engine.New(engine.Config{
		Detector: core.Config{Schema: schema, Mode: base.Mode, Strategy: base.Strategy},
		Shards:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := sfcd.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := base
	cfg.Backend = BackendRemote
	cfg.DaemonAddr = addr.String()
	n := MustNetwork(Line(3), cfg)
	defer n.Close()
	wideClient, _ := n.AttachClient(0)
	narrowClient, _ := n.AttachClient(0)
	pub, _ := n.AttachClient(2)

	wide := subscription.MustParse(schema, "price <= 200")
	narrow := subscription.MustParse(schema, "price in [10,20]")
	for _, c := range []struct {
		id  int
		sub *subscription.Subscription
	}{{wideClient.ID, wide}, {narrowClient.ID, narrow}} {
		if err := n.Subscribe(c.id, c.sub); err != nil {
			t.Fatal(err)
		}
		n.Drain()
	}
	if n.SuppressedEntries() == 0 {
		t.Fatal("narrow must be suppressed under the wide cover")
	}

	// The daemon dies with suppressed state outstanding.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Withdrawing the cover now runs the resubscription path against a
	// dead daemon: the narrow subscription must be re-forwarded (flooding
	// fallback), not silently dropped.
	if err := n.Unsubscribe(wideClient.ID, wide); err != nil {
		t.Fatal(err)
	}
	n.Drain()

	inRange, _ := subscription.ParseEvent(schema, "topic = 0, price = 15")
	if err := n.Publish(pub.ID, inRange); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if len(narrowClient.Received) != 1 {
		t.Fatalf("suppressed subscriber received %d events after daemon loss, want 1", len(narrowClient.Received))
	}
	if len(wideClient.Received) != 0 {
		t.Fatal("unsubscribed wide client must receive nothing")
	}
	if n.Metrics().ProtocolErrors == 0 {
		t.Fatal("daemon loss must be visible as protocol errors")
	}
}

// TestRemoteBackendReleasesNamespaces pins the lifecycle contract with a
// long-lived shared daemon: closing the network unlinks every link
// namespace, so daemon memory does not grow with simulation runs.
func TestRemoteBackendReleasesNamespaces(t *testing.T) {
	schema := testSchema()
	base := Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}
	addr := startTestDaemon(t, base)

	cfg := base
	cfg.Backend = BackendRemote
	cfg.DaemonAddr = addr
	n := MustNetwork(Line(3), cfg)
	c, err := n.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe(c.ID, subscription.MustParse(schema, "price <= 100")); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if n.ForwardedEntries() == 0 {
		t.Fatal("the subscription must land in some remote forwarded set")
	}
	n.Close()

	// A fresh network with the same (default) link prefix sees empty
	// namespaces: the daemon did not retain the closed network's state.
	n2 := MustNetwork(Line(3), cfg)
	defer n2.Close()
	if got := n2.ForwardedEntries(); got != 0 {
		t.Fatalf("daemon retained %d forwarded entries after network close", got)
	}
}
