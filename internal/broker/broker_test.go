package broker

import (
	"fmt"
	"math/rand"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

func testSchema() *subscription.Schema {
	return subscription.MustSchema(8, "topic", "price")
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{N: 0}).validate(); err == nil {
		t.Error("empty topology must fail")
	}
	if err := (Topology{N: 3, Edges: [][2]int{{0, 1}}}).validate(); err == nil {
		t.Error("too few edges must fail")
	}
	if err := (Topology{N: 3, Edges: [][2]int{{0, 1}, {0, 1}}}).validate(); err == nil {
		t.Error("duplicate edge (disconnected) must fail")
	}
	if err := (Topology{N: 2, Edges: [][2]int{{0, 5}}}).validate(); err == nil {
		t.Error("out-of-range edge must fail")
	}
	if err := (Topology{N: 2, Edges: [][2]int{{0, 0}}}).validate(); err == nil {
		t.Error("self loop must fail")
	}
	for _, topo := range []Topology{Line(1), Line(5), Star(6), BalancedTree(7), RandomTree(12, 3)} {
		if err := topo.validate(); err != nil {
			t.Errorf("built-in topology invalid: %v", err)
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Line(3), Config{}); err == nil {
		t.Error("missing schema must fail")
	}
	if _, err := NewNetwork(Topology{N: 2}, Config{Schema: testSchema()}); err == nil {
		t.Error("bad topology must fail")
	}
	if _, err := NewNetwork(Line(3), Config{Schema: testSchema(), Mode: core.ModeApprox}); err == nil {
		t.Error("approx without epsilon must fail")
	}
}

func TestBasicDelivery(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(3), Config{Schema: schema, Mode: core.ModeExact})
	subr, err := n.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	pubr, err := n.AttachClient(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe(subr.ID, subscription.MustParse(schema, "topic == 3 && price <= 100")); err != nil {
		t.Fatal(err)
	}
	n.Drain()

	match, _ := subscription.ParseEvent(schema, "topic = 3, price = 50")
	miss, _ := subscription.ParseEvent(schema, "topic = 4, price = 50")
	if err := n.Publish(pubr.ID, match); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(pubr.ID, miss); err != nil {
		t.Fatal(err)
	}
	n.Drain()

	if len(subr.Received) != 1 {
		t.Fatalf("subscriber received %d events, want 1", len(subr.Received))
	}
	if subr.Received[0][0] != 3 || subr.Received[0][1] != 50 {
		t.Fatalf("wrong event delivered: %v", subr.Received[0])
	}
	if len(pubr.Received) != 0 {
		t.Fatal("publisher without subscription should receive nothing")
	}
	if m := n.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}

func TestSelfDeliveryWhenSubscribed(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(1), Config{Schema: schema, Mode: core.ModeOff})
	c, _ := n.AttachClient(0)
	if err := n.Subscribe(c.ID, subscription.New(schema)); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	ev, _ := subscription.ParseEvent(schema, "topic = 1, price = 2")
	if err := n.Publish(c.ID, ev); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if len(c.Received) != 1 {
		t.Fatalf("self delivery: got %d events", len(c.Received))
	}
}

func TestCoveringSuppressesForwarding(t *testing.T) {
	schema := testSchema()
	flood := MustNetwork(Line(4), Config{Schema: schema, Mode: core.ModeOff})
	exact := MustNetwork(Line(4), Config{Schema: schema, Mode: core.ModeExact})

	for _, n := range []*Network{flood, exact} {
		c, _ := n.AttachClient(0)
		if err := n.Subscribe(c.ID, subscription.MustParse(schema, "price <= 200")); err != nil {
			t.Fatal(err)
		}
		if err := n.Subscribe(c.ID, subscription.MustParse(schema, "price in [10,20]")); err != nil {
			t.Fatal(err)
		}
		n.Drain()
	}
	mf, me := flood.Metrics(), exact.Metrics()
	// Flooding forwards both subs down the 3 links: 6 messages. Exact
	// covering forwards only the wide one: 3 messages.
	if mf.SubscribeMsgs != 6 {
		t.Fatalf("flood forwarded %d, want 6", mf.SubscribeMsgs)
	}
	if me.SubscribeMsgs != 3 {
		t.Fatalf("exact forwarded %d, want 3", me.SubscribeMsgs)
	}
	// The narrow subscription is suppressed once, at the edge broker; it
	// never travels further, so downstream brokers have nothing to suppress.
	if me.SuppressedForwards != 1 {
		t.Fatalf("exact suppressed %d, want 1", me.SuppressedForwards)
	}
	if flood.TableRows() <= exact.TableRows() {
		t.Fatalf("flood table (%d) should exceed exact table (%d)", flood.TableRows(), exact.TableRows())
	}
}

func TestUnsubscribeUncoversSuppressed(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(3), Config{Schema: schema, Mode: core.ModeExact})
	sub1, _ := n.AttachClient(0)
	pub, _ := n.AttachClient(2)

	wide := subscription.MustParse(schema, "price <= 200")
	narrow := subscription.MustParse(schema, "price in [10,20]")
	if err := n.Subscribe(sub1.ID, wide); err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe(sub1.ID, narrow); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	// The narrow subscription was suppressed at the edge broker.
	if got := n.Metrics().SuppressedForwards; got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}

	if err := n.Unsubscribe(sub1.ID, wide); err != nil {
		t.Fatal(err)
	}
	n.Drain()

	// The narrow subscription must now be routable end to end.
	ev, _ := subscription.ParseEvent(schema, "topic = 0, price = 15")
	outside, _ := subscription.ParseEvent(schema, "topic = 0, price = 150")
	if err := n.Publish(pub.ID, ev); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(pub.ID, outside); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if len(sub1.Received) != 1 {
		t.Fatalf("received %d events after uncovering, want 1", len(sub1.Received))
	}
	if m := n.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}

func TestDuplicateSubscriptionRefcount(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(2), Config{Schema: schema, Mode: core.ModeExact})
	a, _ := n.AttachClient(0)
	b, _ := n.AttachClient(0)
	pub, _ := n.AttachClient(1)
	s := subscription.MustParse(schema, "topic == 1")
	if err := n.Subscribe(a.ID, s); err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe(b.ID, s); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if err := n.Unsubscribe(a.ID, s); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	ev, _ := subscription.ParseEvent(schema, "topic = 1, price = 9")
	if err := n.Publish(pub.ID, ev); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if len(a.Received) != 0 {
		t.Fatal("unsubscribed client received an event")
	}
	if len(b.Received) != 1 {
		t.Fatalf("remaining subscriber received %d events, want 1", len(b.Received))
	}
	if m := n.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}

// workloadOp drives the randomized safety test.
type workloadOp struct {
	kind   int // 0 subscribe, 1 unsubscribe, 2 publish
	client int
	sub    *subscription.Subscription
	event  subscription.Event
}

// genWorkload builds a deterministic mixed workload over nClients clients.
func genWorkload(schema *subscription.Schema, seed int64, nOps, nClients int) []workloadOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []workloadOp
	live := make(map[int][]*subscription.Subscription)
	maxV := int(schema.MaxValue())
	randSub := func() *subscription.Subscription {
		s := subscription.New(schema)
		for _, attr := range schema.Attrs() {
			if rng.Float64() < 0.3 {
				continue // leave attribute unconstrained
			}
			lo := rng.Intn(maxV + 1)
			hi := lo + rng.Intn(maxV+1-lo)
			if err := s.SetRange(attr, uint32(lo), uint32(hi)); err != nil {
				panic(err)
			}
		}
		return s
	}
	for i := 0; i < nOps; i++ {
		c := rng.Intn(nClients)
		switch {
		case rng.Float64() < 0.45:
			s := randSub()
			live[c] = append(live[c], s)
			ops = append(ops, workloadOp{kind: 0, client: c, sub: s})
		case rng.Float64() < 0.35 && len(live[c]) > 0:
			j := rng.Intn(len(live[c]))
			s := live[c][j]
			live[c] = append(live[c][:j], live[c][j+1:]...)
			ops = append(ops, workloadOp{kind: 1, client: c, sub: s})
		default:
			e := make(subscription.Event, schema.NumAttrs())
			for a := range e {
				e[a] = uint32(rng.Intn(maxV + 1))
			}
			ops = append(ops, workloadOp{kind: 2, client: c, event: e})
		}
	}
	return ops
}

// runWorkload executes the workload on a fresh network in the given mode
// and returns per-client delivered events.
func runWorkload(t *testing.T, cfg Config, topo Topology, ops []workloadOp, nClients int) [][]subscription.Event {
	t.Helper()
	n := MustNetwork(topo, cfg)
	defer n.Close()
	return runWorkloadOn(t, n, ops, nClients)
}

// runWorkloadOn is runWorkload on a network the caller built and closes.
func runWorkloadOn(t *testing.T, n *Network, ops []workloadOp, nClients int) [][]subscription.Event {
	t.Helper()
	clients := make([]*Client, nClients)
	for i := range clients {
		c, err := n.AttachClient(i % n.NumBrokers())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	for _, op := range ops {
		var err error
		switch op.kind {
		case 0:
			err = n.Subscribe(clients[op.client].ID, op.sub)
		case 1:
			err = n.Unsubscribe(clients[op.client].ID, op.sub)
		case 2:
			err = n.Publish(clients[op.client].ID, op.event)
		}
		if err != nil {
			t.Fatal(err)
		}
		n.Drain()
	}
	if m := n.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("mode %v: protocol errors: %d", n.cfg.Mode, m.ProtocolErrors)
	}
	out := make([][]subscription.Event, nClients)
	for i, c := range clients {
		out[i] = c.Received
	}
	return out
}

// oracleDeliveries computes the expected deliveries directly from the
// workload: a client receives an event iff it holds a matching live
// subscription at publish time.
func oracleDeliveries(ops []workloadOp, nClients int) [][]subscription.Event {
	live := make(map[int][]*subscription.Subscription)
	out := make([][]subscription.Event, nClients)
	for _, op := range ops {
		switch op.kind {
		case 0:
			live[op.client] = append(live[op.client], op.sub)
		case 1:
			for i, s := range live[op.client] {
				if s.Equal(op.sub) {
					live[op.client] = append(live[op.client][:i], live[op.client][i+1:]...)
					break
				}
			}
		case 2:
			for c := 0; c < nClients; c++ {
				for _, s := range live[c] {
					if s.Matches(op.event) {
						out[c] = append(out[c], op.event)
						break
					}
				}
			}
		}
	}
	return out
}

func TestDeliverySafetyAcrossModes(t *testing.T) {
	// The paper's central premise: covering — exact or approximate, even
	// with a hard per-query budget — changes how many subscriptions are
	// propagated, never which events are delivered.
	schema := testSchema()
	const nClients = 8
	ops := genWorkload(schema, 99, 120, nClients)
	want := oracleDeliveries(ops, nClients)

	topos := map[string]Topology{
		"line5": Line(5),
		"tree7": BalancedTree(7),
		"rand9": RandomTree(9, 4),
	}
	configs := map[string]Config{
		"off":          {Schema: schema, Mode: core.ModeOff},
		"exact-linear": {Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		"approx":       {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 3000},
		"approx-tight": {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.05, MaxCubes: 500},
	}
	for topoName, topo := range topos {
		for cfgName, cfg := range configs {
			t.Run(topoName+"/"+cfgName, func(t *testing.T) {
				got := runWorkload(t, cfg, topo, ops, nClients)
				for c := range want {
					if len(got[c]) != len(want[c]) {
						t.Fatalf("client %d received %d events, oracle says %d",
							c, len(got[c]), len(want[c]))
					}
					for i := range want[c] {
						for a := range want[c][i] {
							if got[c][i][a] != want[c][i][a] {
								t.Fatalf("client %d event %d differs: %v vs %v",
									c, i, got[c][i], want[c][i])
							}
						}
					}
				}
			})
		}
	}
}

func TestCoveringModeOrderingOnTableSizes(t *testing.T) {
	// exact <= approx <= off in propagated subscriptions and table rows.
	schema := testSchema()
	const nClients = 6
	ops := genWorkload(schema, 7, 150, nClients)
	// Strip publishes; this test is about propagation volume.
	var subsOnly []workloadOp
	for _, op := range ops {
		if op.kind != 2 {
			subsOnly = append(subsOnly, op)
		}
	}
	topo := BalancedTree(15)
	results := make(map[string]int)
	msgs := make(map[string]int)
	for name, cfg := range map[string]Config{
		"off":    {Schema: schema, Mode: core.ModeOff},
		"approx": {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.25, MaxCubes: 3000},
		"exact":  {Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
	} {
		n := MustNetwork(topo, cfg)
		clients := make([]*Client, nClients)
		for i := range clients {
			c, err := n.AttachClient(i % n.NumBrokers())
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = c
		}
		for _, op := range subsOnly {
			var err error
			if op.kind == 0 {
				err = n.Subscribe(clients[op.client].ID, op.sub)
			} else {
				err = n.Unsubscribe(clients[op.client].ID, op.sub)
			}
			if err != nil {
				t.Fatal(err)
			}
			n.Drain()
		}
		results[name] = n.TableRows()
		msgs[name] = n.Metrics().SubscribeMsgs
		if m := n.Metrics(); m.ProtocolErrors != 0 {
			t.Fatalf("%s: protocol errors %d", name, m.ProtocolErrors)
		}
	}
	if !(results["exact"] <= results["approx"] && results["approx"] <= results["off"]) {
		t.Fatalf("table rows not ordered: exact=%d approx=%d off=%d",
			results["exact"], results["approx"], results["off"])
	}
	if !(msgs["exact"] <= msgs["approx"] && msgs["approx"] <= msgs["off"]) {
		t.Fatalf("subscribe msgs not ordered: exact=%d approx=%d off=%d",
			msgs["exact"], msgs["approx"], msgs["off"])
	}
	if results["exact"] >= results["off"] {
		t.Fatal("exact covering should strictly shrink tables on this workload")
	}
	t.Logf("table rows: exact=%d approx=%d off=%d; subscribe msgs: exact=%d approx=%d off=%d",
		results["exact"], results["approx"], results["off"],
		msgs["exact"], msgs["approx"], msgs["off"])
}

func TestClientAPIValidation(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(2), Config{Schema: schema, Mode: core.ModeOff})
	if _, err := n.AttachClient(9); err == nil {
		t.Error("attach to unknown broker must fail")
	}
	if err := n.Subscribe(42, subscription.New(schema)); err == nil {
		t.Error("subscribe from unknown client must fail")
	}
	if err := n.Unsubscribe(42, subscription.New(schema)); err == nil {
		t.Error("unsubscribe from unknown client must fail")
	}
	if err := n.Publish(42, subscription.Event{1, 2}); err == nil {
		t.Error("publish from unknown client must fail")
	}
	c, _ := n.AttachClient(0)
	if err := n.Unsubscribe(c.ID, subscription.New(schema)); err == nil {
		t.Error("unsubscribe of unknown subscription must fail")
	}
	if err := n.Publish(c.ID, subscription.Event{1}); err == nil {
		t.Error("publish with wrong arity must fail")
	}
	other := subscription.MustSchema(8, "topic", "price")
	if err := n.Subscribe(c.ID, subscription.New(other)); err == nil {
		t.Error("foreign schema must fail")
	}
	if err := n.Subscribe(c.ID, subscription.New(schema)); err != nil {
		t.Error(err)
	}
	if got := len(c.Subscriptions()); got != 1 {
		t.Errorf("Subscriptions() = %d, want 1", got)
	}
}

func TestCoverTotalsAccounting(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(3), Config{Schema: schema, Mode: core.ModeExact})
	c, _ := n.AttachClient(0)
	for i := 0; i < 5; i++ {
		s := subscription.MustParse(schema, fmt.Sprintf("price in [%d,%d]", i*10, i*10+5))
		if err := n.Subscribe(c.ID, s); err != nil {
			t.Fatal(err)
		}
	}
	n.Drain()
	tot := n.CoverTotals()
	if tot.Queries == 0 {
		t.Fatal("expected cover queries to be counted")
	}
	if n.ForwardedEntries() == 0 {
		t.Fatal("expected forwarded entries")
	}
}

// TestLatencyHistogramsSampleOneIn16 pins the latency histograms' sample:
// only publishes 16, 32, … are stamped, so the delivery histogram holds
// exactly their deliveries, and one forward-path cover query in 16 is
// timed. The Deliveries counter still counts every delivery.
func TestLatencyHistogramsSampleOneIn16(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(BalancedTree(7), Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	defer n.Close()
	clients := make([]*Client, 10)
	for i := range clients {
		c, err := n.AttachClient(i % n.NumBrokers())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	rng := rand.New(rand.NewSource(16))
	maxV := int(schema.MaxValue())
	held := make([][]*subscription.Subscription, len(clients))
	publishes, deliveries, stamped := 0, 0, 0
	for op := 0; op < 300; op++ {
		if op%3 == 0 {
			c := rng.Intn(len(clients))
			s := subscription.New(schema)
			for _, attr := range schema.Attrs() {
				lo := rng.Intn(maxV / 2)
				if err := s.SetRange(attr, uint32(lo), uint32(lo+maxV/4+rng.Intn(maxV/4))); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Subscribe(clients[c].ID, s); err != nil {
				t.Fatal(err)
			}
			held[c] = append(held[c], s)
			n.Drain()
			continue
		}
		e := subscription.Event{uint32(rng.Intn(maxV + 1)), uint32(rng.Intn(maxV + 1))}
		if err := n.Publish(clients[rng.Intn(len(clients))].ID, e); err != nil {
			t.Fatal(err)
		}
		n.Drain()
		publishes++
		want := 0
		for c, subs := range held {
			for _, s := range subs {
				if s.Matches(e) {
					want++
					break
				}
			}
			if got := len(clients[c].Received); got > 1 {
				t.Fatalf("publish %d: client %d received %d copies", publishes, c, got)
			}
			clients[c].Received = clients[c].Received[:0]
		}
		deliveries += want
		if publishes%16 == 0 {
			stamped += want
		}
	}
	if stamped == 0 {
		t.Fatal("no stamped publish was delivered; the schedule tests nothing")
	}
	if got := n.Metrics().Deliveries; got != deliveries {
		t.Errorf("Metrics().Deliveries = %d, want every delivery: %d", got, deliveries)
	}
	if got := n.DeliveryLatency().Count; got != uint64(stamped) {
		t.Errorf("DeliveryLatency().Count = %d, want the %d deliveries of publishes 16, 32, … (of %d)", got, stamped, deliveries)
	}
	// Only subscribes ran, so every cover query was a forward-path one.
	queries := n.CoverTotals().Queries
	if queries < 2*latencySample {
		t.Fatalf("%d cover queries; the schedule tests nothing", queries)
	}
	if got, want := n.ForwardLatency().Count, uint64(queries/latencySample); got != want {
		t.Errorf("ForwardLatency().Count = %d, want ⌊%d forward-path queries / 16⌋ = %d", got, queries, want)
	}
}
