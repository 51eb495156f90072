package broker

import (
	"fmt"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
)

var allBackends = []Backend{BackendDetector, BackendEnginePrefix}

func TestBackendValidation(t *testing.T) {
	cfg := Config{Schema: testSchema(), Mode: core.ModeExact, Backend: "quantum"}
	if _, err := NewNetwork(Line(2), cfg); err == nil {
		t.Fatal("unknown backend must fail")
	}
}

// eventsEqual reports whether two delivery sequences are bit-identical:
// same length, same order, same attribute values.
func eventsEqual(a, b []subscription.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestBackendsDeliverIdentically pins the acceptance property: for every
// topology/mode combination, event deliveries are bit-identical between
// the single-detector backend and the engine backend — including after
// covering-subscription removal, which the workload exercises both via
// its random unsubscribes and via a planted wide-cover withdrawal.
func TestBackendsDeliverIdentically(t *testing.T) {
	schema := testSchema()
	const nClients = 6
	ops := genWorkload(schema, 404, 110, nClients)
	// Plant a guaranteed covering-removal sequence on top of the random
	// workload: a wide cover arrives, suppresses the narrows, and is
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
		"star6": Star(6),
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
				var ref [][]subscription.Event
				for _, backend := range allBackends {
					cfg := base
					cfg.Backend = backend
					cfg.BatchSize = 4
					got := runWorkload(t, cfg, topo, ops, nClients)
					if ref == nil {
						ref = got // detector backend is the reference
						continue
					}
					for c := range ref {
						if !eventsEqual(got[c], ref[c]) {
							t.Fatalf("backend %s: client %d deliveries differ from detector backend (%d vs %d events)",
								backend, c, len(got[c]), len(ref[c]))
						}
					}
				}
			})
		}
	}
}

// TestRebalancingBackendDeliversIdentically pins the acceptance property
// for online rebalancing: an engine-prefix network whose every link engine
// is having passes forced on it the whole time (a link's few dozen
// subscriptions are under the population its own write path would act on,
// so a goroutine moves the boundaries while the workload runs) must
// deliver bit-identically to the single-detector reference, in every mode.
func TestRebalancingBackendDeliversIdentically(t *testing.T) {
	schema := testSchema()
	const nClients = 6
	ops := genWorkload(schema, 505, 110, nClients)
	configs := map[string]Config{
		"exact":  {Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		"approx": {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 3000},
	}
	for cfgName, base := range configs {
		t.Run(cfgName, func(t *testing.T) {
			ref := base
			ref.Backend = BackendDetector
			want := runWorkload(t, ref, BalancedTree(7), ops, nClients)

			cfg := base
			cfg.Backend = BackendEnginePrefix
			cfg.BatchSize = 4
			n := MustNetwork(BalancedTree(7), cfg)
			defer n.Close()
			var engines []*engine.Engine
			for _, b := range n.brokers {
				for _, st := range b.out {
					engines = append(engines, st.fwd.(*engine.Engine))
				}
			}
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					for _, e := range engines {
						e.Rebalance()
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			got := runWorkloadOn(t, n, ops, nClients)
			close(stop)
			<-done
			for c := range want {
				if !eventsEqual(got[c], want[c]) {
					t.Fatalf("client %d deliveries differ under rebalancing (%d vs %d events)",
						c, len(got[c]), len(want[c]))
				}
			}
		})
	}
}

// TestApproxCoverRemovalResubscribes is the regression test for the
// ε-approximate unsubscription path: an approximate cover suppresses a
// narrow subscription; when the cover is removed, the previously
// suppressed subscription must resume receiving events — under every
// backend.
func TestApproxCoverRemovalResubscribes(t *testing.T) {
	schema := testSchema()
	wide := subscription.MustParse(schema, "price <= 200")
	narrow := subscription.MustParse(schema, "price in [10,20]")
	for _, backend := range allBackends {
		t.Run(string(backend), func(t *testing.T) {
			n := MustNetwork(Line(4), Config{
				Schema: schema, Mode: core.ModeApprox, Epsilon: 0.2, MaxCubes: 5000,
				Backend: backend,
			})
			defer n.Close()
			wideClient, _ := n.AttachClient(0)
			narrowClient, _ := n.AttachClient(0)
			pub, _ := n.AttachClient(3)

			if err := n.Subscribe(wideClient.ID, wide); err != nil {
				t.Fatal(err)
			}
			n.Drain()
			if err := n.Subscribe(narrowClient.ID, narrow); err != nil {
				t.Fatal(err)
			}
			n.Drain()
			// The approximate search must detect this generous cover; the
			// test is vacuous otherwise.
			if got := n.Metrics().SuppressedForwards; got == 0 {
				t.Fatal("approximate detection missed the planted cover; widen it or raise MaxCubes")
			}
			if n.SuppressedEntries() == 0 {
				t.Fatal("suppressed set must track the withheld subscription")
			}

			if err := n.Unsubscribe(wideClient.ID, wide); err != nil {
				t.Fatal(err)
			}
			n.Drain()
			if n.SuppressedEntries() != 0 {
				t.Fatalf("suppressed entries after cover removal = %d, want 0", n.SuppressedEntries())
			}

			inRange, _ := subscription.ParseEvent(schema, "topic = 0, price = 15")
			outRange, _ := subscription.ParseEvent(schema, "topic = 0, price = 150")
			if err := n.Publish(pub.ID, inRange); err != nil {
				t.Fatal(err)
			}
			if err := n.Publish(pub.ID, outRange); err != nil {
				t.Fatal(err)
			}
			n.Drain()
			if len(narrowClient.Received) != 1 {
				t.Fatalf("previously suppressed subscriber received %d events, want 1", len(narrowClient.Received))
			}
			if len(wideClient.Received) != 0 {
				t.Fatal("unsubscribed wide client must receive nothing")
			}
			if m := n.Metrics(); m.ProtocolErrors != 0 {
				t.Fatalf("protocol errors: %d", m.ProtocolErrors)
			}
		})
	}
}

// TestUnsubscribeSuppressedSubscription pins the suppressed-set
// bookkeeping: when a client withdraws a subscription that was never
// forwarded (it was suppressed), its suppressed-set entry must die with
// it, so a later cover removal does not resurrect a dead subscription.
func TestUnsubscribeSuppressedSubscription(t *testing.T) {
	schema := testSchema()
	for _, backend := range allBackends {
		t.Run(string(backend), func(t *testing.T) {
			n := MustNetwork(Line(3), Config{
				Schema: schema, Mode: core.ModeExact, Backend: backend,
			})
			defer n.Close()
			c, _ := n.AttachClient(0)
			pub, _ := n.AttachClient(2)
			wide := subscription.MustParse(schema, "price <= 200")
			narrow := subscription.MustParse(schema, "price in [10,20]")
			for _, s := range []*subscription.Subscription{wide, narrow} {
				if err := n.Subscribe(c.ID, s); err != nil {
					t.Fatal(err)
				}
				n.Drain()
			}
			if n.SuppressedEntries() == 0 {
				t.Fatal("narrow must be suppressed somewhere")
			}
			// Withdraw the suppressed narrow first, then the wide cover.
			if err := n.Unsubscribe(c.ID, narrow); err != nil {
				t.Fatal(err)
			}
			n.Drain()
			if n.SuppressedEntries() != 0 {
				t.Fatalf("suppressed entries after narrow unsubscribe = %d, want 0", n.SuppressedEntries())
			}
			subMsgsBefore := n.Metrics().SubscribeMsgs
			if err := n.Unsubscribe(c.ID, wide); err != nil {
				t.Fatal(err)
			}
			n.Drain()
			// Nothing may be re-forwarded: the only covered subscription is
			// already dead.
			if got := n.Metrics().SubscribeMsgs; got != subMsgsBefore {
				t.Fatalf("cover removal re-forwarded a dead subscription (%d -> %d subscribe msgs)",
					subMsgsBefore, got)
			}
			ev, _ := subscription.ParseEvent(schema, "topic = 0, price = 15")
			if err := n.Publish(pub.ID, ev); err != nil {
				t.Fatal(err)
			}
			n.Drain()
			if len(c.Received) != 0 {
				t.Fatalf("fully unsubscribed client received %d events", len(c.Received))
			}
			if m := n.Metrics(); m.ProtocolErrors != 0 {
				t.Fatalf("protocol errors: %d", m.ProtocolErrors)
			}
		})
	}
}

// TestEngineBackendTableParity: in exact mode the covering decisions are
// mode-determined, so routing-table footprints must agree exactly across
// backends, not just deliveries. One counter is left out of that
// comparison: when several forwarded subscriptions cover a member, which
// one a backend names decides whose retraction re-screens it, and
// SuppressedForwards counts re-screens. The detector's scan names the first
// cover in its slice, the engine's the smallest id. Within one backend the
// choice is fixed, so the engine's counter must be identical run to run.
func TestEngineBackendTableParity(t *testing.T) {
	schema := testSchema()
	const nClients = 6
	ops := genWorkload(schema, 77, 120, nClients)
	type footprint struct {
		rows, fwd, supp int
		metrics         Metrics
	}
	run := func(backend Backend) footprint {
		n := MustNetwork(BalancedTree(7), Config{
			Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear, Backend: backend,
		})
		clients := make([]*Client, nClients)
		for i := range clients {
			cl, err := n.AttachClient(i % n.NumBrokers())
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = cl
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
		fp := footprint{
			rows: n.TableRows(), fwd: n.ForwardedEntries(), supp: n.SuppressedEntries(),
			metrics: n.Metrics(),
		}
		n.Close()
		if fp.metrics.ProtocolErrors != 0 {
			t.Fatalf("backend %s: protocol errors %d", backend, fp.metrics.ProtocolErrors)
		}
		return fp
	}
	ref := run(BackendDetector)
	eng := run(BackendEnginePrefix)
	for i := 1; i < 5; i++ {
		if again := run(BackendEnginePrefix); again.metrics.SuppressedForwards != eng.metrics.SuppressedForwards {
			t.Fatalf("engine run %d: SuppressedForwards %d, first run %d", i, again.metrics.SuppressedForwards, eng.metrics.SuppressedForwards)
		}
	}
	ref.metrics.SuppressedForwards, eng.metrics.SuppressedForwards = 0, 0
	if eng != ref {
		t.Fatalf("engine backend footprint %+v differs from detector backend %+v", eng, ref)
	}
}

// TestBatchSizeInsensitivity: the covered-set re-forward chunking must not
// change deliveries (chunking affects traffic at most, never safety).
func TestBatchSizeInsensitivity(t *testing.T) {
	schema := testSchema()
	const nClients = 5
	ops := genWorkload(schema, 900, 90, nClients)
	var ref [][]subscription.Event
	for _, batch := range []int{0, 1, 3, 64} {
		cfg := Config{
			Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear,
			Backend: BackendEnginePrefix, BatchSize: batch,
		}
		got := runWorkload(t, cfg, Star(5), ops, nClients)
		if ref == nil {
			ref = got
			continue
		}
		for c := range ref {
			if !eventsEqual(got[c], ref[c]) {
				t.Fatalf("batch size %d: client %d deliveries differ", batch, c)
			}
		}
	}
}

func ExampleConfig_backend() {
	schema := subscription.MustSchema(8, "topic", "price")
	n := MustNetwork(Line(3), Config{
		Schema:  schema,
		Mode:    core.ModeApprox,
		Epsilon: 0.2,
		Backend: BackendEnginePrefix,
	})
	defer n.Close()
	sub, _ := n.AttachClient(0)
	pub, _ := n.AttachClient(2)
	_ = n.Subscribe(sub.ID, subscription.MustParse(schema, "price <= 100"))
	n.Drain()
	_ = n.Publish(pub.ID, subscription.Event{3, 42})
	n.Drain()
	fmt.Println(len(sub.Received), "event delivered")
	// Output: 1 event delivered
}
