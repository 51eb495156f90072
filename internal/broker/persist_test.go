package broker

import (
	"errors"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

// TestNetworkDataDirSurvivesRestart pins the broker durability contract:
// a network rebuilt over the same DataDir recovers every link's forwarded
// and suppressed set — id maps included — so that re-subscribing the same
// client population after a restart converges without re-flooding the
// overlay (every would-be forward is recognized as a duplicate), and
// event delivery afterwards is bit-identical to a network that never
// restarted.
func TestNetworkDataDirSurvivesRestart(t *testing.T) {
	schema := subscription.MustSchema(8, "stock", "price")
	topo := Line(3)
	baseCfg := Config{
		Schema:   schema,
		Mode:     core.ModeExact,
		Strategy: core.StrategyLinear,
		Seed:     9,
	}
	subs := []*subscription.Subscription{
		subscription.MustParse(schema, "stock <= 200"),               // wide: forwarded
		subscription.MustParse(schema, "stock <= 100 && price >= 3"), // covered by wide: suppressed
		subscription.MustParse(schema, "price >= 200"),               // independent: forwarded
	}
	events := []subscription.Event{
		{50, 10},
		{150, 250},
		{250, 201},
	}

	// drive subscribes the population (clients on brokers 0 and 2) and
	// publishes the events from broker 1, returning deliveries per client
	// and the network's metrics.
	drive := func(n *Network) ([][]subscription.Event, Metrics) {
		c0, err := n.AttachClient(0)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := n.AttachClient(2)
		if err != nil {
			t.Fatal(err)
		}
		pub, err := n.AttachClient(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			if err := n.Subscribe(c0.ID, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Subscribe(c2.ID, subs[0]); err != nil {
			t.Fatal(err)
		}
		n.Drain()
		for _, e := range events {
			if err := n.Publish(pub.ID, e); err != nil {
				t.Fatal(err)
			}
		}
		n.Drain()
		return [][]subscription.Event{c0.Received, c2.Received}, n.Metrics()
	}

	// Baseline: one network, never restarted.
	baseline := MustNetwork(topo, baseCfg)
	wantDeliveries, _ := drive(baseline)
	baseline.Close()

	// Durable run: drive, snapshot, close ("restart"), rebuild over the
	// same dir.
	dir := t.TempDir()
	cfg := baseCfg
	cfg.DataDir = dir
	n1 := MustNetwork(topo, cfg)
	_, firstMetrics := drive(n1)
	if err := n1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	n1.Close()

	n2, err := NewNetwork(topo, cfg)
	if err != nil {
		t.Fatalf("rebuilding over the data dir: %v", err)
	}
	defer n2.Close()
	// The link state came back: forwarded and suppressed sets hold what
	// they held at shutdown.
	if got, want := n2.ForwardedEntries(), n1.ForwardedEntries(); got != want {
		t.Fatalf("recovered ForwardedEntries = %d, want %d", got, want)
	}
	if got, want := n2.SuppressedEntries(), n1.SuppressedEntries(); got != want {
		t.Fatalf("recovered SuppressedEntries = %d, want %d", got, want)
	}

	// Re-running the identical workload on the recovered network must
	// deliver identically to the never-restarted baseline...
	gotDeliveries, metrics := drive(n2)
	for ci := range wantDeliveries {
		if len(gotDeliveries[ci]) != len(wantDeliveries[ci]) {
			t.Fatalf("client %d deliveries after restart = %d, want %d", ci, len(gotDeliveries[ci]), len(wantDeliveries[ci]))
		}
		for ei := range wantDeliveries[ci] {
			for k, v := range wantDeliveries[ci][ei] {
				if gotDeliveries[ci][ei][k] != v {
					t.Fatalf("client %d event %d diverges after restart: %v vs %v",
						ci, ei, gotDeliveries[ci][ei], wantDeliveries[ci][ei])
				}
			}
		}
	}
	// ...without re-flooding: every re-subscription finds its rectangle
	// already forwarded (or suppressed), so zero subscribe messages cross
	// the overlay where the cold run needed several.
	if firstMetrics.SubscribeMsgs == 0 {
		t.Fatal("cold run forwarded nothing; the re-flood assertion below would be vacuous")
	}
	if metrics.SubscribeMsgs != 0 {
		t.Fatalf("recovered network re-forwarded %d subscriptions; recovered id maps must absorb them as duplicates/suppressed",
			metrics.SubscribeMsgs)
	}
	if metrics.ProtocolErrors != 0 {
		t.Fatalf("recovered network hit %d protocol errors", metrics.ProtocolErrors)
	}
}

// crashPoint simulates the store dying under one link: the first budget
// writes reach the durable providers, every later one fails as a log write
// would after a crash, so the disk keeps the state of that instant while
// the in-memory run stumbles on.
type crashPoint struct {
	budget  int
	crashed bool
}

var errCrashed = errors.New("injected persist write failure")

func (c *crashPoint) spend() bool {
	if c.budget == 0 {
		c.crashed = true
		return false
	}
	c.budget--
	return true
}

type crashingFwd struct {
	core.Provider
	at *crashPoint
}

func (p crashingFwd) Insert(s *subscription.Subscription) (uint64, error) {
	if !p.at.spend() {
		return 0, errCrashed
	}
	return p.Provider.Insert(s)
}

func (p crashingFwd) Remove(id uint64) error {
	if !p.at.spend() {
		return errCrashed
	}
	return p.Provider.Remove(id)
}

type crashingSupp struct {
	suppressedSet
	at *crashPoint
}

func (p crashingSupp) Insert(s *subscription.Subscription) (uint64, error) {
	if !p.at.spend() {
		return 0, errCrashed
	}
	return p.suppressedSet.Insert(s)
}

func (p crashingSupp) Remove(id uint64) error {
	if !p.at.spend() {
		return errCrashed
	}
	return p.suppressedSet.Remove(id)
}

// TestCrashMidRescreenKeepsSuppressedSet pins the durability of the
// unsubscription re-screen: whichever write between the covered-set
// listing and the last re-forward is the store's last, every covered
// member comes back either forwarded or still suppressed — never in
// neither set, which is where a re-screen that first drains the
// suppressed set leaves the members it had not yet re-inserted — and the
// recovered overlay, once its clients are back, delivers exactly what a
// never-crashed one does.
func TestCrashMidRescreenKeepsSuppressedSet(t *testing.T) {
	schema := subscription.MustSchema(8, "stock", "price")
	topo := Line(3)
	baseCfg := Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear, Seed: 9}
	wide := subscription.MustParse(schema, "stock <= 200")
	members := []*subscription.Subscription{
		subscription.MustParse(schema, "stock <= 100 && price >= 3"),         // re-forwarded
		subscription.MustParse(schema, "stock in [20,60] && price >= 10"),    // covered by the first: stays suppressed
		subscription.MustParse(schema, "stock in [120,180] && price <= 90"),  // re-forwarded
		subscription.MustParse(schema, "stock in [130,170] && price <= 200"), // re-forwarded
	}
	events := []subscription.Event{{50, 10}, {30, 2}, {150, 50}, {160, 150}, {190, 1}, {250, 7}}

	attach := func(n *Network) (sub, pub *Client) {
		sub, err := n.AttachClient(0)
		if err != nil {
			t.Fatal(err)
		}
		pub, err = n.AttachClient(2)
		if err != nil {
			t.Fatal(err)
		}
		return sub, pub
	}
	subscribeAll := func(n *Network, c *Client, subs ...*subscription.Subscription) {
		for _, s := range subs {
			if err := n.Subscribe(c.ID, s); err != nil {
				t.Fatal(err)
			}
			n.Drain()
		}
	}
	publishAll := func(n *Network, sub, pub *Client) []subscription.Event {
		for _, e := range events {
			if err := n.Publish(pub.ID, e); err != nil {
				t.Fatal(err)
			}
		}
		n.Drain()
		return sub.Received
	}

	clean := MustNetwork(topo, baseCfg)
	sub, pub := attach(clean)
	subscribeAll(clean, sub, append([]*subscription.Subscription{wide}, members...)...)
	if err := clean.Unsubscribe(sub.ID, wide); err != nil {
		t.Fatal(err)
	}
	clean.Drain()
	want := publishAll(clean, sub, pub)
	clean.Close()
	if len(want) != 3 {
		t.Fatalf("clean run delivered %d events, want 3", len(want))
	}

	crashes := 0
	for budget := 1; ; budget++ {
		cfg := baseCfg
		cfg.DataDir = t.TempDir()
		n1 := MustNetwork(topo, cfg)
		sub, _ := attach(n1)
		subscribeAll(n1, sub, append([]*subscription.Subscription{wide}, members...)...)
		if got := n1.SuppressedEntries(); got != len(members) {
			t.Fatalf("%d members suppressed before the retraction, want %d", got, len(members))
		}
		// The retraction's own removal is write one; the budget runs out
		// somewhere in the re-screen behind it.
		at := &crashPoint{budget: budget}
		link := n1.brokers[0].link(1)
		link.fwd = crashingFwd{link.fwd, at}
		link.supp = crashingSupp{link.supp, at}
		if err := n1.Unsubscribe(sub.ID, wide); err != nil {
			t.Fatal(err)
		}
		n1.Drain()
		// The run that stumbles on keeps its own invariant: a member whose
		// retirement failed is not left recorded under the retracted cover.
		for by := range link.sups.heldBy.All() {
			held := link.sups.list(by)
			if _, live := link.fwd.Subscription(by); !live {
				t.Fatalf("budget %d: %d entries still recorded under %d, which is no longer forwarded", budget, len(held), by)
			}
		}
		n1.Close()
		if !at.crashed {
			break // the whole re-screen fit the budget: every crash point is covered
		}
		crashes++

		n2, err := NewNetwork(topo, cfg)
		if err != nil {
			t.Fatalf("budget %d: recovering: %v", budget, err)
		}
		b0 := n2.brokers[0]
		if _, held := b0.forwardedID(1, wide); held {
			t.Fatalf("budget %d: the retracted cover came back forwarded", budget)
		}
		for i, m := range members {
			_, forwarded := b0.forwardedID(1, m)
			_, suppressed := b0.suppressedBy(1, m)
			if forwarded == suppressed {
				t.Fatalf("budget %d: member %d recovered forwarded=%v suppressed=%v, want exactly one",
					budget, i, forwarded, suppressed)
			}
		}
		sub, pub := attach(n2)
		subscribeAll(n2, sub, members...)
		if got := publishAll(n2, sub, pub); !eventsEqual(got, want) {
			t.Fatalf("budget %d: recovered overlay delivered %v, never-crashed one %v", budget, got, want)
		}
		if errs := n2.Metrics().ProtocolErrors; errs != 0 {
			t.Fatalf("budget %d: recovered overlay hit %d protocol errors", budget, errs)
		}
		n2.Close()
	}
	// Three re-forwards, two writes each, behind the retraction's removal.
	if crashes != 6 {
		t.Fatalf("exercised %d crash points, want 6", crashes)
	}
}

// TestRestartReforwardsInterruptedRescreen is the crash the battery above
// cannot see, because there the members' own client re-subscribes after
// the restart and that re-screens them by accident. Here the members reach
// broker 1 over the link from broker 0 — rows restoreLinks rebuilds and
// nobody re-sends — and sit suppressed toward broker 2 under a cover held
// by a client of broker 1. The store dies in the re-screen behind that
// cover's retraction: on disk the cover is gone and some members are
// suppressed with nothing left that covers them. Reopening must forward
// them — every recovered suppressed entry has a live recorded coverer or
// is forwarded — as one new row each at broker 2, which screens them on
// toward broker 3, and deliver what a never-crashed overlay does; retiring
// the members afterwards must leave no row and no link state anywhere.
func TestRestartReforwardsInterruptedRescreen(t *testing.T) {
	schema := subscription.MustSchema(8, "stock", "price")
	topo := Line(4)
	baseCfg := Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}
	wide := subscription.MustParse(schema, "stock <= 200")
	members := []*subscription.Subscription{
		subscription.MustParse(schema, "stock <= 100 && price >= 3"),
		subscription.MustParse(schema, "stock in [120,180] && price <= 90"),
		subscription.MustParse(schema, "stock in [130,170] && price <= 200"),
	}
	events := []subscription.Event{{50, 10}, {30, 2}, {150, 50}, {160, 150}, {190, 1}, {250, 7}}

	// run subscribes the cover at broker 1 and the members at broker 0
	// (the cover was never sent toward 0, so they all cross link 0->1),
	// then retracts the cover — with link 1->2's store dying after budget
	// writes when budget >= 0.
	run := func(cfg Config, budget int) (n *Network, at *crashPoint) {
		n = MustNetwork(topo, cfg)
		holder, _ := n.AttachClient(0)
		coverer, _ := n.AttachClient(1)
		for _, s := range append([]*subscription.Subscription{wide}, members...) {
			c := holder
			if s == wide {
				c = coverer
			}
			if err := n.Subscribe(c.ID, s); err != nil {
				t.Fatal(err)
			}
			n.Drain()
		}
		link := n.brokers[1].link(2)
		id, _ := n.brokers[1].forwardedID(2, wide)
		if got := len(link.sups.list(id)); got != len(members) {
			t.Fatalf("%d members recorded under the cover on link 1->2, want %d", got, len(members))
		}
		at = &crashPoint{budget: budget}
		if budget >= 0 {
			link.fwd = crashingFwd{link.fwd, at}
			link.supp = crashingSupp{link.supp, at}
		}
		if err := n.Unsubscribe(coverer.ID, wide); err != nil {
			t.Fatal(err)
		}
		n.Drain()
		return n, at
	}
	publishAll := func(n *Network, holder *Client) []subscription.Event {
		pub, _ := n.AttachClient(3)
		for _, e := range events {
			if err := n.Publish(pub.ID, e); err != nil {
				t.Fatal(err)
			}
		}
		n.Drain()
		return holder.Received
	}

	clean, _ := run(baseCfg, -1)
	want := publishAll(clean, clean.clients[0])
	clean.Close()
	if len(want) != 3 {
		t.Fatalf("clean run delivered %d events, want 3", len(want))
	}

	crashes := 0
	for budget := 1; ; budget++ {
		cfg := baseCfg
		cfg.DataDir = t.TempDir()
		n1, at := run(cfg, budget)
		n1.Close()
		if !at.crashed {
			break
		}
		crashes++

		n2, err := NewNetwork(topo, cfg)
		if err != nil {
			t.Fatalf("budget %d: recovering: %v", budget, err)
		}
		b1, link := n2.brokers[1], n2.brokers[1].link(2)
		for i, m := range members {
			_, forwarded := b1.forwardedID(2, m)
			by, suppressed := b1.suppressedBy(2, m)
			if forwarded == suppressed {
				t.Fatalf("budget %d: member %d recovered forwarded=%v suppressed=%v, want exactly one", budget, i, forwarded, suppressed)
			}
			if suppressed {
				if cover, ok := link.fwd.Subscription(by); !ok || !cover.Covers(m) {
					t.Fatalf("budget %d: member %d recovered suppressed under %v, which does not cover it", budget, i, cover)
				}
				continue
			}
			// One forward, one reference at the peer, screened onward.
			if refs, ok := n2.brokers[2].rowRefs(iface{kind: ifNeighbor, id: 1}, m); !ok || refs != 1 {
				t.Fatalf("budget %d: member %d forwarded on 1->2, broker 2 holds row=%v, want one reference", budget, i, ok)
			}
			_, forwarded = n2.brokers[2].forwardedID(3, m)
			if _, suppressed = n2.brokers[2].suppressedBy(3, m); forwarded == suppressed {
				t.Fatalf("budget %d: member %d on 2->3 forwarded=%v suppressed=%v, want exactly one", budget, i, forwarded, suppressed)
			}
		}
		// The members' client comes back; its re-subscriptions stop at
		// broker 0 as duplicates and never reach the link that crashed.
		holder, _ := n2.AttachClient(0)
		for _, s := range members {
			if err := n2.Subscribe(holder.ID, s); err != nil {
				t.Fatal(err)
			}
		}
		n2.Drain()
		if got := publishAll(n2, holder); !eventsEqual(got, want) {
			t.Fatalf("budget %d: recovered overlay delivered %v, never-crashed one %v", budget, got, want)
		}
		for _, s := range members {
			if err := n2.Unsubscribe(holder.ID, s); err != nil {
				t.Fatal(err)
			}
		}
		n2.Drain()
		if rows, fwd, supp := n2.TableRows(), n2.ForwardedEntries(), n2.SuppressedEntries(); rows != 0 || fwd != 0 || supp != 0 {
			t.Fatalf("budget %d: retiring the members left %d rows, %d forwarded, %d suppressed", budget, rows, fwd, supp)
		}
		if errs := n2.Metrics().ProtocolErrors; errs != 0 {
			t.Fatalf("budget %d: recovered overlay hit %d protocol errors", budget, errs)
		}
		n2.Close()
	}
	// Three re-forwards, two writes each, behind the retraction's removal.
	if crashes != 6 {
		t.Fatalf("exercised %d crash points, want 6", crashes)
	}
}

// TestRestartScreensRestoredRowsOnward is the crash between a forward's
// durable insert and the neighbor's handling of the subscribe: broker 0
// has logged its forward toward broker 1, and broker 1 never saw the
// message. The restart restores broker 1's row from link 0->1's forwarded
// set; that row must be screened onward to brokers 2 and 3, because the
// client's re-subscription stops at broker 0 as a duplicate and nothing
// else would carry it past broker 1. A publish from broker 3 then reaches
// the client exactly as in a never-crashed run.
func TestRestartScreensRestoredRowsOnward(t *testing.T) {
	schema := subscription.MustSchema(8, "stock", "price")
	topo := Line(4)
	baseCfg := Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}
	s := subscription.MustParse(schema, "stock <= 100 && price >= 3")
	events := []subscription.Event{{50, 10}, {150, 10}, {20, 1}, {100, 3}}
	publishAll := func(n *Network, holder *Client) []subscription.Event {
		pub, _ := n.AttachClient(3)
		for _, e := range events {
			if err := n.Publish(pub.ID, e); err != nil {
				t.Fatal(err)
			}
		}
		n.Drain()
		return holder.Received
	}

	clean := MustNetwork(topo, baseCfg)
	holder, _ := clean.AttachClient(0)
	if err := clean.Subscribe(holder.ID, s); err != nil {
		t.Fatal(err)
	}
	clean.Drain()
	want := publishAll(clean, holder)
	clean.Close()
	if len(want) != 2 {
		t.Fatalf("clean run delivered %d events, want 2", len(want))
	}

	cfg := baseCfg
	cfg.DataDir = t.TempDir()
	n1 := MustNetwork(topo, cfg)
	c, _ := n1.AttachClient(0)
	if err := n1.Subscribe(c.ID, s); err != nil {
		t.Fatal(err)
	}
	// Broker 0 handles the client's message and nothing else runs: its
	// forward lands in link 0->1's durable set and queues the subscribe
	// for broker 1, which the crash drops.
	m := n1.queue[0]
	n1.queue = n1.queue[:0]
	n1.brokers[0].handleSubscribe(m.from, m.sub)
	if len(n1.queue) != 1 || n1.queue[0].to != 1 {
		t.Fatalf("broker 0 queued %d messages, want one subscribe for broker 1", len(n1.queue))
	}
	if _, ok := n1.brokers[0].forwardedID(1, s); !ok {
		t.Fatal("broker 0 holds no forwarded id toward broker 1")
	}
	n1.Close()

	n2, err := NewNetwork(topo, cfg)
	if err != nil {
		t.Fatalf("recovering: %v", err)
	}
	defer n2.Close()
	if refs, ok := n2.brokers[1].rowRefs(iface{kind: ifNeighbor, id: 0}, s); !ok || refs != 1 {
		t.Fatalf("broker 1 restored row=%v with %d references, want one", ok, refs)
	}
	for j := 1; j <= 2; j++ {
		if _, ok := n2.brokers[j].forwardedID(j+1, s); !ok {
			t.Fatalf("the restored row was not screened onward: link %d->%d holds no forwarded id", j, j+1)
		}
	}
	holder, _ = n2.AttachClient(0)
	if err := n2.Subscribe(holder.ID, s); err != nil {
		t.Fatal(err)
	}
	sent := n2.Metrics().SubscribeMsgs
	n2.Drain()
	if got := n2.Metrics().SubscribeMsgs - sent; got != 0 {
		t.Fatalf("the re-subscription sent %d subscribe messages, want 0 (a duplicate at broker 0)", got)
	}
	if got := publishAll(n2, holder); !eventsEqual(got, want) {
		t.Fatalf("recovered overlay delivered %v, never-crashed one %v", got, want)
	}
	if errs := n2.Metrics().ProtocolErrors; errs != 0 {
		t.Fatalf("recovered overlay hit %d protocol errors", errs)
	}
}

// TestRestoredLinkStateKeepsItsHandle covers the one way a rectangle's
// handle outlives its table rows: a restart restores link state without
// the client rows behind it. Broker 1's client held w and the narrow n
// (suppressed under w on both links); after the restart broker 1 holds
// that state with no row. n then arrives from broker 0 and is retracted:
// the retraction clears the state toward broker 2, but the entry toward
// broker 0 — the link it came from — stays, and so must n's handle. Once
// the client is back and retires both, every handle is free.
func TestRestoredLinkStateKeepsItsHandle(t *testing.T) {
	schema := subscription.MustSchema(8, "stock", "price")
	cfg := Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear, DataDir: t.TempDir()}
	w := subscription.MustParse(schema, "stock <= 200")
	narrow := subscription.MustParse(schema, "stock <= 100 && price >= 3")
	step := func(n *Network, op func(int, *subscription.Subscription) error, c *Client, subs ...*subscription.Subscription) {
		t.Helper()
		for _, s := range subs {
			if err := op(c.ID, s); err != nil {
				t.Fatal(err)
			}
			n.Drain()
		}
		for _, b := range n.brokers {
			if err := checkRectTable(b); err != nil {
				t.Fatalf("broker %d: %v", b.id, err)
			}
		}
	}
	n1 := MustNetwork(Line(3), cfg)
	c1, _ := n1.AttachClient(1)
	step(n1, n1.Subscribe, c1, w, narrow)
	n1.Close()

	n2, err := NewNetwork(Line(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	b1 := n2.brokers[1]
	for _, j := range []int{0, 2} {
		if _, ok := b1.suppressedBy(j, narrow); !ok {
			t.Fatalf("link 1->%d restored no entry for the narrow subscription", j)
		}
	}
	c0, _ := n2.AttachClient(0)
	step(n2, n2.Subscribe, c0, narrow)
	step(n2, n2.Unsubscribe, c0, narrow)
	if _, ok := b1.suppressedBy(0, narrow); !ok {
		t.Fatal("retracting the row from broker 0 dropped the restored entry toward broker 0")
	}

	c1, _ = n2.AttachClient(1)
	step(n2, n2.Subscribe, c1, w, narrow)
	step(n2, n2.Unsubscribe, c1, narrow, w)
	if rows, fwd, supp := n2.TableRows(), n2.ForwardedEntries(), n2.SuppressedEntries(); rows+fwd+supp != 0 {
		t.Fatalf("after retiring everything: %d table rows, %d forwarded, %d suppressed entries remain", rows, fwd, supp)
	}
	for _, b := range n2.brokers {
		if live := len(b.rects.keys) - len(b.rects.free); live != 0 {
			t.Fatalf("after retiring everything: broker %d keeps %d live handles", b.id, live)
		}
	}
	if errs := n2.Metrics().ProtocolErrors; errs != 0 {
		t.Fatalf("protocol errors: %d", errs)
	}
}
