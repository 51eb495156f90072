package broker

import (
	"fmt"
	"slices"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

// TestMultiHopUncover exercises the uncover cascade across several hops: a
// wide subscription suppresses a narrow one at an intermediate broker;
// withdrawing the wide one must re-establish the narrow subscription's
// routing state along the whole path.
func TestMultiHopUncover(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(4), Config{Schema: schema, Mode: core.ModeExact})
	wideClient, _ := n.AttachClient(0)
	narrowClient, _ := n.AttachClient(1)
	pub, _ := n.AttachClient(3)

	wide := subscription.MustParse(schema, "price <= 200")
	narrow := subscription.MustParse(schema, "price in [10,20]")

	if err := n.Subscribe(wideClient.ID, wide); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if err := n.Subscribe(narrowClient.ID, narrow); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	// narrow is suppressed at broker 1 toward broker 2 (wide already
	// forwarded there) but forwarded toward broker 0 (wide arrived from 0,
	// so nothing covering was ever *sent* toward 0).
	if got := n.Metrics().SuppressedForwards; got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}

	// Withdraw the wide subscription; the retraction travels 0->1->2->3
	// and each hop re-forwards the narrow subscription.
	if err := n.Unsubscribe(wideClient.ID, wide); err != nil {
		t.Fatal(err)
	}
	n.Drain()

	inRange, _ := subscription.ParseEvent(schema, "topic = 0, price = 15")
	outRange, _ := subscription.ParseEvent(schema, "topic = 0, price = 100")
	if err := n.Publish(pub.ID, inRange); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(pub.ID, outRange); err != nil {
		t.Fatal(err)
	}
	n.Drain()

	if len(narrowClient.Received) != 1 {
		t.Fatalf("narrow client received %d events, want exactly the in-range one", len(narrowClient.Received))
	}
	if len(wideClient.Received) != 0 {
		t.Fatal("unsubscribed wide client must receive nothing")
	}
	if m := n.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}

// TestUncoverChainOfCovers checks the re-forward scan when the removed
// cover was itself covering several subscriptions at different widths.
func TestUncoverChainOfCovers(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(3), Config{Schema: schema, Mode: core.ModeExact})
	c, _ := n.AttachClient(0)
	pub, _ := n.AttachClient(2)

	widest := subscription.MustParse(schema, "price <= 250")
	mid := subscription.MustParse(schema, "price <= 100")
	narrow := subscription.MustParse(schema, "price in [5,10]")
	for _, s := range []*subscription.Subscription{widest, mid, narrow} {
		if err := n.Subscribe(c.ID, s); err != nil {
			t.Fatal(err)
		}
		n.Drain()
	}
	// Only the widest was forwarded.
	if got := n.Metrics().SubscribeMsgs; got != 2 {
		t.Fatalf("forwarded %d msgs, want 2 (widest down 2 links)", got)
	}

	if err := n.Unsubscribe(c.ID, widest); err != nil {
		t.Fatal(err)
	}
	n.Drain()

	// mid must now be forwarded; narrow stays suppressed (covered by mid).
	ev60, _ := subscription.ParseEvent(schema, "topic = 1, price = 60")
	ev7, _ := subscription.ParseEvent(schema, "topic = 1, price = 7")
	ev200, _ := subscription.ParseEvent(schema, "topic = 1, price = 200")
	for _, ev := range []subscription.Event{ev60, ev7, ev200} {
		if err := n.Publish(pub.ID, ev); err != nil {
			t.Fatal(err)
		}
	}
	n.Drain()
	// c holds mid and narrow: expects ev60 (mid) and ev7 (both), not ev200.
	if len(c.Received) != 2 {
		t.Fatalf("received %d events, want 2", len(c.Received))
	}
	if m := n.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}

// TestApproxUncoverSafety runs subscription withdrawal under approximate
// covering: even when the approximate detector misses covers, the uncover
// path must keep delivery intact.
func TestApproxUncoverSafety(t *testing.T) {
	schema := testSchema()
	ops := genWorkload(schema, 17, 150, 6)
	want := oracleDeliveries(ops, 6)
	got := runWorkload(t, Config{
		Schema: schema, Mode: core.ModeApprox, Epsilon: 0.2, MaxCubes: 2000,
	}, Line(5), ops, 6)
	for c := range want {
		if len(got[c]) != len(want[c]) {
			t.Fatalf("client %d: %d events vs oracle %d", c, len(got[c]), len(want[c]))
		}
	}
}

// TestUnsubscribeQueriesOnlyRecordedMembers pins what an unsubscription
// re-screens: on one link a broad cover X spans forty suppressed members
// recorded under two tighter covers and four recorded under X itself;
// retracting X issues exactly four covering queries, re-forwards exactly
// the two that no forwarded subscription covers any more, moves the other
// two to their new covers' lists, and leaves the forty alone. Deliveries
// match a brute-force match over the live subscriptions throughout.
func TestUnsubscribeQueriesOnlyRecordedMembers(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(2), Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	defer n.Close()
	c, _ := n.AttachClient(0)
	pub, _ := n.AttachClient(1)
	var live []*subscription.Subscription
	subscribe := func(expr string) *subscription.Subscription {
		s := subscription.MustParse(schema, expr)
		if err := n.Subscribe(c.ID, s); err != nil {
			t.Fatal(err)
		}
		n.Drain()
		live = append(live, s)
		return s
	}
	unsubscribe := func(s *subscription.Subscription) (queries, forwards int) {
		q0, m0 := n.CoverTotals().Queries, n.Metrics()
		if err := n.Unsubscribe(c.ID, s); err != nil {
			t.Fatal(err)
		}
		n.Drain()
		live = slices.DeleteFunc(live, func(h *subscription.Subscription) bool { return h == s })
		if got := n.Metrics().UnsubscribeMsgs - m0.UnsubscribeMsgs; got != 1 {
			t.Fatalf("retracting %v sent %d unsubscribe messages, want 1", s, got)
		}
		return n.CoverTotals().Queries - q0, n.Metrics().SubscribeMsgs - m0.SubscribeMsgs
	}
	checkDeliveries := func(stage string) {
		t.Helper()
		var want []subscription.Event
		for topic := uint32(2); topic < 256; topic += 11 {
			for price := uint32(3); price < 256; price += 13 {
				e := subscription.Event{topic, price}
				if err := n.Publish(pub.ID, e); err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(live, func(s *subscription.Subscription) bool { return s.Matches(e) }) {
					want = append(want, e)
				}
			}
		}
		n.Drain()
		if !eventsEqual(c.Received, want) {
			t.Fatalf("%s: delivered %d events, brute force %d", stage, len(c.Received), len(want))
		}
		c.Received = c.Received[:0]
	}

	t1 := subscribe("topic in [0,50] && price in [0,100]")
	t2 := subscribe("topic in [60,110] && price in [0,100]")
	for i := 1; i <= 20; i++ {
		subscribe(fmt.Sprintf("topic in [%d,%d] && price in [%d,%d]", i, i+10, i, i+20))
		subscribe(fmt.Sprintf("topic in [%d,%d] && price in [%d,%d]", 60+i, 70+i, i, i+20))
	}
	x := subscribe("topic in [0,200] && price in [0,200]")
	a := subscribe("topic in [120,180] && price in [10,90]")  // uncovered once X goes
	b := subscribe("topic in [130,150] && price in [20,50]")  // then covered by a, re-forwarded earlier in the pass
	cc := subscribe("topic in [10,40] && price in [120,180]") // then covered by y
	subscribe("topic in [150,190] && price in [150,190]")     // uncovered once X goes
	y := subscribe("topic in [5,45] && price in [110,250]")   // reaches past X: forwarded
	b0 := n.brokers[0]
	st := b0.link(1)
	id := func(s *subscription.Subscription) uint64 { id, _ := b0.forwardedID(1, s); return id }
	held := func(s *subscription.Subscription) int { return len(st.sups.list(id(s))) }
	if held(t1) != 20 || held(t2) != 20 || held(x) != 4 || held(y) != 0 || st.forwarded() != 4 {
		t.Fatalf("before: %d+%d members under the tight covers, %d under X, %d under y, %d forwarded; want 20+20, 4, 0, 4",
			held(t1), held(t2), held(x), held(y), st.forwarded())
	}
	checkDeliveries("before")

	if queries, forwards := unsubscribe(x); queries != 4 || forwards != 2 {
		t.Fatalf("retracting X: %d covering queries, %d re-forwards; want 4 and 2", queries, forwards)
	}
	if held(t1) != 20 || held(t2) != 20 || held(a) != 1 || held(y) != 1 || n.SuppressedEntries() != 42 {
		t.Fatalf("after X: %d+%d under the tight covers, %d under a, %d under y, %d suppressed; want 20+20, 1, 1, 42",
			held(t1), held(t2), held(a), held(y), n.SuppressedEntries())
	}
	if by, _ := b0.suppressedBy(1, cc); by != id(y) {
		t.Fatalf("the member y covers is recorded under %d, want y's id %d", by, id(y))
	}
	checkDeliveries("after X")

	// A member that moved lists is found again by its new cover's retraction.
	if queries, forwards := unsubscribe(a); queries != 1 || forwards != 1 {
		t.Fatalf("retracting a: %d covering queries, %d re-forwards; want 1 and 1", queries, forwards)
	}
	if _, forwarded := b0.forwardedID(1, b); !forwarded {
		t.Fatal("the member a was holding back is not forwarded")
	}
	checkDeliveries("after a")
	if m := n.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}
