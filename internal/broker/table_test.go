package broker

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

// tableCounts is what TestRoutingTableMatchesModel pins per topology and
// mode once its schedule has run.
type tableCounts struct {
	m               Metrics
	rows, fwd, supp int
}

// tableGoldens were captured on the commit before the routing table became
// a data structure (string-keyed map, sort per event, draining re-screen):
// the rewrite must reproduce every count. Seven rows are that commit's
// verbatim. The covered-set re-screen now runs in numeric rectangle order
// where that commit sorted the decimal strings of the bounds, and when
// members of one covered set cover each other the order decides who is
// re-forwarded: tree7/exact and tree7/approx are that commit's counts with
// only its sort comparator swapped for the numeric one (its own order
// re-forwarded 3 and 2 subscriptions more: 118 and 154 subscribe messages).
// SuppressedForwards alone was recaptured when the re-screen stopped
// listing covered sets: members recorded under another cover are no longer
// re-screened, so no longer counted (that commit's six non-zero values:
// 358, 333, 711, 835, 559, 559); every other count repeats.
var tableGoldens = map[string]tableCounts{
	"line5/off":    {Metrics{SubscribeMsgs: 713, UnsubscribeMsgs: 337, EventMsgs: 768, Deliveries: 1382, SuppressedForwards: 0, DuplicateForwards: 83}, 485, 376, 0},
	"line5/exact":  {Metrics{SubscribeMsgs: 100, UnsubscribeMsgs: 74, EventMsgs: 768, Deliveries: 1382, SuppressedForwards: 340, DuplicateForwards: 28}, 135, 26, 162},
	"line5/approx": {Metrics{SubscribeMsgs: 139, UnsubscribeMsgs: 104, EventMsgs: 768, Deliveries: 1382, SuppressedForwards: 300, DuplicateForwards: 35}, 144, 35, 160},
	"star6/off":    {Metrics{SubscribeMsgs: 920, UnsubscribeMsgs: 456, EventMsgs: 676, Deliveries: 1104, SuppressedForwards: 0, DuplicateForwards: 284}, 575, 464, 0},
	"star6/exact":  {Metrics{SubscribeMsgs: 137, UnsubscribeMsgs: 92, EventMsgs: 676, Deliveries: 1104, SuppressedForwards: 695, DuplicateForwards: 44}, 156, 45, 261},
	"star6/approx": {Metrics{SubscribeMsgs: 208, UnsubscribeMsgs: 124, EventMsgs: 676, Deliveries: 1104, SuppressedForwards: 813, DuplicateForwards: 55}, 195, 84, 331},
	"tree7/off":    {Metrics{SubscribeMsgs: 1059, UnsubscribeMsgs: 538, EventMsgs: 898, Deliveries: 1303, SuppressedForwards: 0, DuplicateForwards: 178}, 629, 521, 0},
	"tree7/exact":  {Metrics{SubscribeMsgs: 115, UnsubscribeMsgs: 77, EventMsgs: 898, Deliveries: 1303, SuppressedForwards: 552, DuplicateForwards: 41}, 146, 38, 222},
	"tree7/approx": {Metrics{SubscribeMsgs: 152, UnsubscribeMsgs: 103, EventMsgs: 898, Deliveries: 1303, SuppressedForwards: 531, DuplicateForwards: 44}, 157, 49, 231},
}

// TestRoutingTableMatchesModel drives seeded random schedules of subscribe,
// duplicate subscribe (a live rectangle again, from any client on any
// broker, so row refcounts and the per-rectangle source counts carry
// weight), unsubscribe and publish through the sequential Network, checks
// every publish's delivered set against a brute-force match over the live
// subscriptions, checks every link's recorded coverers after every op, and
// pins the traffic and table counts to the goldens. Retiring everything at
// the end must leave every table, link set and coverer record empty.
func TestRoutingTableMatchesModel(t *testing.T) {
	schema := testSchema()
	topos := []struct {
		name string
		topo Topology
	}{{"line5", Line(5)}, {"star6", Star(6)}, {"tree7", BalancedTree(7)}}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"off", Config{Schema: schema, Mode: core.ModeOff}},
		{"exact", Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}},
		{"approx", Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 1}},
	}
	for ti, tp := range topos {
		for _, md := range modes {
			t.Run(tp.name+"/"+md.name, func(t *testing.T) {
				got := runTableSchedule(t, tp.topo, md.cfg, int64(41+ti))
				want, ok := tableGoldens[tp.name+"/"+md.name]
				if !ok || got != want {
					t.Errorf("counts = %+v, golden %+v", got, want)
				}
			})
		}
	}
}

func runTableSchedule(t *testing.T, topo Topology, cfg Config, seed int64) tableCounts {
	t.Helper()
	schema := cfg.Schema
	n := MustNetwork(topo, cfg)
	defer n.Close()
	clients := make([]*Client, topo.N+3)
	for i := range clients {
		c, err := n.AttachClient(i % topo.N)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	type held struct {
		client int
		sub    *subscription.Subscription
	}
	var live []held
	rng := rand.New(rand.NewSource(seed))
	maxV := int(schema.MaxValue())
	within := func(lo, hi int) (uint32, uint32) {
		a := lo + rng.Intn(hi-lo+1)
		return uint32(a), uint32(a + rng.Intn(hi-a+1))
	}
	randSub := func() *subscription.Subscription {
		s := subscription.New(schema)
		// Four in ten new rectangles nest inside a live one, so covers,
		// suppression and cover removal are the common case.
		var parent *subscription.Subscription
		if len(live) > 0 && rng.Float64() < 0.4 {
			parent = live[rng.Intn(len(live))].sub
		}
		for i, attr := range schema.Attrs() {
			lo, hi := 0, maxV
			if parent != nil {
				lo, hi = int(parent.Range(i).Lo), int(parent.Range(i).Hi)
			}
			if rng.Float64() < 0.3 {
				if err := s.SetRange(attr, uint32(lo), uint32(hi)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			a, b := within(lo, hi)
			if err := s.SetRange(attr, a, b); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	subscribe := func(c int, s *subscription.Subscription) {
		if err := n.Subscribe(clients[c].ID, s); err != nil {
			t.Fatal(err)
		}
		live = append(live, held{c, s})
	}
	unsubscribe := func(i int) {
		h := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if err := n.Unsubscribe(clients[h.client].ID, h.sub); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 600; op++ {
		switch p := rng.Float64(); {
		case p < 0.30:
			subscribe(rng.Intn(len(clients)), randSub())
		case p < 0.42 && len(live) > 0:
			subscribe(rng.Intn(len(clients)), live[rng.Intn(len(live))].sub)
		case p < 0.65 && len(live) > 0:
			unsubscribe(rng.Intn(len(live)))
		default:
			e := make(subscription.Event, schema.NumAttrs())
			for a := range e {
				e[a] = uint32(rng.Intn(maxV + 1))
			}
			if len(live) > 0 && rng.Float64() < 0.5 {
				in := live[rng.Intn(len(live))].sub
				for a := range e {
					e[a], _ = within(int(in.Range(a).Lo), int(in.Range(a).Hi))
				}
			}
			if err := n.Publish(clients[rng.Intn(len(clients))].ID, e); err != nil {
				t.Fatal(err)
			}
			n.Drain()
			want := make([]bool, len(clients))
			for _, h := range live {
				if h.sub.Matches(e) {
					want[h.client] = true
				}
			}
			for c, cl := range clients {
				switch {
				case want[c] && (len(cl.Received) != 1 || !eventsEqual(cl.Received, []subscription.Event{e})):
					t.Fatalf("op %d: client %d received %v, want exactly %v", op, c, cl.Received, e)
				case !want[c] && len(cl.Received) != 0:
					t.Fatalf("op %d: client %d received %v, holds no match for %v", op, c, cl.Received, e)
				}
				cl.Received = cl.Received[:0]
			}
			checkRecordedCoverers(t, n, op)
			continue
		}
		n.Drain()
		checkRecordedCoverers(t, n, op)
	}
	got := tableCounts{m: n.Metrics(), rows: n.TableRows(), fwd: n.ForwardedEntries(), supp: n.SuppressedEntries()}
	if got.m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", got.m.ProtocolErrors)
	}
	for len(live) > 0 {
		unsubscribe(len(live) - 1)
		n.Drain()
	}
	if rows, fwd, supp := n.TableRows(), n.ForwardedEntries(), n.SuppressedEntries(); rows+fwd+supp != 0 {
		t.Fatalf("after retiring everything: %d table rows, %d forwarded, %d suppressed entries remain", rows, fwd, supp)
	}
	for _, b := range n.brokers {
		for k, st := range b.out {
			if len(st.sups.rows)+st.sups.indexed()+st.sups.heldBy.Len() != 0 {
				t.Fatalf("after retiring everything: link %d->%d keeps %d entries, %d positions, %d coverer lists",
					b.id, b.neighbors[k], len(st.sups.rows), st.sups.indexed(), st.sups.heldBy.Len())
			}
		}
		if live := len(b.rects.keys) - len(b.rects.free); live != 0 || b.rects.index.used != 0 {
			t.Fatalf("after retiring everything: broker %d keeps %d live handles, %d indexed rectangles", b.id, live, b.rects.index.used)
		}
	}
	return got
}

// checkRecordedCoverers checks the link invariant on every link: each
// suppressed entry's recorded coverer is a live forwarded id whose
// subscription covers it, and the per-coverer lists hold exactly the live
// entries — each once, none stale, no empty list kept. It also checks that
// every routing-table group's packed words decode back to its rows, and
// each broker's rectangle table (checkRectTable).
func checkRecordedCoverers(t *testing.T, n *Network, op int) {
	t.Helper()
	for _, b := range n.brokers {
		for gi := range b.table {
			if err := checkPackedRows(b, gi); err != nil {
				t.Fatalf("op %d broker %d group %v: %v", op, b.id, b.table[gi].from, err)
			}
		}
		if err := checkRectTable(b); err != nil {
			t.Fatalf("op %d broker %d: %v", op, b.id, err)
		}
		for k, j := range b.neighbors {
			st := b.out[k]
			forwarded := make(map[uint64]bool, st.forwarded())
			for h := range st.ids {
				if id, ok := st.fwdID(handle(h)); ok {
					forwarded[id] = true
				}
			}
			for i, e := range st.sups.rows {
				if at, ok := st.sups.find(e.h); !ok || at != i {
					t.Fatalf("op %d link %d->%d: entry %d indexed at (%d, %v)", op, b.id, j, i, at, ok)
				}
				if !forwarded[e.by] {
					t.Fatalf("op %d link %d->%d: %v recorded under %d, not a forwarded id", op, b.id, j, e.sub, e.by)
				}
				if cover, ok := st.fwd.Subscription(e.by); !ok || !cover.Covers(e.sub) {
					t.Fatalf("op %d link %d->%d: recorded coverer %v does not cover %v", op, b.id, j, cover, e.sub)
				}
				if list := st.sups.list(e.by); !slices.Contains(list, i) {
					t.Fatalf("op %d link %d->%d: entry %d missing from coverer %d's list %v", op, b.id, j, i, e.by, list)
				}
			}
			// Every entry sits on its own coverer's list, so equal totals
			// leave no room for a stale or duplicate element. Each list is
			// linked both ways: an entry's prev is the one before it.
			listed := 0
			for by := range st.sups.heldBy.All() {
				list := st.sups.list(by)
				if len(list) == 0 {
					t.Fatalf("op %d link %d->%d: empty list kept for coverer %d", op, b.id, j, by)
				}
				for pos, at := range list {
					if prev := st.sups.rows[at].prev; pos == 0 && prev != -1 || pos > 0 && int(prev) != list[pos-1] {
						t.Fatalf("op %d link %d->%d: coverer %d's list %v: entry %d links back to %d", op, b.id, j, by, list, at, prev)
					}
				}
				listed += len(list)
			}
			if rows := len(st.sups.rows); listed != rows || st.sups.indexed() != rows {
				t.Fatalf("op %d link %d->%d: %d entries, %d listed, %d indexed", op, b.id, j, rows, listed, st.sups.indexed())
			}
		}
	}
}

// TestPublishDrainAllocs guards the event path's allocation budget: routing
// one event through a 15-broker tree to a subscriber on every broker costs
// the copy Publish takes and the copy each receiving Client keeps —
// nothing per hop, per row or per link.
func TestPublishDrainAllocs(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(BalancedTree(15), Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	defer n.Close()
	clients := make([]*Client, n.NumBrokers())
	for i := range clients {
		c, err := n.AttachClient(i)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		for _, expr := range []string{"price <= 100", fmt.Sprintf("topic == %d", i), "price in [40,60]"} {
			if err := n.Subscribe(c.ID, subscription.MustParse(schema, expr)); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.Drain()
	e := subscription.Event{200, 50}
	publish := func() {
		if err := n.Publish(clients[7].ID, e); err != nil {
			t.Fatal(err)
		}
		if got := n.Drain(); got != len(clients) {
			t.Fatalf("drained %d messages, want one per broker", got)
		}
		for _, c := range clients {
			if len(c.Received) != 1 {
				t.Fatalf("client %d received %d events, want 1", c.ID, len(c.Received))
			}
			c.Received = c.Received[:0]
		}
	}
	publish() // size the queue and the Received slices
	if allocs, budget := testing.AllocsPerRun(100, publish), float64(1+len(clients)); allocs > budget {
		t.Fatalf("publish+drain allocates %.0f times, want at most %.0f (one event copy per publish and per delivery)", allocs, budget)
	}
}

// checkPackedRows checks group gi's layout: one reference count, one
// handle and words packed words of each bound per row, every count
// positive, and every row decoding back from its packed words to its
// handle's rectangle. checkRectTable checks that the handle places the row
// where it is.
func checkPackedRows(b *Broker, gi int) error {
	g := &b.table[gi]
	if n := len(g.refs); len(g.lo) != n*g.words || len(g.span) != n*g.words || len(g.handles) != n {
		return fmt.Errorf("%d rows, %d lo words, %d span words, %d indexed (%d words a row)", n, len(g.lo), len(g.span), len(g.handles), g.words)
	}
	for i, h := range g.handles {
		if h < 0 || int(h) >= len(b.rects.keys) || g.refs[i] < 1 {
			return fmt.Errorf("row %d holds handle %d of %d with %d references", i, h, len(b.rects.keys), g.refs[i])
		}
		if got, key := g.keyAt(i), b.rects.keys[h]; got != key {
			return fmt.Errorf("row %d decodes to %v, indexed as %v", i, got, key)
		}
	}
	return nil
}

// checkRectTable checks a broker's rectangle table: the handle index is
// the inverse of keys — it holds each live handle once, finds each live
// handle's rectangle at that handle, and holds no free one; every free
// handle is
// listed once and holds no source count, row or link state; every live
// handle's source count equals the groups holding a row for it, each row
// placed where its group keeps it, and something — a row or some link's
// state — still refers to it; and every link's per-handle slices span the
// table.
func checkRectTable(b *Broker) error {
	t := &b.rects
	free := make(map[handle]bool, len(t.free))
	for _, h := range t.free {
		if h < 0 || int(h) >= len(t.keys) || free[h] {
			return fmt.Errorf("free list %v: handle %d out of range or listed twice", t.free, h)
		}
		free[h] = true
	}
	indexed := make(map[handle]bool, t.index.used)
	for _, s := range t.index.slots {
		if s == 0 {
			continue
		}
		if h := handle(s - 1); h < 0 || int(h) >= len(t.keys) || free[h] || indexed[h] {
			return fmt.Errorf("index slot holds handle %d (free %v, twice %v) of %d", h, free[h], indexed[h], len(t.keys))
		} else {
			indexed[h] = true
		}
	}
	if len(indexed) != t.index.used || len(indexed)+len(free) != len(t.keys) {
		return fmt.Errorf("%d rectangles indexed (%d counted) and %d handles free, of %d", len(indexed), t.index.used, len(free), len(t.keys))
	}
	for h := range indexed {
		if got, ok := t.lookup(t.keys[h]); !ok || got != h {
			return fmt.Errorf("rectangle %v of handle %d looks up as (%d, %v)", t.keys[h], h, got, ok)
		}
	}
	if len(t.rows) != len(t.keys) {
		return fmt.Errorf("%d row lists for %d handles", len(t.rows), len(t.keys))
	}
	for k, st := range b.out {
		if len(st.ids) != len(t.keys) || len(st.sups.at) != len(t.keys) {
			return fmt.Errorf("link to %d: %d ids and %d positions for %d handles", b.neighbors[k], len(st.ids), len(st.sups.at), len(t.keys))
		}
	}
	held := make([]int, len(t.keys))
	for gi := range b.table {
		for i, h := range b.table[gi].handles {
			if k := t.placement(h, gi); k < 0 || int(t.rows[h][k].row) != i {
				return fmt.Errorf("group %d row %d holds handle %d, which places it at %v", gi, i, h, t.rows[h])
			}
			held[h]++
		}
	}
	for h := range t.keys {
		linked := false
		for _, st := range b.out {
			linked = linked || st.ids[h] != 0 || st.sups.at[h] != 0
		}
		switch sources := len(t.rows[h]); {
		case free[handle(h)] && (sources != 0 || linked):
			return fmt.Errorf("free handle %d: source count %d, link state %v", h, sources, linked)
		case !free[handle(h)] && sources != held[h]:
			return fmt.Errorf("handle %d: source count %d, %d groups hold a row", h, sources, held[h])
		case !free[handle(h)] && sources == 0 && !linked:
			return fmt.Errorf("handle %d (%v) is live with nothing referring to it", h, t.keys[h])
		}
	}
	return nil
}

// TestPackedRowsMatchSubscriptions holds a group's packed-word match to
// Subscription.Matches over its live rows, on every schema width from one
// attribute (the one-word loop) to MaxAttrs (three words), at bit widths
// up to MaxBits. Rows include full-domain bounds, lo = 0, hi = 2^k−1 and
// zero-width ranges; events sit at each row's lo, hi, lo−1 and hi+1 on
// every attribute — below 0 and past the domain included, and past the
// 16 bits a lane holds — and adds
// interleave with swap-removes, with the answer checked after each.
func TestPackedRowsMatchSubscriptions(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if len(names) != subscription.MaxAttrs {
		t.Fatalf("test names %d attributes, MaxAttrs is %d", len(names), subscription.MaxAttrs)
	}
	for d := 1; d <= subscription.MaxAttrs; d++ {
		for _, bits := range []int{1, 7, subscription.MaxBits} {
			t.Run(fmt.Sprintf("d%d/k%d", d, bits), func(t *testing.T) {
				checkPackedGroup(t, subscription.MustSchema(bits, names[:d]...), int64(100*d+bits))
			})
		}
	}
}

func checkPackedGroup(t *testing.T, schema *subscription.Schema, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	maxV := schema.MaxValue()
	b := &Broker{net: &Network{cfg: Config{Schema: schema}}, rects: rectTable{index: rectIndex{hash: hashRect}}}
	b.addIface(iface{kind: ifClient, id: 0}, nil)
	g := &b.table[0]
	if want := (schema.NumAttrs() + 2) / 3; g.words != want {
		t.Fatalf("%d attributes pack into %d words a row, want %d", schema.NumAttrs(), g.words, want)
	}

	bound := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return maxV
		}
		return uint32(rng.Int63n(int64(maxV) + 1))
	}
	randSub := func() *subscription.Subscription {
		s := subscription.New(schema)
		for a, name := range schema.Attrs() {
			lo, hi := bound(), bound()
			switch {
			case rng.Intn(5) == 0:
				hi = lo // zero width
			case rng.Intn(5) == 0 && a > 0:
				continue // unconstrained: [0, 2^k−1]
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			if err := s.SetRange(name, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	inside := func(s *subscription.Subscription) subscription.Event {
		e := make(subscription.Event, schema.NumAttrs())
		for a := range e {
			r := s.Range(a)
			e[a] = r.Lo + uint32(rng.Int63n(int64(r.Hi-r.Lo)+1))
		}
		return e
	}

	live := map[subscription.Rect]*subscription.Subscription{}
	var keys []subscription.Rect // live rectangles, for picking one
	check := func(op int, e subscription.Event) {
		t.Helper()
		want := false
		for _, s := range live {
			if s.Matches(e) {
				want = true
				break
			}
		}
		ev := packEvent(e)
		if got := g.matches(&ev); got != want {
			t.Fatalf("op %d: %d live rows answer %v for %v, Subscription.Matches says %v", op, len(live), got, e, want)
		}
	}
	// probe asks about the edges of s on every attribute, the other
	// attributes inside s, plus one point anywhere.
	probe := func(op int, s *subscription.Subscription) {
		t.Helper()
		for a := 0; a < schema.NumAttrs(); a++ {
			r := s.Range(a)
			// r.Lo | 1<<22 is out of the domain but for bits a lane
			// cannot hold: unclamped, they would spill past it.
			for _, v := range []uint32{r.Lo, r.Hi, r.Lo - 1, r.Hi + 1, r.Lo | 1<<22} {
				e := inside(s)
				e[a] = v
				check(op, e)
			}
		}
		check(op, inside(subscription.New(schema)))
	}

	for op := 0; op < 300; op++ {
		if len(keys) == 0 || rng.Intn(3) > 0 {
			s := randSub()
			if k := s.Rect(); live[k] == nil {
				live[k] = s
				keys = append(keys, k)
			}
			b.addRow(0, b.intern(s.Rect()))
			probe(op, s)
		} else {
			i := rng.Intn(len(keys))
			k := keys[i]
			s := live[k]
			h, mapped := b.rects.lookup(k)
			if removed, found := b.dropRow(0, h); !mapped || !found {
				t.Fatalf("op %d: live row %v not found", op, s)
			} else if removed {
				b.release(h)
				delete(live, k)
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
			}
			probe(op, s)
		}
		if len(keys) > 0 {
			probe(op, live[keys[rng.Intn(len(keys))]])
		}
		if err := checkPackedRows(b, 0); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if err := checkRectTable(b); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

// TestRescreenAllocs guards the retraction path's allocation budget: on a
// warm network, retracting a cover whose twenty recorded members all stay
// suppressed under a second cover re-screens them and moves them to the
// second cover's list. The rectangle handles, the re-screen's scratch and
// the coverer lists are reused from the earlier rounds, so the only
// allocation left is CoverQueryBatch's result slice — one per retraction.
func TestRescreenAllocs(t *testing.T) {
	schema := testSchema()
	n := MustNetwork(Line(2), Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear})
	defer n.Close()
	c, _ := n.AttachClient(0)
	subscribe := func(s *subscription.Subscription) {
		if err := n.Subscribe(c.ID, s); err != nil {
			t.Fatal(err)
		}
		n.Drain()
	}
	// Neither cover covers the other; both cover every member.
	covers := []*subscription.Subscription{
		subscription.MustParse(schema, "topic in [0,100] && price in [0,200]"),
		subscription.MustParse(schema, "topic in [0,50] && price in [0,255]"),
	}
	for _, s := range covers {
		subscribe(s)
	}
	const members = 20
	for i := 1; i <= members; i++ {
		subscribe(subscription.MustParse(schema, fmt.Sprintf("topic in [%d,%d] && price in [%d,%d]", i, i+10, i, i+20)))
	}
	b0 := n.brokers[0]
	st := b0.link(1)
	// retract withdraws the cover the members are recorded under, measuring
	// the allocations of the Unsubscribe and its Drain alone, and
	// re-subscribes it unmeasured.
	var before, after runtime.MemStats
	retract := func() uint64 {
		t.Helper()
		var holder *subscription.Subscription
		for _, s := range covers {
			if id, _ := b0.forwardedID(1, s); len(st.sups.list(id)) == members {
				holder = s
			}
		}
		if holder == nil {
			t.Fatal("no cover holds every member")
		}
		sent := n.Metrics().SubscribeMsgs
		runtime.ReadMemStats(&before)
		if err := n.Unsubscribe(c.ID, holder); err != nil {
			t.Fatal(err)
		}
		n.Drain()
		runtime.ReadMemStats(&after)
		if got := n.Metrics().SubscribeMsgs - sent; got != 0 || n.SuppressedEntries() != members {
			t.Fatalf("retraction re-forwarded %d members and left %d suppressed, want 0 and %d", got, n.SuppressedEntries(), members)
		}
		subscribe(holder)
		return after.Mallocs - before.Mallocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 4 { // grow the queue, the scratch and both coverer lists
		retract()
	}
	const rounds, budget = 50, 1 // CoverQueryBatch's result slice
	var allocs uint64
	for range rounds {
		allocs += retract()
	}
	if got := float64(allocs) / rounds; got > budget {
		t.Fatalf("a retraction that re-screens %d members allocates %.2f times, want at most %d (CoverQueryBatch's result slice)", members, got, budget)
	}
	if m := n.Metrics(); m.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", m.ProtocolErrors)
	}
}

// The accessors below read a broker's link state by neighbor and
// subscription, for tests.

// link returns the broker's state toward neighbor j.
func (b *Broker) link(j int) *neighborState { return b.out[slices.Index(b.neighbors, j)] }

// forwardedID returns the forwarded-set id the link toward j holds for
// s's rectangle.
func (b *Broker) forwardedID(j int, s *subscription.Subscription) (uint64, bool) {
	h, ok := b.rects.lookup(s.Rect())
	if !ok {
		return 0, false
	}
	return b.link(j).fwdID(h)
}

// suppressedBy returns the coverer recorded for s's rectangle in the
// suppressed table of the link toward j.
func (b *Broker) suppressedBy(j int, s *subscription.Subscription) (uint64, bool) {
	h, ok := b.rects.lookup(s.Rect())
	if !ok {
		return 0, false
	}
	sups := &b.link(j).sups
	at, ok := sups.find(h)
	if !ok {
		return 0, false
	}
	return sups.rows[at].by, true
}

// rowRefs returns the references on the row for s's rectangle in the
// group of interface from.
func (b *Broker) rowRefs(from iface, s *subscription.Subscription) (int, bool) {
	h, ok := b.rects.lookup(s.Rect())
	if !ok {
		return 0, false
	}
	gi := b.group(from)
	k := b.rects.placement(h, gi)
	if k < 0 {
		return 0, false
	}
	return b.table[gi].refs[b.rects.rows[h][k].row], true
}

// forwarded counts the rectangles forwarded on the link.
func (st *neighborState) forwarded() int {
	n := 0
	for _, fwd := range st.ids {
		if fwd != 0 {
			n++
		}
	}
	return n
}

// list returns the positions on by's list, head first. A walk that leaves
// the table, or outlasts it (a cycle), stops there.
func (t *suppressedTable) list(by uint64) []int {
	head, ok := t.heldBy.Get(by)
	if !ok {
		return nil
	}
	var out []int
	for at := int(head); at >= 0 && at < len(t.rows) && len(out) <= len(t.rows); at = int(t.rows[at].next) {
		out = append(out, at)
	}
	return out
}

// indexed counts the rectangles holding a suppressed-entry position.
func (t *suppressedTable) indexed() int {
	n := 0
	for _, p := range t.at {
		if p != 0 {
			n++
		}
	}
	return n
}

// keyAt decodes row i's rectangle from its packed bounds.
func (g *ifaceRows) keyAt(i int) subscription.Rect {
	var k subscription.Rect
	for a := range min(g.words*lanesPerWord, len(k)) {
		w, sh := lane(a)
		lo := uint32(g.lo[i*g.words+w]>>sh) & laneValue
		hi := lo + uint32(g.span[i*g.words+w]>>sh)&laneValue
		k[a] = lo<<subscription.MaxBits | hi
	}
	return k
}
