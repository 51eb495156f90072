package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/sfc"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// TestEngineProviderConformanceWideKeys runs the Provider battery on a
// universe whose keys do not fit one word (4 attributes × 10 bits, d·k =
// 80), where the stripes hold rectangles instead of keys.
func TestEngineProviderConformanceWideKeys(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price", "size", "rate")
	for name, det := range map[string]core.Config{
		"sfc-approx":   {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3},
		"linear-exact": {Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
	} {
		t.Run(name, func(t *testing.T) {
			coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
				e := MustNew(Config{Detector: det, Shards: 4, Workers: 4})
				if e.wordCurve != nil {
					t.Fatal("a d·k = 80 engine holds one-word keys")
				}
				return e
			})
		})
	}
}

// edgeRects returns every rectangle of schema whose attributes each take
// one of the domain-edge ranges: [0,0], [max,max], [0,max], a point inside,
// and the halves below and above it.
func edgeRects(schema *subscription.Schema) []*subscription.Subscription {
	max := schema.MaxValue()
	mid := max / 3
	ranges := [][2]uint32{{0, 0}, {max, max}, {0, max}, {mid, mid}, {0, mid}, {mid, max}}
	names := schema.Attrs()
	n := len(names)
	combos := 1
	for range n {
		combos *= len(ranges)
	}
	out := make([]*subscription.Subscription, 0, combos)
	for c := range combos {
		s := subscription.New(schema)
		for i, v := 0, c; i < n; i, v = i+1, v/len(ranges) {
			r := ranges[v%len(ranges)]
			if err := s.SetRange(names[i], r[0], r[1]); err != nil {
				panic(err)
			}
		}
		out = append(out, s)
	}
	return out
}

// TestEngineHeldValueForms holds both values a stripe keeps to the
// rectangles inserted, on the workloads' universe, the widest one-word
// universe and the narrowest wide one: Subscription, Enumerate, Holds,
// Remove and a linear FindCover (whose scan tests held keys by mask
// dominance) agree with the rectangles and with Rect.Covers, for
// rectangles at the domain's edges.
func TestEngineHeldValueForms(t *testing.T) {
	for _, tc := range []struct {
		attrs, bits int
		words       bool
	}{
		{2, 10, true},  // d·k = 40, the workloads' universe
		{2, 16, true},  // d·k = 64, the widest one-word universe
		{3, 11, false}, // d·k = 66, the narrowest wide one
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.attrs, tc.bits), func(t *testing.T) {
			names := []string{"a", "b", "c"}[:tc.attrs]
			schema := subscription.MustSchema(tc.bits, names...)
			subs := edgeRects(schema)
			e := MustNew(Config{
				Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
				Shards:   4, Workers: 2,
			})
			defer e.Close()
			if got := e.wordCurve != nil; got != tc.words {
				t.Fatalf("stripes hold keys: %v, want %v", got, tc.words)
			}
			// Half arrive one at a time, half in a batch.
			ids := make([]uint64, len(subs))
			half := len(subs) / 2
			for i, s := range subs[:half] {
				id, err := e.Insert(s)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			batch, err := e.InsertBatch(subs[half:])
			if err != nil {
				t.Fatal(err)
			}
			copy(ids[half:], batch)
			held := make(map[uint64]*subscription.Subscription, len(subs))
			for i, id := range ids {
				held[id] = subs[i]
			}
			check := func(when string) {
				t.Helper()
				dump, err := e.Enumerate()
				if err != nil {
					t.Fatal(err)
				}
				if len(dump) != len(held) || e.Len() != len(held) {
					t.Fatalf("%s: Enumerate %d, Len %d, want %d", when, len(dump), e.Len(), len(held))
				}
				for _, h := range dump {
					if want, ok := held[h.ID]; !ok || h.Rect != want.Rect() {
						t.Fatalf("%s: Enumerate holds %d = %v, want %v", when, h.ID, h.Rect, want)
					}
				}
				for id, want := range held {
					if got, ok := e.Subscription(id); !ok || !got.Equal(want) {
						t.Fatalf("%s: Subscription(%d) = %v, %v; want %v", when, id, got, ok, want)
					}
					if !e.Holds(id) {
						t.Fatalf("%s: Holds(%d) = false", when, id)
					}
				}
				for _, q := range subs {
					var want uint64
					found := false
					for id, s := range held {
						if s.Rect().Covers(q.Rect()) && (!found || id < want) {
							want, found = id, true
						}
					}
					id, ok, _, err := e.FindCover(q)
					if err != nil || ok != found || (found && id != want) {
						t.Fatalf("%s: FindCover(%v) = (%d,%v,%v), want (%d,%v)", when, q, id, ok, err, want, found)
					}
				}
			}
			check("loaded")
			for i, id := range ids {
				if i%3 != 0 {
					continue
				}
				if err := e.Remove(id); err != nil {
					t.Fatalf("Remove(%d): %v", id, err)
				}
				if e.Holds(id) {
					t.Fatalf("Holds(%d) after its Remove", id)
				}
				if err := e.Remove(id); err == nil {
					t.Fatalf("a second Remove(%d) succeeded", id)
				}
				delete(held, id)
			}
			check("after removes")
		})
	}
}

// FuzzHeldKeyWord holds the one-word key a stripe keeps to the
// subscription it stands for, on any one-word universe (β attributes of k
// bits, 2βk <= 64) and any rectangles: a key decodes to a subscription
// Equal to the one encoded, and the mask dominance test on two keys — the
// linear scan's cover test — equals Rect.Covers.
func FuzzHeldKeyWord(f *testing.F) {
	f.Add(uint8(1), uint8(9), []byte{})
	f.Add(uint8(1), uint8(15), []byte{0xff, 0xff, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0, 0})
	f.Add(uint8(7), uint8(0), []byte{1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1})
	f.Add(uint8(3), uint8(3), []byte("domain edges and the middle"))
	schemas := map[[2]int]*subscription.Schema{}
	names := make([]string, subscription.MaxAttrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	f.Fuzz(func(t *testing.T, attrs, bits uint8, data []byte) {
		beta := 1 + int(attrs)%subscription.MaxAttrs
		k := 1 + int(bits)%min(subscription.MaxBits, 32/beta)
		schema := schemas[[2]int{beta, k}]
		if schema == nil {
			schema = subscription.MustSchema(k, names[:beta]...)
			schemas[[2]int{beta, k}] = schema
		}
		curve := sfc.MustZ(schema.Dims(), k)
		// Two rectangles, each attribute's ends read as 16-bit words off
		// the input (zeros once it runs out) and cut to the domain.
		rect := func(off int) *subscription.Subscription {
			s := subscription.New(schema)
			for i := range beta {
				var v [2]uint32
				for j := range v {
					var w [2]byte
					if p := off + 4*i + 2*j; p < len(data) {
						copy(w[:], data[p:])
					}
					v[j] = uint32(binary.LittleEndian.Uint16(w[:])) & schema.MaxValue()
				}
				lo, hi := min(v[0], v[1]), max(v[0], v[1])
				if err := s.SetRange(names[i], lo, hi); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}
		r, o := rect(0), rect(4*beta)
		for _, s := range []*subscription.Subscription{r, o} {
			k := curve.KeyWord(s.Point())
			if got := keySubscription(schema, curve, k); !got.Equal(s) {
				t.Fatalf("key %#x of %v decodes to %v", k, s, got)
			}
		}
		for _, p := range [][2]*subscription.Subscription{{r, o}, {o, r}, {r, r}} {
			a, b := curve.KeyWord(p[0].Point()), curve.KeyWord(p[1].Point())
			if got, want := sfc.DominatesWord(schema.Dims(), a, b), p[0].Rect().Covers(p[1].Rect()); got != want {
				t.Fatalf("%v over %v: key dominance %v, Rect.Covers %v", p[0], p[1], got, want)
			}
		}
	})
}

// TestEngineBytesPerSubscription bounds what a default engine holds a
// subscription in: 131 072 subscriptions bulk-loaded into the workloads'
// universe grow the live heap by at most 64 B each. Their id tables hold
// one key word a subscription where they held a 32-byte rectangle (a
// 16-byte slot where they had a 40-byte one): ~58 B where it was ~106.
func TestEngineBytesPerSubscription(t *testing.T) {
	const n = 131072
	schema := subscription.MustSchema(10, "volume", "price")
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: n, Dist: workload.DistUniform, WidthFrac: 0.05, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	load := func() *Engine {
		e := MustNew(Config{Detector: core.Config{Schema: schema}})
		if _, err := e.InsertBatch(subs); err != nil {
			t.Fatal(err)
		}
		return e
	}
	load().Close() // the first engine also builds what later ones share
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	e.Close()
	runtime.KeepAlive(subs)
	perSub := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("live heap per subscription: %.1f B", perSub)
	if perSub > 64 {
		t.Fatalf("a bulk-loaded engine holds %.1f B a subscription, want <= 64", perSub)
	}
	for i := range e.stores {
		if e.stores[i].rects.Len() != 0 {
			t.Fatalf("stripe %d of a one-word engine holds rectangles", i)
		}
	}
}
