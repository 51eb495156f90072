package engine

import (
	"fmt"
	"slices"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// TestBulkLoadBalancesSlices: a default engine places its slice
// boundaries from the batch it is loaded with. The uniform key-prefix
// table this replaced put 16 338 of the benchmark's 16 384 parents in its
// last slice, and every hotspot in one — skew in the thousands. The
// layout must also be a pure function of the load, and must not show in
// any answer: every query resolves to the subscription, the cut and the
// walk length a one-slice engine gives (ids encode their stripe, so they
// are compared through the subscriptions they resolve to).
func TestBulkLoadBalancesSlices(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	planted, err := workload.Covers(workload.CoverSpec{Schema: schema, N: 16384, SlackFrac: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var parents, children []*subscription.Subscription
	for _, p := range planted {
		parents = append(parents, p.Parent)
		children = append(children, p.Child)
	}
	uniform, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: 2048, WidthFrac: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hot shapes come round three times, so the third touch is a memo
	// replay; miss shapes are distinct.
	hot := slices.Concat(children[:256], children[:256], children[:256])
	for _, tc := range []struct {
		name       string
		population []*subscription.Subscription
		queries    []*subscription.Subscription
	}{
		{"planted-parents", parents, append(hot, uniform...)},
		{"hotspot", hotspotSubs(t, schema, 8000, 31), append(hotspotSubs(t, schema, 512, 32), uniform[:512]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det := core.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3, MaxCubes: 50000, TrackCovered: true}
			build := func(shards int) *Engine {
				e := MustNew(Config{Detector: det, Shards: shards})
				t.Cleanup(e.Close)
				if _, err := e.InsertBatch(tc.population); err != nil {
					t.Fatal(err)
				}
				return e
			}
			e, twin, one := build(0), build(0), build(1)
			if skew := e.skew(); skew > 1.5 {
				t.Fatalf("bulk load left skew %.2f: primary %v, mirror %v", skew, e.idx.ShardSizes(), e.mirror.ShardSizes())
			}
			if ps := e.Stats(); ps.BoundaryMoves != 0 {
				t.Fatalf("the load needed %d boundary moves on top of its own table", ps.BoundaryMoves)
			}
			if a, b := e.idx.Boundaries(), twin.idx.Boundaries(); !slices.Equal(a, b) {
				t.Fatalf("two loads of one set chose different tables:\n%v\n%v", a, b)
			}
			if a, b := e.mirror.Boundaries(), twin.mirror.Boundaries(); !slices.Equal(a, b) {
				t.Fatalf("two loads of one set chose different mirror tables:\n%v\n%v", a, b)
			}

			type answer struct {
				found bool
				sub   string
				path  dominance.Path
				steps int
			}
			ask := func(e *Engine, q *subscription.Subscription) answer {
				id, found, st, err := e.FindCover(q)
				if err != nil {
					t.Fatal(err)
				}
				a := answer{found: found, path: st.Path, steps: st.WalkSteps}
				if found {
					s, ok := e.Subscription(id)
					if !ok {
						t.Fatalf("cover id %d does not resolve", id)
					}
					a.sub = s.String()
				}
				return a
			}
			hits := 0
			for i, q := range tc.queries {
				got, want := ask(e, q), ask(one, q)
				if got != want {
					t.Fatalf("query %d (%v): %d slices answer %+v, one slice %+v", i, q, e.NumShards(), got, want)
				}
				if got.found {
					hits++
				}
			}
			if hits == 0 || hits == len(tc.queries) {
				t.Fatalf("%d of %d queries hit: both outcomes are needed", hits, len(tc.queries))
			}
		})
	}
}

// TestDefaultEngineAcceptsEverySchema: the default engine builds on every
// schema subscription.NewSchema accepts. The uniform prefix table refused
// the narrow ones ("8 shards exceed the 4 key-prefix slices" on one 1-bit
// attribute); with boundaries taken from data a slice that owns no key is
// legal. On the 1-bit schemas, small enough to enumerate, every
// representable rectangle is inserted in turn and every representable
// query is checked against a scan of what is held so far.
func TestDefaultEngineAcceptsEverySchema(t *testing.T) {
	for _, bits := range []int{1, 2, 16} {
		for _, attrs := range [][]string{{"a"}, {"a", "b"}} {
			t.Run(fmt.Sprintf("bits=%d/attrs=%d", bits, len(attrs)), func(t *testing.T) {
				schema := subscription.MustSchema(bits, attrs...)
				e, err := New(Config{Detector: core.Config{Schema: schema}})
				if err != nil {
					t.Fatalf("default engine: %v", err)
				}
				e.Close()
				if bits != 1 {
					return
				}
				e, err = New(Config{Detector: core.Config{Schema: schema, Mode: core.ModeExact}})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				// Every rectangle over {[0,0], [0,1], [1,1]} per attribute.
				ranges := [][2]uint32{{0, 0}, {0, 1}, {1, 1}}
				all := []*subscription.Subscription{subscription.New(schema)}
				for _, attr := range attrs {
					var next []*subscription.Subscription
					for _, s := range all {
						for _, r := range ranges {
							c := s.Clone()
							if err := c.SetRange(attr, r[0], r[1]); err != nil {
								t.Fatal(err)
							}
							next = append(next, c)
						}
					}
					all = next
				}
				for held, s := range all {
					for _, q := range all {
						want := slices.ContainsFunc(all[:held], func(h *subscription.Subscription) bool { return h.Covers(q) })
						id, found, _, err := e.FindCover(q)
						if err != nil {
							t.Fatal(err)
						}
						if found != want {
							t.Fatalf("holding %v: FindCover(%v) = %v, a scan says %v", all[:held], q, found, want)
						}
						if got, ok := e.Subscription(id); found && (!ok || !got.Covers(q)) {
							t.Fatalf("FindCover(%v) named %v, which does not cover it", q, got)
						}
					}
					if _, err := e.Insert(s); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
