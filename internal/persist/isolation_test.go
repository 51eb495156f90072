package persist_test

import (
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/subscription"
)

// TestHeldSubscriptionIsIsolated hands subscriptions to each provider
// construction through each write op, then widens the caller's copies to
// the whole domain. What the provider holds is what it was handed:
// Subscription and Enumerate return the originals, FindCover answers for
// the original rectangles (a probe only the widened copies would cover
// misses), and Remove finds each entry under its original key.
func TestHeldSubscriptionIsIsolated(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	cfg := core.Config{Schema: schema, Mode: core.ModeExact}
	originals := []*subscription.Subscription{
		subscription.MustParse(schema, "volume in [100,200] && price in [300,400]"),
		subscription.MustParse(schema, "volume in [600,700] && price in [50,90]"),
	}
	inside := []*subscription.Subscription{
		subscription.MustParse(schema, "volume in [150,160] && price in [350,360]"),
		subscription.MustParse(schema, "volume in [650,660] && price in [60,70]"),
	}
	outside := subscription.MustParse(schema, "volume in [400,500] && price in [500,600]")

	constructions := map[string]func(t *testing.T) core.Provider{
		"engine":   func(*testing.T) core.Provider { return engine.MustNew(engine.Config{Detector: cfg}) },
		"detector": func(*testing.T) core.Provider { return core.MustNew(cfg) },
		"durable": func(t *testing.T) core.Provider {
			st, err := persist.Open(t.TempDir(), schema, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			d, err := st.Durable("", engine.MustNew(engine.Config{Detector: cfg}))
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	writes := map[string]func(p core.Provider, subs []*subscription.Subscription) ([]uint64, error){
		"Add": func(p core.Provider, subs []*subscription.Subscription) ([]uint64, error) {
			var ids []uint64
			for _, s := range subs {
				id, _, _, err := p.Add(s)
				if err != nil {
					return nil, err
				}
				ids = append(ids, id)
			}
			return ids, nil
		},
		"Insert": func(p core.Provider, subs []*subscription.Subscription) ([]uint64, error) {
			var ids []uint64
			for _, s := range subs {
				id, err := p.Insert(s)
				if err != nil {
					return nil, err
				}
				ids = append(ids, id)
			}
			return ids, nil
		},
		"InsertBatch": func(p core.Provider, subs []*subscription.Subscription) ([]uint64, error) {
			return p.InsertBatch(subs)
		},
		"AddBatch": func(p core.Provider, subs []*subscription.Subscription) ([]uint64, error) {
			var ids []uint64
			for _, r := range p.AddBatch(subs) {
				if r.Err != nil {
					return nil, r.Err
				}
				ids = append(ids, r.ID)
			}
			return ids, nil
		},
	}
	for cname, build := range constructions {
		for wname, write := range writes {
			t.Run(cname+"/"+wname, func(t *testing.T) {
				p := build(t)
				defer p.Close()
				caller := make([]*subscription.Subscription, len(originals))
				for i, s := range originals {
					caller[i] = s.Clone()
				}
				ids, err := write(p, caller)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range caller {
					for _, attr := range schema.Attrs() {
						if err := s.SetRange(attr, 0, schema.MaxValue()); err != nil {
							t.Fatal(err)
						}
					}
				}

				held, err := coretest.HeldOf(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(held) != len(originals) {
					t.Fatalf("Enumerate holds %d subscriptions, want %d", len(held), len(originals))
				}
				enumerated := map[uint64]*subscription.Subscription{}
				for _, h := range held {
					enumerated[h.ID] = h.Rect.Subscription(p.Schema())
				}
				for i, id := range ids {
					if got, ok := p.Subscription(id); !ok || !got.Equal(originals[i]) {
						t.Errorf("Subscription(%d) = %v, %v; want %v", id, got, ok, originals[i])
					}
					if got := enumerated[id]; got == nil || !got.Equal(originals[i]) {
						t.Errorf("Enumerate holds %v under %d, want %v", got, id, originals[i])
					}
					if got, found, _, err := p.FindCover(inside[i]); err != nil || !found || got != id {
						t.Errorf("FindCover(%v) = %d, %v, %v; want %d", inside[i], got, found, err, id)
					}
				}
				if got, found, _, err := p.FindCover(outside); err != nil || found {
					t.Errorf("FindCover(%v) = %d, %v, %v; want a miss: only the widened copies cover it", outside, got, found, err)
				}
				for _, id := range ids {
					if err := p.Remove(id); err != nil {
						t.Errorf("Remove(%d): %v", id, err)
					}
				}
				if n := p.Len(); n != 0 {
					t.Errorf("Len after removing every id = %d, want 0", n)
				}
			})
		}
	}
}
