package persist_test

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/subscription"
)

// TestDurableProviderConformance runs the shared core.Provider battery
// against the durable wrapper over both in-process backends: wrapping
// must change nothing about Provider semantics (and the battery's
// persister-snapshot subtest exercises the Snapshot the wrapper serves).
func TestDurableProviderConformance(t *testing.T) {
	schema := coretest.Schema()
	backends := map[string]func(t *testing.T) core.Provider{
		"detector": func(t *testing.T) core.Provider {
			return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact})
		},
		"engine-prefix": func(t *testing.T) core.Provider {
			return engine.MustNew(engine.Config{
				Detector: core.Config{Schema: schema, Mode: core.ModeExact},
				Shards:   4,
			})
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
				st, err := persist.Open(t.TempDir(), schema, persist.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				d, err := st.Durable("", mk(t))
				if err != nil {
					t.Fatal(err)
				}
				return d
			})
		})
	}
}

// TestDurablePersistenceConformance runs the snapshot→restore→re-run
// battery: one data dir per subtest, reopened (store and provider both)
// between the populate and verify halves.
func TestDurablePersistenceConformance(t *testing.T) {
	schema := coretest.Schema()
	backends := map[string]func(t *testing.T) core.Provider{
		"detector": func(t *testing.T) core.Provider {
			return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact})
		},
		"engine-prefix": func(t *testing.T) core.Provider {
			return engine.MustNew(engine.Config{
				Detector: core.Config{Schema: schema, Mode: core.ModeExact},
				Shards:   4,
			})
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var st *persist.Store
			coretest.RunPersistenceConformance(t, schema, func(t *testing.T) core.Provider {
				if st != nil {
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				st, err = persist.Open(dir, schema, persist.Options{})
				if err != nil {
					t.Fatal(err)
				}
				d, err := st.Durable("", mk(t))
				if err != nil {
					t.Fatal(err)
				}
				return d
			})
			if st != nil {
				st.Close()
			}
		})
	}
}

// TestDurableHistories holds durable histories, snapshots drawn among
// the writes, to the provider contract — the log counted one record per
// successful write — and the reopened store to the history's model.
func TestDurableHistories(t *testing.T) {
	durableHistories(t, []int64{1, 2}, false, func(schema *subscription.Schema) core.Provider {
		return engine.MustNew(engine.Config{Detector: core.Config{Schema: schema, Mode: core.ModeExact}, Shards: 4})
	})
}

// TestDurableHistoriesRefusedDetector and
// TestDurableHistoriesRefusedEngine run the histories with one WAL write
// in seven refused (coretest.ErrInjected): a write the log refuses must be
// invisible throughout — no query, lookup or listing sees an add it
// refused, and a remove it refused leaves its id held — and the reopened
// store holds the model. The Detector is a broker's durable link, the
// four-slice engine a daemon's.
func TestDurableHistoriesRefusedDetector(t *testing.T) {
	durableHistories(t, []int64{1, 2, 3, 4, 5, 6, 7, 8}, true, func(schema *subscription.Schema) core.Provider {
		return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact})
	})
}

func TestDurableHistoriesRefusedEngine(t *testing.T) {
	durableHistories(t, []int64{1, 2, 3, 4, 5, 6, 7, 8}, true, func(schema *subscription.Schema) core.Provider {
		return engine.MustNew(engine.Config{Detector: core.Config{Schema: schema, Mode: core.ModeExact}, Shards: 4})
	})
}

// durableHistories runs coretest.Histories on a durable wrapper over
// inner's provider, one subtest a seed, refusing every seventh WAL write
// if refuse is set, then reopens the store and compares its held set with
// the history's model.
func durableHistories(t *testing.T, seeds []int64, refuse bool, inner func(*subscription.Schema) core.Provider) {
	schema := coretest.Schema()
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			dir := t.TempDir()
			var opts persist.Options
			var writes atomic.Int64
			if refuse {
				opts.WriteHook = func(string, int64, []byte) error {
					if writes.Add(1)%7 == 0 {
						return coretest.ErrInjected
					}
					return nil
				}
			}
			st, err := persist.Open(dir, schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := coretest.Histories(t, func(t *testing.T) (core.Provider, func()) {
				d, err := st.Durable("", inner(schema))
				if err != nil {
					t.Fatal(err)
				}
				return d, nil
			}, seed)
			if refuse && writes.Load() < 7 {
				t.Fatalf("seed %d: %d WAL writes, none refused", seed, writes.Load())
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = persist.Open(dir, schema, persist.Options{}); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := st.Held(""); !slices.Equal(got, want) {
				t.Fatalf("seed %d: the reopened store holds %d subscriptions, not the history's %d", seed, len(got), len(want))
			}
		})
	}
}
