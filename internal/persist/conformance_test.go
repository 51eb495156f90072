package persist_test

import (
	"fmt"
	"slices"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
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
				Workers:  2,
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
				Shards:   4, Workers: 2,
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
	schema := coretest.Schema()
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			dir := t.TempDir()
			st, err := persist.Open(dir, schema, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := coretest.Histories(t, func(t *testing.T) (core.Provider, func()) {
				d, err := st.Durable("", engine.MustNew(engine.Config{Detector: core.Config{Schema: schema, Mode: core.ModeExact}, Shards: 4, Workers: 2}))
				if err != nil {
					t.Fatal(err)
				}
				return d, nil
			}, seed)
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
