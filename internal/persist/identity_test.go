package persist

import (
	"cmp"
	"slices"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
)

// One id space: a durable provider's ids are its wrapped provider's ids,
// in every incarnation. These tests hold the wrapped provider itself —
// not the wrapper's answers — to that.

func newTestEngine(schema *subscription.Schema, shards int) *engine.Engine {
	return engine.MustNew(engine.Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact},
		Shards:   shards,
	})
}

func newTestDetector(schema *subscription.Schema) core.Provider {
	return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact})
}

func mustEnumerate(t *testing.T, p core.Provider) []core.Held {
	t.Helper()
	h, err := coretest.HeldOf(p)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func requireSameHeld(t *testing.T, when string, got, want []core.Held) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d subscriptions held, want %d", when, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Rect != want[i].Rect {
			t.Fatalf("%s: entry %d is id %d, want id %d with the same subscription", when, i, got[i].ID, want[i].ID)
		}
	}
}

// family returns rect(lo..hi-1).
func family(t *testing.T, schema *subscription.Schema, lo, hi int) []*subscription.Subscription {
	t.Helper()
	var out []*subscription.Subscription
	for i := lo; i < hi; i++ {
		out = append(out, rect(t, schema, i))
	}
	return out
}

// churn drives every write path over the anti-chain family — Add, Insert,
// AddBatch, InsertBatch, Remove, RemoveBatch — and returns the ids the
// provider minted, in call order, and then each member's FindCover answer
// (0 for a miss).
func churn(t *testing.T, schema *subscription.Schema, p core.Provider) (ids, answers []uint64) {
	t.Helper()
	for i := 0; i < 4; i++ {
		id, _, _, err := p.Add(rect(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	id, err := p.Insert(rect(t, schema, 4))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	for _, r := range p.AddBatch(family(t, schema, 5, 10)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		ids = append(ids, r.ID)
	}
	batch, err := p.InsertBatch(family(t, schema, 10, familyK+1))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, batch...)
	if err := p.Remove(ids[2]); err != nil {
		t.Fatal(err)
	}
	for _, err := range p.RemoveBatch([]uint64{ids[7], ids[familyK]}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < familyK; i++ {
		cover, _, _, err := p.FindCover(inner(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, cover)
	}
	return ids, answers
}

// TestDurableMintsItsEnginesIDs: the durable provider mints its engine's
// ids. The same op sequence on a bare engine and on a durable provider
// over an equal engine gets the same answers under the map between the
// ids the two minted, call by call, and the wrapped engine holds every
// subscription under the id the wrapper returned and logged.
func TestDurableMintsItsEnginesIDs(t *testing.T) {
	schema := testSchema()
	bare := newTestEngine(schema, 4)
	defer bare.Close()
	st, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wrapped := newTestEngine(schema, 4)
	d, err := st.Durable("", wrapped)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	bareIDs, bareAnswers := churn(t, schema, bare)
	gotIDs, gotAnswers := churn(t, schema, d)
	toDurable := map[uint64]uint64{0: 0}
	for i, id := range bareIDs {
		toDurable[id] = gotIDs[i]
	}
	if len(toDurable) != len(bareIDs)+1 {
		t.Fatalf("%d writes minted %d distinct ids", len(bareIDs), len(toDurable)-1)
	}
	for i, want := range bareAnswers {
		if gotAnswers[i] != toDurable[want] {
			t.Fatalf("query %d: the durable provider answered id %d, the bare engine %d (the durable provider's %d)", i, gotAnswers[i], want, toDurable[want])
		}
	}
	requireSameHeld(t, "wrapped engine vs durable dump", mustEnumerate(t, wrapped), mustEnumerate(t, d))
	mapped := mustEnumerate(t, bare)
	for i := range mapped {
		mapped[i].ID = toDurable[mapped[i].ID]
	}
	slices.SortFunc(mapped, func(a, b core.Held) int { return cmp.Compare(a.ID, b.ID) })
	requireSameHeld(t, "wrapped engine vs bare under the id map", mustEnumerate(t, wrapped), mapped)
}

// TestRecoveredEngineHoldsPreCrashIDs: after close + reopen, and again
// after a snapshot, more writes and a reopen, the wrapped engine's own
// Enumerate is the pre-crash engine's, id for id.
func TestRecoveredEngineHoldsPreCrashIDs(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	reopen := func(st *Store, d *DurableProvider) (*Store, *DurableProvider, *engine.Engine) {
		t.Helper()
		if st != nil {
			d.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := newTestEngine(schema, 4)
		d, err = st.Durable("", eng)
		if err != nil {
			t.Fatal(err)
		}
		return st, d, eng
	}
	st, d, eng := reopen(nil, nil)
	churn(t, schema, d)
	before := mustEnumerate(t, eng)
	if len(before) == 0 {
		t.Fatal("precondition: churn left nothing held")
	}

	st, d, eng = reopen(st, d)
	requireSameHeld(t, "WAL replay", mustEnumerate(t, eng), before)

	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(before[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(rect(t, schema, 2)); err != nil {
		t.Fatal(err)
	}
	before = mustEnumerate(t, eng)
	st, d, eng = reopen(st, d)
	requireSameHeld(t, "snapshot + WAL tail", mustEnumerate(t, eng), before)
	d.Close()
	st.Close()
}

// TestRestoreAcrossProviderKinds: a data dir is not bound to the provider
// kind, or the shard count, that wrote it. The reader restores ids its
// own kind would never mint, answers with them, and mints around them.
func TestRestoreAcrossProviderKinds(t *testing.T) {
	schema := testSchema()
	detector := func() core.Provider { return newTestDetector(schema) }
	engineOf := func(shards int) func() core.Provider {
		return func() core.Provider { return newTestEngine(schema, shards) }
	}
	for _, tc := range []struct {
		name           string
		writer, reader func() core.Provider
	}{
		{"detector to engine", detector, engineOf(8)},
		{"engine to detector", engineOf(8), detector},
		{"8 shards to 3", engineOf(8), engineOf(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, schema, Options{})
			if err != nil {
				t.Fatal(err)
			}
			w, err := st.Durable("", tc.writer())
			if err != nil {
				t.Fatal(err)
			}
			_, answers := churn(t, schema, w)
			held := mustEnumerate(t, w)
			w.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st, err = Open(dir, schema, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			restored := tc.reader()
			r, err := st.Durable("", restored)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			requireSameHeld(t, "reader's own Enumerate", mustEnumerate(t, restored), held)
			for i := 0; i < familyK; i++ {
				cover, _, _, err := r.FindCover(inner(t, schema, i))
				if err != nil {
					t.Fatal(err)
				}
				if cover != answers[i] {
					t.Fatalf("member %d: reader answers %d, writer answered %d", i, cover, answers[i])
				}
			}
			for k := 0; k < 3; k++ { // an engine stripe each, with luck; any id must be free
				id, _, _, err := r.Add(rect(t, schema, k))
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range held {
					if h.ID == id {
						t.Fatalf("Add after restore returned id %d, which a restored subscription holds", id)
					}
				}
			}
		})
	}
}
