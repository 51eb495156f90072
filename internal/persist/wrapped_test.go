package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

// A wrapped link's state lives in its provider, not in the store's mirror.
// These tests pin that every reader of the store's state — the views, a
// Reset dump, a snapshot — still answers for wrapped links exactly as it
// answers for links nobody wraps.

// wrapPair wraps an engine on the shared link and a Detector on "x".
func wrapPair(t *testing.T, st *Store) (eng, det *DurableProvider) {
	t.Helper()
	eng, err := st.Durable("", newTestEngine(st.Schema(), 4))
	if err != nil {
		t.Fatal(err)
	}
	det, err = st.Durable("x", newTestDetector(st.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	return eng, det
}

// storeView is everything the store's views answer.
type storeView struct {
	links []string
	held  map[string][]core.Held
	stats StoreStats
}

func viewOf(st *Store) storeView {
	v := storeView{links: st.Links(), held: make(map[string][]core.Held), stats: st.Stats()}
	for _, link := range v.links {
		v.held[link] = st.Held(link)
	}
	return v
}

// requireSameView compares the link-level answers; the counters of the
// log (records, bytes, snapshots) legitimately differ across a reopen.
func requireSameView(t *testing.T, when string, got, want storeView) {
	t.Helper()
	if fmt.Sprint(got.links) != fmt.Sprint(want.links) {
		t.Fatalf("%s: Links = %v, want %v", when, got.links, want.links)
	}
	if got.stats.Links != want.stats.Links || got.stats.Entries != want.stats.Entries {
		t.Fatalf("%s: Stats Links/Entries = %d/%d, want %d/%d", when,
			got.stats.Links, got.stats.Entries, want.stats.Links, want.stats.Entries)
	}
	for _, link := range want.links {
		requireSameHeld(t, fmt.Sprintf("%s: link %q", when, link), got.held[link], want.held[link])
	}
}

// TestResetDumpCarriesWrappedLinks: a primary whose state sits in a
// wrapped engine, a wrapped Detector and one recovered link nobody wraps
// answers a divergent tail with a Reset dump of all three, and a follower
// that installs it holds the primary's state.
func TestResetDumpCarriesWrappedLinks(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, link := range []string{"", "x", "r"} {
			if err := st.appendAdd(link, uint64(100+i), payload(t, rect(t, schema, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	primary, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	eng, det := wrapPair(t, primary)
	defer eng.Close()
	defer det.Close()
	for _, p := range []core.Provider{eng, det} {
		goldenOps(t, p)
		if err := p.Remove(101); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(primary.Links()); got != fmt.Sprint([]string{"", "r", "x"}) {
		t.Fatalf("primary Links = %s, want the two wrapped links and the recovered one", got)
	}
	want := len(eng.Subscriptions()) + len(det.Subscriptions()) + 3

	tail, err := primary.Tail(primary.Pos() + 100) // divergent: ahead of the primary
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	b, err := tail.Next(make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reset {
		t.Fatalf("divergent position got a plain batch (base %d), want a Reset dump", b.Base)
	}
	if n := countRecords(b.Recs); n != want {
		t.Fatalf("Reset dump carries %d records, want %d", n, want)
	}
	follower, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	applyBatch(t, follower, b)
	demandSameState(t, follower, primary)
}

// TestStoreViewsIncludeWrappedLinks: Links, Entries and Stats answer the
// same before a link is wrapped, once it is, after writes through its
// provider, and after a reopen hands the state back to the mirror.
func TestStoreViewsIncludeWrappedLinks(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for _, link := range []string{"", "x", "r"} {
			if err := st.appendAdd(link, uint64(100+i), payload(t, rect(t, schema, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := viewOf(st)
	if before.stats.Links != 3 || before.stats.Entries != 12 {
		t.Fatalf("Stats Links/Entries = %d/%d before wrapping, want 3/12", before.stats.Links, before.stats.Entries)
	}
	eng, det := wrapPair(t, st)
	requireSameView(t, "once wrapped", viewOf(st), before)

	for _, p := range []core.Provider{eng, det} {
		goldenOps(t, p)
		if err := p.Remove(102); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.appendAdd("r", 200, payload(t, rect(t, schema, 9))); err != nil {
		t.Fatal(err)
	}
	after := viewOf(st)
	requireSameHeld(t, "engine link", after.held[""], mustEnumerate(t, eng))
	requireSameHeld(t, "detector link", after.held["x"], mustEnumerate(t, det))
	if n := len(after.held[""]) + len(after.held["x"]) + 5; after.stats.Links != 3 || after.stats.Entries != n {
		t.Fatalf("Stats Links/Entries = %d/%d after writes, want 3/%d", after.stats.Links, after.stats.Entries, n)
	}

	eng.Close()
	det.Close()
	if _, err := eng.Insert(rect(t, schema, 9)); !errors.Is(err, core.ErrProviderClosed) {
		t.Fatalf("Insert through a released wrapper = %v, want core.ErrProviderClosed", err)
	}
	requireSameView(t, "released", viewOf(st), after)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	requireSameView(t, "reopened", viewOf(st), after)
	eng, det = wrapPair(t, st)
	defer eng.Close()
	defer det.Close()
	requireSameView(t, "re-wrapped", viewOf(st), after)
}

// TestSnapshotCutUnderConcurrentWrites: snapshots taken while two writers
// per link churn a wrapped engine and a wrapped Detector, with one log
// append in seven failing (so its write rolls back), recover to exactly
// what the providers finally hold. A snapshot that read a provider
// between its op and its log append would keep an add the log then
// refused, or a subscription whose removal it already covers.
func TestSnapshotCutUnderConcurrentWrites(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	boom := errors.New("injected append failure")
	var appends atomic.Int64
	opts := Options{WriteHook: func(_ string, off int64, _ []byte) error {
		if off > 0 && appends.Add(1)%7 == 0 { // offset 0 is a segment header
			return boom
		}
		return nil
	}}
	subs := family(t, schema, 0, familyK+1)
	// Each round's writers churn until its snapshots are done, so every
	// snapshot — the last one, which recovery reads, included — cuts
	// through live writes; a round ends only after both enough snapshots
	// and enough writes.
	const rounds, snapsPerRound, opsPerRound = 10, 25, 600
	for round := 0; round < rounds; round++ {
		st, err := Open(dir, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng, det := wrapPair(t, st)
		snapsDone := make(chan struct{})
		var writers sync.WaitGroup
		var ops atomic.Int64
		for w, p := range []*DurableProvider{eng, eng, det, det} {
			writers.Add(1)
			go func() {
				defer writers.Done()
				churnConcurrently(p, subs, rand.New(rand.NewSource(int64(round*4+w))), &ops, snapsDone)
			}()
		}
		for i := 0; i < snapsPerRound || ops.Load() < opsPerRound; i++ {
			if err := st.Snapshot(); err != nil {
				t.Errorf("Snapshot under concurrent writes: %v", err)
			}
		}
		close(snapsDone)
		writers.Wait()
		want := map[string][]core.Held{"": mustEnumerate(t, eng), "x": mustEnumerate(t, det)}
		eng.Close()
		det.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = Open(dir, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for link, held := range want {
			requireSameHeld(t, fmt.Sprintf("round %d, link %q after reopen", round, link), st.Held(link), held)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// churnConcurrently runs random writes on p until done is closed — single
// and batch adds and inserts, and removals of the ids this writer added —
// counting them in ops and tolerating the failures an injected log error
// causes.
func churnConcurrently(p *DurableProvider, subs []*subscription.Subscription, rng *rand.Rand, ops *atomic.Int64, done <-chan struct{}) {
	var mine []uint64
	for {
		select {
		case <-done:
			return
		default:
		}
		ops.Add(1)
		s := subs[rng.Intn(len(subs))]
		switch k := rng.Intn(6); {
		case k == 0 || len(mine) == 0:
			if id, _, _, err := p.Add(s); err == nil {
				mine = append(mine, id)
			}
		case k == 1:
			if id, err := p.Insert(s); err == nil {
				mine = append(mine, id)
			}
		case k == 2:
			for _, r := range p.AddBatch(subs[:3]) {
				if r.Err == nil {
					mine = append(mine, r.ID)
				}
			}
		case k == 3:
			if ids, err := p.InsertBatch(subs[3:5]); err == nil {
				mine = append(mine, ids...)
			}
		case k == 4:
			j := rng.Intn(len(mine))
			if p.Remove(mine[j]) == nil {
				mine = append(mine[:j], mine[j+1:]...)
			}
		default:
			n := min(len(mine), 3)
			var kept []uint64
			for j, err := range p.RemoveBatch(mine[:n]) {
				if err != nil {
					kept = append(kept, mine[j])
				}
			}
			mine = append(kept, mine[n:]...)
		}
	}
}
