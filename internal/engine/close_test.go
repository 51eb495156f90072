package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/subscription"
)

// TestDoubleCloseAndUseAfterClose is the regression for the recovery
// paths that tear providers down: a second Close must be a specified
// no-op, and batch operations issued after Close must report
// core.ErrProviderClosed rather than run on a closed engine.
func TestDoubleCloseAndUseAfterClose(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	e := MustNew(Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   2,
	})
	s := subscription.MustParse(schema, "x >= 3")
	id, err := e.Insert(s)
	if err != nil {
		t.Fatal(err)
	}

	e.Close()
	e.Close() // the regression: must not panic or hang

	for _, r := range e.AddBatch([]*subscription.Subscription{s}) {
		if !errors.Is(r.Err, core.ErrProviderClosed) {
			t.Fatalf("AddBatch after Close = %v, want ErrProviderClosed", r.Err)
		}
	}
	for _, r := range e.CoverQueryBatch([]*subscription.Subscription{s}) {
		if !errors.Is(r.Err, core.ErrProviderClosed) {
			t.Fatalf("CoverQueryBatch after Close = %v, want ErrProviderClosed", r.Err)
		}
	}
	for _, err := range e.RemoveBatch([]uint64{id}) {
		if !errors.Is(err, core.ErrProviderClosed) {
			t.Fatalf("RemoveBatch after Close = %v, want ErrProviderClosed", err)
		}
	}
	if _, err := e.InsertBatch([]*subscription.Subscription{s}); !errors.Is(err, core.ErrProviderClosed) {
		t.Fatalf("InsertBatch after Close = %v, want ErrProviderClosed", err)
	}
}

// TestCloseRacesBatches drives Close against in-flight batches: every
// batch must either complete or fail with the typed error — never panic.
// Run with -race in CI's crash-recovery gate.
func TestCloseRacesBatches(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	e := MustNew(Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   2,
	})
	s := subscription.MustParse(schema, "x >= 3")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, r := range e.AddBatch([]*subscription.Subscription{s, s, s}) {
					if r.Err != nil && !errors.Is(r.Err, core.ErrProviderClosed) {
						t.Errorf("AddBatch mid-close: %v", r.Err)
						return
					}
				}
			}
		}()
	}
	e.Close()
	wg.Wait()
}

// TestEngineHoldsNoGoroutines: an engine starts goroutines only inside a
// batch call and waits for them before it returns, so the process's
// goroutine count is back at its baseline after New, after each batch
// operation and after Close.
func TestEngineHoldsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(after string) {
		t.Helper()
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Fatalf("after %s: %d goroutines, want the baseline %d", after, n, base)
		}
	}
	schema := subscription.MustSchema(10, "volume", "price")
	subs := hotspotSubs(t, schema, 256, 3)
	e := MustNew(Config{Detector: approxDetector(schema), Shards: 4})
	settled("New")
	for _, r := range e.AddBatch(subs[:128]) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	settled("AddBatch")
	if _, err := e.InsertBatch(subs[128:]); err != nil {
		t.Fatal(err)
	}
	settled("InsertBatch")
	for _, r := range e.CoverQueryBatch(subs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	settled("CoverQueryBatch")
	held, err := coretest.HeldOf(e)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]uint64, len(held))
	for i, h := range held {
		all[i] = h.ID
	}
	for _, err := range e.RemoveBatch(all) {
		if err != nil {
			t.Fatal(err)
		}
	}
	settled("RemoveBatch")
	if err := e.Restore(held); err != nil {
		t.Fatal(err)
	}
	settled("Restore")
	if e.Len() != len(subs) {
		t.Fatalf("Len %d after Restore, want %d", e.Len(), len(subs))
	}
	e.Close()
	settled("Close")
}
