package core_test

import (
	"runtime"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// TestDetectorProviderConformanceWideKeys runs the Provider battery on a
// universe whose keys do not fit one word (4 attributes × 10 bits, d·k =
// 80), where the held set keeps rectangles instead of keys: every other
// Detector test runs a one-word schema.
func TestDetectorProviderConformanceWideKeys(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price", "size", "rate")
	for name, cfg := range map[string]core.Config{
		"sfc":        {Schema: schema, Mode: core.ModeExact},
		"sfc-approx": {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3},
		"linear":     {Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
	} {
		t.Run(name, func(t *testing.T) {
			coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
				d := core.MustNew(cfg)
				if core.HoldsWords(d) {
					t.Fatal("a d·k = 80 detector holds one-word keys")
				}
				return d
			})
		})
	}
}

// TestDetectorBytesPerSubscription bounds what a default Detector holds a
// subscription in, as TestEngineBytesPerSubscription does an engine's:
// 131 072 subscriptions bulk-loaded into the workloads' universe grow the
// live heap by at most 64 B each. The held set keeps one key word a
// subscription, a 16-byte slot where a rectangle took a 40-byte one: ~58 B
// where it was ~106.
func TestDetectorBytesPerSubscription(t *testing.T) {
	const n = 131072
	schema := subscription.MustSchema(10, "volume", "price")
	subs, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: n, Dist: workload.DistUniform, WidthFrac: 0.05, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	load := func() *core.Detector {
		d := core.MustNew(core.Config{Schema: schema})
		if _, err := d.InsertBatch(subs); err != nil {
			t.Fatal(err)
		}
		return d
	}
	load() // the first detector also builds what later ones share
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(subs)
	perSub := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("live heap per subscription: %.1f B", perSub)
	if perSub > 64 {
		t.Fatalf("a bulk-loaded detector holds %.1f B a subscription, want <= 64", perSub)
	}
	if !core.HoldsWords(d) {
		t.Fatal("a one-word detector holds rectangles")
	}
}
