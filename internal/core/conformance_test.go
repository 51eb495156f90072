package core_test

import (
	"fmt"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
)

// TestDetectorProviderConformance anchors the shared core.Provider
// battery on the reference implementation, in both modes on the index and
// on the linear scan. Engine and the sfcd RemoteProvider run the identical
// suite from their own packages, which is what licenses brokers to treat
// the backend as a configuration knob.
func TestDetectorProviderConformance(t *testing.T) {
	schema := coretest.Schema()
	for name, cfg := range map[string]core.Config{
		"sfc":        {Schema: schema, Mode: core.ModeExact},
		"linear":     {Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		"sfc-approx": {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3},
	} {
		t.Run(name, func(t *testing.T) {
			coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
				return core.MustNew(cfg)
			})
		})
	}
}

// TestDetectorHistories holds a Detector's concurrent histories to the
// provider contract.
func TestDetectorHistories(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			coretest.Histories(t, func(t *testing.T) (core.Provider, func()) {
				return core.MustNew(core.Config{Schema: coretest.Schema(), Mode: core.ModeExact}), nil
			}, seed)
		})
	}
}

// TestTotalsMatchQueryStats holds a Detector's lifetime counters to the
// sums of the per-call Stats over walk and cube answers, scans, and
// exact and off modes; mode off searches nothing and counts nothing.
func TestTotalsMatchQueryStats(t *testing.T) {
	coretest.RunTotalsMatchQueryStats(t, func(t *testing.T, cfg core.Config) core.Provider {
		return core.MustNew(cfg)
	}, false)
}

// TestDetectorConformancePerCurve runs the battery on the one curve the
// index has, Z.
func TestDetectorConformancePerCurve(t *testing.T) {
	schema := coretest.Schema()
	t.Run("z", func(t *testing.T) {
		coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
			return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact})
		})
	})
}

// TestDetectorConformanceCacheVariants runs the battery on the cache-off
// configuration. No SFC index carries a cache, so this is the default
// detector, as TestDetectorConformancePerCurve's is.
func TestDetectorConformanceCacheVariants(t *testing.T) {
	schema := coretest.Schema()
	t.Run("cache-off", func(t *testing.T) {
		coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
			return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact})
		})
	})
}
