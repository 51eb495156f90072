package core_test

import (
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
)

// TestDetectorProviderConformance anchors the shared core.Provider
// battery on the reference implementation. Engine and the sfcd
// RemoteProvider run the identical suite from their own packages, which
// is what licenses brokers to treat the backend as a configuration knob.
func TestDetectorProviderConformance(t *testing.T) {
	schema := coretest.Schema()
	for _, strat := range []core.Strategy{core.StrategySFC, core.StrategyLinear} {
		t.Run(string(strat), func(t *testing.T) {
			coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
				return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact, Strategy: strat})
			})
		})
	}
}

// TestDetectorConformancePerCurve runs the battery on the one curve the
// index has, Z, with the hit memo enabled.
func TestDetectorConformancePerCurve(t *testing.T) {
	schema := coretest.Schema()
	t.Run("z", func(t *testing.T) {
		coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
			return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact})
		})
	})
}

// TestDetectorConformanceCacheVariants re-runs the battery with the hit
// memo disabled, so the knob cannot drift from the Provider contract.
func TestDetectorConformanceCacheVariants(t *testing.T) {
	schema := coretest.Schema()
	t.Run("cache-off", func(t *testing.T) {
		coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
			return core.MustNew(core.Config{Schema: schema, Mode: core.ModeExact, DecompCacheSize: -1})
		})
	})
}
