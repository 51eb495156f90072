package engine_test

import (
	"fmt"
	"testing"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
)

// TestEngineProviderConformance runs the shared core.Provider battery
// over every configuration the engine's one plan takes — the index in
// both modes and the linear store scan — at one shard and at four:
// through the Provider seam an engine must be indistinguishable from the
// reference Detector.
func TestEngineProviderConformance(t *testing.T) {
	schema := coretest.Schema()
	dets := map[string]core.Config{
		"sfc-approx":   {Schema: schema, Mode: core.ModeApprox, Epsilon: 0.3},
		"sfc-exact":    {Schema: schema, Mode: core.ModeExact},
		"linear-exact": {Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
	}
	for name, det := range dets {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d", name, shards), func(t *testing.T) {
				coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
					return engine.MustNew(engine.Config{Detector: det, Shards: shards})
				})
			})
		}
	}
}

// TestEngineConformanceMidRebalance runs the same battery against an
// engine whose slice boundaries are being moved the whole time: a
// goroutine hammers forced passes (which, unlike the write path's own,
// take any population and any skew) while every behavioral assertion
// runs. Provider semantics must be indistinguishable from the quiescent
// engine's.
func TestEngineConformanceMidRebalance(t *testing.T) {
	schema := coretest.Schema()
	coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
		e := engine.MustNew(engine.Config{
			Detector: core.Config{Schema: schema, Mode: core.ModeExact},
			Shards:   4,
		})
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					e.Rebalance()
				}
			}
		}()
		t.Cleanup(func() {
			close(stop)
			<-done
		})
		return e
	})
}

// TestEngineHistories holds an engine's concurrent histories to the
// provider contract at one slice and at four, a forced Rebalance drawn
// beside the other operations. Four slices get more seeds: a race with a
// boundary move is the rarer one to land.
func TestEngineHistories(t *testing.T) {
	for shards, seeds := range map[int][]int64{1: {1, 2, 3, 4}, 4: {1, 2, 3, 4, 5, 6, 7, 8}} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("slices=%d/seed=%d", shards, seed), func(t *testing.T) {
				coretest.Histories(t, func(t *testing.T) (core.Provider, func()) {
					e := engine.MustNew(engine.Config{Detector: core.Config{Schema: coretest.Schema(), Mode: core.ModeExact}, Shards: shards})
					return e, func() { e.Rebalance() }
				}, seed)
			})
		}
	}
}
