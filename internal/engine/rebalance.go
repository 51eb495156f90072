package engine

import (
	"sort"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
)

// rebalanceLoop is the background trigger: every RebalanceInterval it
// reads the occupancy skew and, once it crosses RebalanceThreshold, runs
// one bounded rebalance pass down to the hysteresis target. The
// threshold/target gap keeps the loop from oscillating around the
// trigger, and RebalanceMaxMoves bounds the migration each tick may do.
func (e *Engine) rebalanceLoop() {
	defer e.rebalanceWG.Done()
	ticker := time.NewTicker(e.cfg.RebalanceInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopRebalance:
			return
		case <-ticker.C:
			if e.skew() >= e.cfg.RebalanceThreshold {
				e.Rebalance() //nolint:errcheck // always nil; the error is core.Provider's
			}
		}
	}
}

// rebalanceTarget is the hysteresis target a pass rebalances down to.
func (e *Engine) rebalanceTarget() float64 {
	if e.cfg.RebalanceThreshold > 1 {
		return 1 + (e.cfg.RebalanceThreshold-1)/2
	}
	// Manual rebalancing with no configured threshold: drive as close to
	// balanced as the key distribution allows.
	return 1
}

// Rebalance runs one bounded rebalance pass: while occupancy skew exceeds
// the hysteresis target, the most imbalanced adjacent slice pair is
// equalized, up to Config.RebalanceMaxMoves boundary moves across the
// primary and (when present) the mirror index. The mirror indexes
// reflected points, so its skew is independent and it is rebalanced
// against its own occupancy. Cover answers are unaffected — a migration
// moves where entries are indexed, never what a query returns — and
// queries keep running during the pass, blocking only on the short
// per-pair write barriers. The error is always nil; it is there for
// core.Provider, whose other implementers can have nothing to move.
func (e *Engine) Rebalance() (core.RebalanceResult, error) {
	e.rebalanceMu.Lock()
	res := core.RebalanceResult{SkewBefore: e.skew()}
	budget := e.cfg.RebalanceMaxMoves
	target := e.rebalanceTarget()
	rebalanceIndex(e.idx, target, &budget, &res)
	if e.mirror != nil {
		rebalanceIndex(e.mirror, target, &budget, &res)
	}
	// Like the trigger signal, the reported skews take the worst index:
	// a pass driven by a hot mirror must not read as a no-op.
	res.SkewAfter = e.skew()
	e.rebalanceMu.Unlock()
	if res.Moves > 0 {
		e.rebalances.Add(1)
		e.boundaryMoves.Add(int64(res.Moves))
		e.migratedEntries.Add(int64(res.Migrated))
	}
	return res, nil
}

// skew reports the worst occupancy skew across the primary and (when
// present) the mirror index — the background trigger's signal, so a
// balanced primary cannot mask a hot mirror slice.
func (e *Engine) skew() float64 {
	s := core.SkewOf(e.idx.ShardSizes())
	if e.mirror != nil {
		if m := core.SkewOf(e.mirror.ShardSizes()); m > s {
			s = m
		}
	}
	return s
}

// rebalanceIndex drives one index toward target skew, decrementing budget
// per boundary move and folding the moves into res.
func rebalanceIndex(idx *dominance.ShardedIndex, target float64, budget *int, res *core.RebalanceResult) {
	n := idx.NumShards()
	if n < 2 {
		return
	}
	for *budget > 0 {
		sizes := idx.ShardSizes()
		if core.SkewOf(sizes) <= target {
			return
		}
		// Rank adjacent pairs by imbalance and equalize the worst one
		// that can actually move; keys can pin a pair (a single hot key
		// cannot split), in which case the next-worst pair gets its turn.
		pairs := make([]int, n-1)
		for i := range pairs {
			pairs[i] = i
		}
		sort.Slice(pairs, func(a, b int) bool {
			return pairDiff(sizes, pairs[a]) > pairDiff(sizes, pairs[b])
		})
		moved := 0
		for _, i := range pairs {
			if pairDiff(sizes, i) <= 1 {
				break
			}
			if m := idx.EqualizePair(i); m > 0 {
				moved = m
				break
			}
		}
		if moved == 0 {
			return // as balanced as the key distribution allows
		}
		res.Moves++
		res.Migrated += moved
		*budget--
	}
}

func pairDiff(sizes []int, i int) int {
	d := sizes[i] - sizes[i+1]
	if d < 0 {
		return -d
	}
	return d
}
