package engine

import (
	"sort"

	"sfccover/internal/core"
)

// The rebalancer's policy. It is always armed and has no options: the
// numbers below are the ones EXPERIMENTS.md "Shards under contention"
// measured, not preferences.
const (
	// rebalanceThreshold is the occupancy skew (core.SkewOf) at which the
	// write path runs a pass: the smallest skew at which the benchmark's
	// skew= rows show a loss outside their spread (two walk-miss readers on
	// two threads serve 12 % fewer queries at 2, 25 % at 4, 35 % at 8). What
	// lies below is the noise of the quantile sample itself — a fresh bulk
	// load reads 1.2 to 1.35 — and must not trip anything.
	rebalanceThreshold = 2.0
	// rebalanceTarget is the skew a pass drives down to; the gap under the
	// threshold is the hysteresis that keeps a population hovering at the
	// trigger from paying a pass every check.
	rebalanceTarget = 1 + (rebalanceThreshold-1)/2
	// rebalanceCheckEvery is how many inserts pass between two skew reads:
	// a read takes every slice's read lock once, which this spreads to well
	// under a nanosecond an insert.
	rebalanceCheckEvery = 64
	// rebalanceMinPerSlice times the slice count is the population below
	// which skew is not read at all: core.SkewOf clamps its denominator to
	// 1, so twenty subscriptions in one slice would read as skew 20, and
	// there is no contention to spread at that size.
	rebalanceMinPerSlice = 64
)

// RebalanceResult describes one rebalance pass.
type RebalanceResult struct {
	// Moves is the number of boundary moves performed.
	Moves int
	// Migrated is the number of index entries that crossed a boundary.
	Migrated int
	// SkewBefore and SkewAfter bracket the pass with the index's occupancy
	// skew.
	SkewBefore, SkewAfter float64
}

// inserted is the write path's rebalance trigger: every
// rebalanceCheckEvery inserts, past the population floor, it reads the
// occupancy skew and, at the threshold, runs one pass on the inserting
// goroutine. The skew is read under rebalanceMu, so a pass already
// running (a forced one, or another writer's) is waited out and judged by
// what it left: a check never passes over a skew because a pass is
// moving boundaries it has not yet counted. Callers hold no lock of the
// index, the only locks a pass takes (Restore holds its stripe locks).
func (e *Engine) inserted(n int) {
	if e.sinceCheck.Add(int64(n)) < rebalanceCheckEvery {
		return
	}
	e.sinceCheck.Store(0)
	if e.idx.Len() < rebalanceMinPerSlice*len(e.stores) {
		return
	}
	e.rebalanceMu.Lock()
	defer e.rebalanceMu.Unlock()
	if e.skew() >= rebalanceThreshold {
		e.pass()
	}
}

// Rebalance forces one rebalance pass, whatever the skew and population;
// the write path runs the same pass by itself (see inserted), so this is
// for tests that need boundaries moving at a moment of their choosing.
func (e *Engine) Rebalance() RebalanceResult {
	e.rebalanceMu.Lock()
	defer e.rebalanceMu.Unlock()
	return e.pass()
}

// pass runs one bounded rebalance pass; the caller holds rebalanceMu.
// Cover answers are unaffected — a migration moves where entries are
// indexed, never what a query returns — and queries keep running during
// the pass, blocking only on the short per-pair write barriers.
func (e *Engine) pass() RebalanceResult {
	res := RebalanceResult{SkewBefore: e.skew()}
	e.equalize(&res)
	res.SkewAfter = e.skew()
	if res.Moves > 0 {
		e.rebalances.Add(1)
		e.boundaryMoves.Add(int64(res.Moves))
		e.migratedEntries.Add(int64(res.Migrated))
	}
	return res
}

// skew reports the index's occupancy skew, the trigger's signal. The
// caller holds rebalanceMu.
func (e *Engine) skew() float64 { return core.SkewOf(e.idx.ShardSizesInto(e.sizes)) }

// equalize drives the index toward rebalanceTarget: while the skew exceeds
// it, the most imbalanced adjacent slice pair is equalized, up to two
// boundary moves a slice, and the moves are folded into res.
func (e *Engine) equalize(res *RebalanceResult) {
	n := e.idx.NumShards()
	if n < 2 {
		return
	}
	for budget := 2 * n; budget > 0; budget-- {
		sizes := e.idx.ShardSizes()
		if core.SkewOf(sizes) <= rebalanceTarget {
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
			if m := e.idx.EqualizePair(i); m > 0 {
				moved = m
				break
			}
		}
		if moved == 0 {
			return // as balanced as the key distribution allows
		}
		res.Moves++
		res.Migrated += moved
	}
}

func pairDiff(sizes []int, i int) int {
	d := sizes[i] - sizes[i+1]
	if d < 0 {
		return -d
	}
	return d
}
