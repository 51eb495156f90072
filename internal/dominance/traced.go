package dominance

import (
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/geom"
	"sfccover/internal/obs"
	"sfccover/internal/sfc"
)

// probeSampleMask times one run probe in 8 within a traced query: a
// probe is a short ordered-structure search, so reading the clock
// around every one would meter the clock, not the probe. Combined with
// query-level trace sampling, the "run_probe" histogram holds a
// uniform sample of probe latencies — the distribution is unbiased,
// only the _count is scaled — and untraced queries pay nothing.
const probeSampleMask = 7

// SetObserver attaches a latency observer to the sharded index: run
// probes issued by traced queries are recorded (sampled) into the
// observer's "run_probe" histogram. Must be called before the index
// serves concurrent queries — the field is read without synchronization
// on the probe path.
func (x *ShardedIndex) SetObserver(o *obs.Observer) { x.probeHist = o.Hist("run_probe") }

// dispatchSearch routes one query to the cache when one is attached and
// to the uncached searches otherwise.
//
//sfc:hotpath
func dispatchSearch(curve sfc.Curve, k, maxCubes int, cache *decompCache, sc *queryScratch, probe probeFn, region geom.Extremal, eps float64, stats *Stats, tr *obs.QueryTrace) (uint64, bool, error) {
	if cache != nil {
		return cache.search(curve, k, maxCubes, sc, probe, region, eps, stats, tr)
	}
	if eps == 0 {
		return searchExhaustive(curve, k, sc, probe, region, stats, tr)
	}
	return searchApprox(curve, k, maxCubes, sc, probe, region, eps, stats, tr)
}

// QueryTraced is Query with an optional trace record: stage timings
// plus per-slice probe counts (tr.Slices) showing how the probe traffic
// spread over the key slices. tr may be nil.
//
//sfc:hotpath
func (x *ShardedIndex) QueryTraced(q []uint32, eps float64, tr *obs.QueryTrace) (uint64, bool, Stats, error) {
	if len(q) != x.cfg.Dims {
		return 0, false, Stats{}, errDims(len(q), x.cfg.Dims)
	}
	if eps < 0 || eps >= 1 {
		return 0, false, Stats{}, errEps(eps)
	}
	sc := x.scratchPool.Get().(*queryScratch)
	defer x.scratchPool.Put(sc)
	sc.stats = Stats{}
	stats := &sc.stats
	region := sc.region(q, x.cfg.Bits)
	stats.AspectRatio = region.AspectRatio()
	maxCubes := x.cfg.MaxCubes
	if x.budget != nil {
		eps, maxCubes = x.budget.adapt(eps, maxCubes, x.cfg.Dims, region)
	}
	probe := x.tracedProbe(tr)
	id, ok, err := dispatchSearch(x.curve, x.cfg.Bits, maxCubes, x.cache, sc, probe, region, eps, stats, tr)
	if x.budget != nil && err == nil {
		x.budget.record(stats, eps)
	}
	return id, ok, sc.stats, err
}

// tracedProbe picks the probe implementation for one query: the plain
// routed probe for untraced queries (no wrapper, no clock reads), else
// a wrapper that counts probes per slice into tr and samples probe
// latency into the histogram. The counter lives in the closure — each
// traced query owns its own — so traced probing adds no shared state
// to the lock-free probe path.
func (x *ShardedIndex) tracedProbe(tr *obs.QueryTrace) probeFn {
	if tr == nil {
		return x.rawProbe
	}
	hist := x.probeHist
	n := 0
	return func(lo, hi bits.Key) (uint64, bool) {
		n++
		if hist != nil && n&probeSampleMask == 1 {
			t0 := time.Now()
			id, ok := x.probeTouched(lo, hi, tr)
			hist.Observe(time.Since(t0))
			return id, ok
		}
		return x.probeTouched(lo, hi, tr)
	}
}

// probeTouched is probe with per-slice trace accounting: identical
// retry-validated routing, but every slice visited is counted against
// tr. tr may be nil (TouchSlice is nil-safe).
//
//sfc:hotpath
func (x *ShardedIndex) probeTouched(lo, hi bits.Key, tr *obs.QueryTrace) (uint64, bool) {
	for {
		tabPtr := x.table.Load()
		first, last := routeKey(*tabPtr, lo), routeKey(*tabPtr, hi)
		var id uint64
		ok := false
		for i := first; i <= last && !ok; i++ {
			tr.TouchSlice(i)
			s := &x.shards[i]
			s.mu.RLock()
			id, ok = s.arr.FirstInRange(lo, hi)
			s.mu.RUnlock()
		}
		if x.table.Load() == tabPtr {
			return id, ok
		}
	}
}

// CostOf copies a Stats into the dependency-free trace cost record.
func CostOf(s Stats) obs.QueryCost {
	return obs.QueryCost{
		M:              s.M,
		CubesGenerated: s.CubesGenerated,
		RunsProbed:     s.RunsProbed,
		VolumeFraction: s.VolumeFraction,
		AspectRatio:    s.AspectRatio,
		Found:          s.Found,
	}
}
