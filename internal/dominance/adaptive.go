package dominance

import (
	"math"
	"sync/atomic"

	"sfccover/internal/geom"
)

const (
	// adaptiveEpsGrid quantizes the adaptive ε so the decomposition
	// cache sees a small set of effective budgets instead of one per
	// observed-counter state.
	adaptiveEpsGrid = 64
	// adaptiveMaxEps caps how coarse the adaptive policy may go: beyond
	// ε = 1/2 the approximation guarantee stops meaning much.
	adaptiveMaxEps = 0.5
	// adaptiveWarmup is how many queries the policy observes before it
	// trusts its counters.
	adaptiveWarmup = 32
	// adaptiveMinCubes / defaultAdaptiveTarget bound the derived cube
	// budget from below and above.
	adaptiveMinCubes      = 256
	defaultAdaptiveTarget = 1 << 14
	// adaptiveHeadroom scales the observed mean cube count into a
	// budget: typical queries finish well inside it, only outliers are
	// clipped.
	adaptiveHeadroom = 8
)

// budgetState is the observed-workload summary behind adaptive
// per-query budgets: instead of threading one fixed (ε, MaxCubes) pair
// through every query, the policy watches the QueryStats stream — cube
// counts, aspect ratios, and how often searches fell short of their
// volume target — and derives each query's effective budget from it.
// All fields are atomic counters; adapt and record are lock-free and
// allocation-free.
//
// Soundness is unchanged by any budget: a reported point always
// dominates the query, because the search only probes key ranges of
// cubes genuinely inside the region. The budgets trade only the
// fraction of the region searched (reported in Stats.VolumeFraction)
// against work.
type budgetState struct {
	queries  atomic.Uint64 // completed queries observed
	cubes    atomic.Uint64 // sum of CubesGenerated
	alphaSum atomic.Uint64 // sum of aspect ratios
	short    atomic.Uint64 // misses that fell short of their volume target
}

// adapt derives the effective (ε, MaxCubes) for one query.
//
//   - MaxCubes: after warmup the cap becomes adaptiveHeadroom × the
//     observed mean cube count (clamped to [adaptiveMinCubes, the
//     configured cap], rounded up to a power of two so the cache key
//     space stays coarse) — a budget sized to the workload instead of a
//     blunt global constant.
//   - ε: queries whose aspect ratio exceeds the observed mean get one
//     grid step (1/64) coarser per excess unit — Theorem 4.1 makes
//     high-α regions disproportionately expensive — and a persistent
//     shortfall rate (searches clipped by the cap) coarsens every query
//     until searches complete inside their budget again. ε never drops
//     below the configured value and never exceeds adaptiveMaxEps.
//
//sfc:hotpath
func (b *budgetState) adapt(eps float64, maxCubes, d int, region geom.Extremal) (float64, int) {
	if eps <= 0 {
		// Exhaustive queries have no budget to adapt.
		return eps, maxCubes
	}
	q := b.queries.Load()
	capEff := maxCubes
	if capEff <= 0 || capEff > defaultAdaptiveTarget {
		capEff = defaultAdaptiveTarget
	}
	steps := 0
	if q >= adaptiveWarmup {
		mean := b.cubes.Load() / q
		t := adaptiveHeadroom * (mean + 1)
		if t < adaptiveMinCubes {
			t = adaptiveMinCubes
		}
		// Round up to a power of two to keep the cache-key space coarse.
		p := uint64(adaptiveMinCubes)
		for p < t {
			p <<= 1
		}
		if int(p) < capEff {
			capEff = int(p)
		}
		meanAlpha := int(b.alphaSum.Load() / q)
		if excess := region.AspectRatio() - meanAlpha; excess > 0 {
			steps += excess
		}
		// shortRate in eighths: 0..8.
		steps += int(b.short.Load() * 8 / q)
	}
	epsEff := eps + float64(steps)/adaptiveEpsGrid
	// Snap up to the grid so the cache sees quantized budgets, then
	// clamp: never coarser than adaptiveMaxEps, never finer than the
	// configured ε (which also keeps ε < 1 for extreme configs).
	epsEff = math.Ceil(epsEff*adaptiveEpsGrid) / adaptiveEpsGrid
	if epsEff > adaptiveMaxEps {
		epsEff = adaptiveMaxEps
	}
	if epsEff < eps {
		epsEff = eps
	}
	return epsEff, capEff
}

// record feeds one completed cube search's stats back into the policy
// (queries the memo or the walk answered spend neither ε nor cubes, so
// they are not observed). A search counts as short only when it missed
// AND stopped below its volume target — early hits are the search
// working as intended.
func (b *budgetState) record(stats *Stats, epsEff float64) {
	b.queries.Add(1)
	b.cubes.Add(uint64(stats.CubesGenerated))
	b.alphaSum.Add(uint64(stats.AspectRatio))
	if epsEff > 0 && !stats.Found && stats.VolumeFraction < 1-epsEff {
		b.short.Add(1)
	}
}
