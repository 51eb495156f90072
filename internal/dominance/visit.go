package dominance

import (
	"fmt"

	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

// VisitDominating reports every indexed point that dominates q and lies in
// the searched region, invoking visit with each point's id until visit
// returns false. With eps == 0 the search region is the whole dominance
// region (exhaustive — mind Theorem 4.1's cost); with 0 < eps < 1 it is the
// same (1−ε)-volume region Query searches, so the enumeration carries the
// usual approximate-covering guarantee: everything reported genuinely
// dominates, points in the skipped corner may be missed.
//
// In the pub/sub application this enumerates (a sample of) all covering
// subscriptions — the covering degree — rather than just one witness.
func (x *Index) VisitDominating(q []uint32, eps float64, visit func(id uint64) bool) (Stats, error) {
	if err := x.checkQuery(q, eps); err != nil {
		return Stats{}, err
	}
	region := geom.QueryRegion(q, x.cfg.Bits)
	stats := Stats{Path: PathCubes, AspectRatio: region.AspectRatio(), SearchedLevel: -1}
	fullVol := region.Volume()

	target := region
	targetVol := 0.0
	if eps > 0 {
		tr, m, err := cubes.TruncateExtremal(region, eps)
		if err != nil {
			return stats, err
		}
		target, stats.M = tr, m
		targetVol = (1 - eps) * fullVol
	}

	stopped := false
	visitRange := func(lo, hi bits.Key) {
		stats.RunsProbed++
		x.arr.VisitRange(lo, hi, func(_ bits.Key, id uint64) bool {
			stats.Found = true
			if !visit(id) {
				stopped = true
				return false
			}
			return true
		})
	}

	if eps == 0 {
		partition, err := cubes.Decompose(target.Rect(), x.cfg.Bits)
		if err != nil {
			return stats, err
		}
		stats.CubesGenerated = len(partition)
		stats.VolumeFraction = 1
		stats.SearchedLevel = 0
		for _, r := range cubes.Runs(x.curve, partition) {
			if stopped {
				break
			}
			visitRange(r.Lo, r.Hi)
		}
		return stats, nil
	}

	searched := 0.0
	capped := false
	for level := x.cfg.Bits; level >= 0 && !stopped && !capped; level-- {
		err := cubes.EnumLevelVisit(target, level, func(corner []uint32, side uint64) bool {
			stats.CubesGenerated++
			cubeVol := 1.0
			for range corner {
				cubeVol *= float64(side)
			}
			searched += cubeVol
			r := sfc.CubeRange(x.curve, corner, side)
			visitRange(r.Lo, r.Hi)
			if stopped {
				return false
			}
			if x.cfg.MaxCubes > 0 && stats.CubesGenerated >= x.cfg.MaxCubes {
				capped = true
				return false
			}
			return true
		})
		if err != nil {
			return stats, err
		}
		stats.VolumeFraction = searched / fullVol
		if stopped || capped {
			return stats, nil
		}
		stats.SearchedLevel = level
		if searched >= targetVol {
			return stats, nil
		}
	}
	return stats, nil
}

// CountDominating counts the indexed points in the searched region that
// dominate q, with the same eps semantics as VisitDominating.
func (x *Index) CountDominating(q []uint32, eps float64) (int, Stats, error) {
	count := 0
	stats, err := x.VisitDominating(q, eps, func(uint64) bool {
		count++
		return true
	})
	return count, stats, err
}

func errDims(got, want int) error {
	return fmt.Errorf("dominance: query has %d dims, index has %d", got, want)
}

func errEps(eps float64) error {
	return fmt.Errorf("dominance: epsilon %v out of range [0,1)", eps)
}
