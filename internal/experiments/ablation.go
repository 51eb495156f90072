package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"sfccover/internal/cubes"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
	"sfccover/internal/sfcarray"
	"sfccover/internal/stats"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// runE12 ablates the Section 5 probe order. The paper searches cubes in
// descending volume order ("in the descending order of their volume");
// this experiment runs the identical truncated search with ascending order
// instead and counts probes until the search terminates (first hit, or the
// whole truncated partition on a miss). Both orders search the same cube
// set, so recall is identical — the order buys probes, not correctness.
func runE12(w io.Writer, quick bool) error {
	e, _ := ByID("E12")
	header(w, e)
	const k = 12
	const eps = 0.1
	nPairs := 300
	if quick {
		nPairs = 80
	}
	schema := subscription.MustSchema(k, "price")
	curve := sfc.MustZ(schema.Dims(), k)

	tb := stats.NewTable("slack", "order", "recall", "mean probes (hits)", "mean probes (misses)")
	for _, slack := range []struct {
		name string
		frac float64
	}{{"tight 1%", 0.01}, {"generous 10%", 0.10}} {
		pairs, err := workload.Covers(workload.CoverSpec{
			Schema: schema, N: nPairs, SlackFrac: slack.frac, Seed: 121,
		})
		if err != nil {
			return err
		}
		// Index the parents once per order, a fresh array each time.
		for _, order := range []string{"descending (paper)", "ascending"} {
			var arr sfcarray.Index
			for i, p := range pairs {
				arr.Insert(curve.Key(p.Parent.Point()), uint64(i))
			}
			// Interleave with decoy parents far away so misses also occur.
			rng := rand.New(rand.NewSource(5))
			missQs := make([][]uint32, nPairs/3)
			for i := range missQs {
				s := subscription.New(schema)
				lo := uint32(rng.Intn(1 << (k - 2)))
				if err := s.SetRange("price", lo, lo+50); err != nil {
					return err
				}
				missQs[i] = s.Point()
			}

			queries := make([][]uint32, 0, len(pairs)+len(missQs))
			for _, p := range pairs {
				queries = append(queries, p.Child.Point())
			}
			var hitProbes, missProbes, hits, misses float64
			for _, q := range append(queries, missQs...) {
				found, probes, err := searchCubes(curve, &arr, q, eps, order == "ascending", false)
				if err != nil {
					return err
				}
				if found {
					hits++
					hitProbes += float64(probes)
				} else {
					misses++
					missProbes += float64(probes)
				}
			}
			recall := hits / float64(len(pairs)+len(missQs))
			meanHit, meanMiss := 0.0, 0.0
			if hits > 0 {
				meanHit = hitProbes / hits
			}
			if misses > 0 {
				meanMiss = missProbes / misses
			}
			tb.AddRow(slack.name, order, recall, meanHit, meanMiss)
		}
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "paper: probing largest cubes first maximizes volume per probe; ascending order")
	fmt.Fprintln(w, "       burns probes on slivers before reaching the bulk (same cubes, same recall)")
	return nil
}

// searchCubes is the Section 5 ε-search outside the index, on any curve:
// truncate q's extremal region per Lemma 3.2, then probe the standard cubes
// of its greedy partition level by level — largest first, or smallest
// first when ascending — each cube one FirstInRange of its key range on
// arr, until one holds a point. With stopAtTarget the search also ends at
// the first level boundary where the probed volume reaches (1−ε) of the
// region, the rule dominance.Index.QueryCubes follows; without it the
// whole truncated partition is probed. It reports whether a point was
// found and how many cubes were probed.
func searchCubes(c sfc.Curve, arr *sfcarray.Index, q []uint32, eps float64, ascending, stopAtTarget bool) (found bool, probes int, err error) {
	k := c.Bits()
	region := geom.QueryRegion(q, k)
	target, _, err := cubes.TruncateExtremal(region, eps)
	if err != nil {
		return false, 0, err
	}
	targetVol := (1 - eps) * region.Volume()
	searched := 0.0
	for i := 0; i <= k && !found; i++ {
		level := k - i
		if ascending {
			level = i
		}
		if err := cubes.EnumLevelVisit(target, level, func(corner []uint32, side uint64) bool {
			probes++
			cubeVol := 1.0
			for range corner {
				cubeVol *= float64(side)
			}
			searched += cubeVol
			r := sfc.CubeRange(c, corner, side)
			_, found = arr.FirstInRange(r.Lo, r.Hi)
			return !found
		}); err != nil {
			return false, probes, err
		}
		if stopAtTarget && searched >= targetVol {
			break
		}
	}
	return found, probes, nil
}
