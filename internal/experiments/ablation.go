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

			var hitProbes, missProbes, hits, misses float64
			search := func(q []uint32) (bool, int) {
				region := geom.QueryRegion(q, k)
				target, _, err := cubes.TruncateExtremal(region, eps)
				if err != nil {
					panic(err)
				}
				probes := 0
				found := false
				levels := make([]int, 0, k+1)
				for lvl := k; lvl >= 0; lvl-- {
					levels = append(levels, lvl)
				}
				if order == "ascending" {
					for i, j := 0, len(levels)-1; i < j; i, j = i+1, j-1 {
						levels[i], levels[j] = levels[j], levels[i]
					}
				}
				for _, lvl := range levels {
					if found {
						break
					}
					if err := cubes.EnumLevelVisit(target, lvl, func(corner []uint32, side uint64) bool {
						probes++
						r := sfc.CubeRange(curve, corner, side)
						if _, ok := arr.FirstInRange(r.Lo, r.Hi); ok {
							found = true
							return false
						}
						return true
					}); err != nil {
						panic(err)
					}
				}
				return found, probes
			}
			for _, p := range pairs {
				found, probes := search(p.Child.Point())
				if found {
					hits++
					hitProbes += float64(probes)
				} else {
					misses++
					missProbes += float64(probes)
				}
			}
			for _, q := range missQs {
				found, probes := search(q)
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
