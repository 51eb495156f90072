package dominance

import (
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/geom"
	"sfccover/internal/obs"
	"sfccover/internal/sfc"
)

// ordered is what a search needs of the SFC array: the entry with the
// smallest key at or after a cursor, and the first entry of a key range,
// each in both key forms (see keyForm) — the Word pair only ever called
// when the curve's keys fit one word, SeekWord passing the leaves whose
// summaries rule out a dominator of the query key qk (sfcarray.Index).
// The single-array index passes its array; the sharded index passes a
// view that routes each call to the key slices it concerns. Each call is
// one ordered-structure descent per array actually searched — the unit
// Stats.RunsProbed counts.
type ordered interface {
	Seek(lo bits.Key) (key bits.Key, id uint64, ok bool)
	FirstInRange(lo, hi bits.Key) (id uint64, ok bool)
	SeekWord(lo, qk uint64) (key, id uint64, ok bool)
	FirstInRangeWord(lo, hi uint64) (id uint64, ok bool)
}

// search answers one query in the index's one dispatch order: the
// successor walk, and the cube search only when the walk overran its step
// budget. Exact queries (eps == 0) walk from the bottom without a budget
// — the walk's answer is then the dominator with the smallest key — so
// they never reach the cubes. The query's Stats are written into *st:
// by the walk in place, and by the cube search on the scratch's copy (its
// closures take the address), copied back once it is done. topMissed
// says the caller has already probed an approximate query's top cube and
// found nothing there (ShardedIndex.probeTop): the walk counts that step
// and does not take it again.
//
//sfc:hotpath
func (d *dispatch) search(sc *queryScratch, arr ordered, q []uint32, eps float64, tr *obs.QueryTrace, st *Stats, topMissed bool) (uint64, bool, error) {
	region := sc.begin(q, d.cfg.Bits, st)
	if eps == 0 {
		id, found, _ := d.walk(arr, q, 0, topNone, sc, tr, st)
		return id, found, nil
	}
	top := topProbe
	if topMissed {
		top = topDone
	}
	id, found, done := d.walk(arr, q, d.cfg.MaxCubes, top, sc, tr, st)
	if done {
		return id, found, nil
	}
	sc.stats = *st
	id, found, err := searchCubes(d.curve, d.cfg.Bits, d.cfg.MaxCubes, sc, arr, region, eps, tr)
	*st = sc.stats
	return id, found, err
}

// walk runs the successor walk in the form the curve's keys take: on
// words when they fit one, on bits.Key otherwise.
//
//sfc:hotpath
func (d *dispatch) walk(arr ordered, q []uint32, budget int, top topStep, sc *queryScratch, tr *obs.QueryTrace, st *Stats) (id uint64, found, done bool) {
	if d.cfg.WordKeys() {
		return walk[uint64, wordForm](d.curve, arr, q, budget, top, sc, tr, st)
	}
	return walk[bits.Key, wideForm](d.curve, arr, q, budget, top, sc, tr, st)
}

// topStep is what a walk's first step does with the region's top cube.
type topStep uint8

const (
	topNone  topStep = iota // no top step: walk from the bottom only
	topProbe                // probe the top cube first
	topDone                 // the caller probed it and missed: count the step only
)

// walk is the exact search in front of the paper's: a cursor runs over
// the keys of the region in curve order, but only ever stops at stored
// ones. Seek the first stored key at or after the cursor; if its cell
// dominates q it is the answer — the dominator with the smallest key —
// and if not, NextInExtremal (bound to q once, as sc.succ) moves the
// cursor past every key outside the region in one jump. Where the array
// keeps summaries a seek also passes every leaf, and every block of
// leaves, that holds no dominator of q (the query key qk rides along), and
// checks the entries of the leaf it lands in against qk: it returns the
// first dominator there — in the region, so the step is the hit — or else
// the first entry of the next leaf that admits qk. It never lands past the
// smallest dominator, so the answer is an unpruned walk's, the steps
// fewer, and their number depends on the leaf layout as well as the key
// set. The walk ends at a hit, at the end of the array or of the region
// (an exact miss: the whole region was searched), or when budget seeks
// are spent (budget 0 = unlimited); only the last leaves the query
// undecided (done == false). A step is one descent plus at most one leaf
// check. The step count is bounded by the region's runs and — with
// summaries, by the leaves that admit q; without them, by the stored keys
// lying between the runs — whichever is smaller, never by the cubes of
// its partition.
//
// With topProbe the walk spends its first step on the region's thickest
// run, the largest standard cube at its max corner: the paper's point
// that the largest cube holds the most volume per probe, taken once. Up
// from the query's own corner the region's runs start thin, and a
// population with generous covers — any router's — pays several steps
// there for a dominator that one probe at the top finds. Exact queries
// promise the dominator with the smallest key and walk from the bottom
// only. With topDone that step was the caller's and missed; the walk
// counts it and goes on. A non-nil tr collects the "walk" stage; the
// walk's counts go into stats. The body is written once over the cursor's
// type K; F names where the two forms differ.
//
//sfc:hotpath
func walk[K comparable, F keyForm[K]](curve *sfc.ZCurve, arr ordered, q []uint32, budget int, top topStep, sc *queryScratch, tr *obs.QueryTrace, stats *Stats) (id uint64, found, done bool) {
	var f F
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	done = true
	if top != topNone {
		stats.WalkSteps++
	}
	if top == topProbe {
		lo, hi := f.topCube(curve, sc)
		id, found = f.firstInRange(arr, lo, hi)
	}
	var cursor K
	var qk uint64
	inRegion := !found
	if inRegion {
		sc.succ.Bind(curve, q)
		qk = sc.succ.QueryKey()
		cursor, inRegion = f.next(&sc.succ, cursor)
	}
	for inRegion {
		if budget > 0 && stats.WalkSteps == budget {
			done = false
			break
		}
		stats.WalkSteps++
		key, kid, ok := f.seek(arr, cursor, qk)
		if !ok {
			break
		}
		if key != cursor {
			if cursor, inRegion = f.next(&sc.succ, key); !inRegion || cursor != key {
				continue
			}
		}
		id, found = kid, true
		break
	}
	stats.RunsProbed += stats.WalkSteps
	if tr != nil {
		tr.AddStage("walk", time.Since(t0), stats.WalkSteps)
	}
	if done {
		stats.Path = PathWalk
		stats.Found = found
		if !found {
			stats.VolumeFraction = 1
			stats.SearchedLevel = 0
		}
	}
	return id, found, done
}

// searchCubes is the paper's search: the exhaustive decomposition for
// eps == 0, the Section 5 ε-search otherwise.
//
//sfc:hotpath
func searchCubes(curve *sfc.ZCurve, k, maxCubes int, sc *queryScratch, arr ordered, region geom.Extremal, eps float64, tr *obs.QueryTrace) (uint64, bool, error) {
	sc.stats.Path = PathCubes
	if eps == 0 {
		return searchExhaustive(curve, k, sc, arr, region, tr)
	}
	return searchApprox(curve, k, maxCubes, sc, arr, region, eps, tr)
}

// searchExhaustive decomposes the whole query region, merges the
// partition into maximal runs — the probe count is runs(R(ℓ)), the paper's
// exhaustive cost — and probes every run until a point turns up. A
// non-nil tr collects stage timings: "decompose" covers the partition and
// run merge, "probes" the probe loop.
//
//sfc:hotpath
func searchExhaustive(curve *sfc.ZCurve, k int, sc *queryScratch, arr ordered, region geom.Extremal, tr *obs.QueryTrace) (uint64, bool, error) {
	stats := &sc.stats
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	partition, err := sc.dec.Decompose(sc.rect(region), k)
	if err != nil {
		return 0, false, err
	}
	runs := sc.dec.Runs(curve, partition)
	if tr != nil {
		tr.AddStage("decompose", time.Since(t0), len(partition))
		pt, before := time.Now(), stats.RunsProbed
		defer func() { tr.AddStage("probes", time.Since(pt), stats.RunsProbed-before) }()
	}
	stats.CubesGenerated = len(partition)
	stats.VolumeFraction = 1
	stats.SearchedLevel = 0
	for _, r := range runs {
		stats.RunsProbed++
		if id, ok := arr.FirstInRange(r.Lo, r.Hi); ok {
			stats.Found = true
			return id, true, nil
		}
	}
	return 0, false, nil
}

// searchApprox is the Section 5 algorithm: truncate the region per
// Lemma 3.2, then enumerate the greedy partition level by level (largest
// cubes first) with the Appendix-A algorithm, probing each cube's key
// range as it is produced. The search ends at the first hit, at the
// level boundary where the searched volume reaches (1−ε) of the query
// region, or at the maxCubes cap. A non-nil tr collects stage timings:
// "truncate" covers the Lemma 3.2 truncation, "enumerate_probes" the
// interleaved cube enumeration and probe loop.
//
//sfc:hotpath
func searchApprox(curve *sfc.ZCurve, k, maxCubes int, sc *queryScratch, arr ordered, region geom.Extremal, eps float64, tr *obs.QueryTrace) (uint64, bool, error) {
	stats := &sc.stats
	fullVol := region.Volume()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	target, m, err := cubes.TruncateExtremal(region, eps)
	if err != nil {
		return 0, false, err
	}
	if tr != nil {
		tr.AddStage("truncate", time.Since(t0), m)
		pt, before := time.Now(), stats.RunsProbed
		defer func() { tr.AddStage("enumerate_probes", time.Since(pt), stats.RunsProbed-before) }()
	}
	stats.M = m
	targetVol := (1 - eps) * fullVol

	var (
		foundID  uint64
		searched float64 // volume probed so far
		capped   bool
	)
	for level := k; level >= 0; level-- {
		err := sc.enum.Visit(target, level, func(corner []uint32, side uint64) bool {
			stats.CubesGenerated++
			stats.RunsProbed++
			cubeVol := 1.0
			for range corner {
				cubeVol *= float64(side)
			}
			searched += cubeVol
			r := sfc.CubeRange(curve, corner, side)
			if id, ok := arr.FirstInRange(r.Lo, r.Hi); ok {
				foundID = id
				stats.Found = true
				return false
			}
			if maxCubes > 0 && stats.CubesGenerated >= maxCubes {
				capped = true
				return false
			}
			return true
		})
		if err != nil {
			return 0, false, err
		}
		stats.VolumeFraction = searched / fullVol
		if stats.Found {
			return foundID, true, nil
		}
		if capped {
			if level < k {
				stats.SearchedLevel = level + 1
			}
			return 0, false, nil
		}
		// Level complete: the searched prefix tiles R(S_level(ℓ'))
		// (Lemma 3.4). Stop at the boundary once the volume target is met.
		stats.SearchedLevel = level
		if searched >= targetVol {
			return 0, false, nil
		}
	}
	// Ran through every level: the whole truncated region was searched.
	return 0, false, nil
}
