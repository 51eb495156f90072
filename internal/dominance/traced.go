package dominance

import (
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/obs"
)

// probeSampleMask times one descent in 8 within a traced query: a probe
// or a seek is a short ordered-structure search, so reading the clock
// around every one would meter the clock, not the descent. Combined with
// query-level trace sampling, the "run_probe" histogram holds a uniform
// sample of descent latencies — the distribution is unbiased, only the
// _count is scaled — and untraced queries pay nothing.
const probeSampleMask = 7

// SetObserver attaches a latency observer to the sharded index: descents
// issued by traced queries are recorded (sampled) into the observer's
// "run_probe" histogram. Must be called before the index serves
// concurrent queries — the field is read without synchronization on the
// probe path.
func (x *ShardedIndex) SetObserver(o *obs.Observer) { x.probeHist = o.Hist("run_probe") }

// QueryInto is Query with an optional trace record — stage timings plus
// per-slice descent counts (tr.Slices) showing how the traffic spread
// over the key slices; tr may be nil — that writes the query's Stats into
// *st, the caller's own (an engine's QueryResult): a walk counts there in
// place, and nothing copies them on the way out. A query Query would
// refuse writes nothing. An untraced approximate query on one-word keys
// takes its walk's first step, the top cube's probe, before it takes a
// scratch (probeTop): a hit — a warm query's usual answer — needs none.
//
//sfc:hotpath
func (x *ShardedIndex) QueryInto(q []uint32, eps float64, tr *obs.QueryTrace, st *Stats) (uint64, bool, error) {
	if err := x.checkQuery(q, eps); err != nil {
		return 0, false, err
	}
	topMissed := false
	if eps > 0 && tr == nil && x.cfg.WordKeys() {
		if id, ok := x.probeTop(q, st); ok {
			return id, true, nil
		}
		topMissed = true
	}
	sc := x.scratchPool.Get().(*queryScratch)
	sc.routed = routed{x: x, tr: tr}
	id, ok, err := x.search(sc, &sc.routed, q, eps, tr, st, topMissed)
	x.scratchPool.Put(sc)
	return id, ok, err
}

// probeTop is an approximate walk's first step on one-word keys, taken on
// the query alone: the probe of the largest standard cube at the
// region's max corner. On a hit it writes the Stats the walk writes for a
// hit on its first step (TestProbeTopMatchesWalk) and reports it; on a
// miss it writes nothing, and the walk goes on from its second step.
//
//sfc:hotpath
func (x *ShardedIndex) probeTop(q []uint32, st *Stats) (uint64, bool) {
	shortest, longest := sides(q, x.cfg.Bits)
	lo, hi := x.curve.TopCubeRangeWord(topSideOf(shortest))
	id, ok := probe[uint64, wordForm](x, lo, hi, nil)
	if ok {
		*st = opening(shortest, longest)
		st.Path, st.WalkSteps, st.RunsProbed, st.Found = PathWalk, 1, 1, true
	}
	return id, ok
}

// routed presents the slices of a ShardedIndex to one query's search as
// a single ordered array: each call is routed by the boundary table.
// Untraced queries go straight through (no clock reads); a traced one
// counts descents per slice into tr and samples their latency into the
// histogram. The sample counter is the query's own, so traced probing
// adds no shared state to the lock-free probe path.
type routed struct {
	x  *ShardedIndex
	tr *obs.QueryTrace
	n  int
}

// sampled reports whether this descent of a traced query is one to time.
func (r *routed) sampled() bool {
	r.n++
	return r.x.probeHist != nil && r.n&probeSampleMask == 1
}

//sfc:hotpath
func (r *routed) FirstInRange(lo, hi bits.Key) (uint64, bool) {
	return routedProbe[bits.Key, wideForm](r, lo, hi)
}

//sfc:hotpath
func (r *routed) FirstInRangeWord(lo, hi uint64) (uint64, bool) {
	return routedProbe[uint64, wordForm](r, lo, hi)
}

//sfc:hotpath
func (r *routed) Seek(lo bits.Key) (bits.Key, uint64, bool) {
	return routedSeek[bits.Key, wideForm](r, lo, 0)
}

//sfc:hotpath
func (r *routed) SeekWord(lo, qk uint64) (uint64, uint64, bool) {
	return routedSeek[uint64, wordForm](r, lo, qk)
}

// routedProbe and routedSeek are the four methods' one body each: the
// sampling decision around probe and seek, whatever the key form.
//
//sfc:hotpath
func routedProbe[K comparable, F keyForm[K]](r *routed, lo, hi K) (uint64, bool) {
	if r.tr != nil && r.sampled() {
		t0 := time.Now()
		id, ok := probe[K, F](r.x, lo, hi, r.tr)
		r.x.probeHist.Observe(time.Since(t0))
		return id, ok
	}
	return probe[K, F](r.x, lo, hi, r.tr)
}

//sfc:hotpath
func routedSeek[K comparable, F keyForm[K]](r *routed, lo K, qk uint64) (K, uint64, bool) {
	if r.tr != nil && r.sampled() {
		t0 := time.Now()
		key, id, ok := seek[K, F](r.x, lo, qk, r.tr)
		r.x.probeHist.Observe(time.Since(t0))
		return key, id, ok
	}
	return seek[K, F](r.x, lo, qk, r.tr)
}

// CostOf copies a Stats into the dependency-free trace cost record.
func CostOf(s Stats) obs.QueryCost {
	return obs.QueryCost{
		Path:           s.Path.String(),
		M:              s.M,
		CubesGenerated: s.CubesGenerated,
		RunsProbed:     s.RunsProbed,
		WalkSteps:      s.WalkSteps,
		VolumeFraction: s.VolumeFraction,
		AspectRatio:    s.AspectRatio,
		Found:          s.Found,
	}
}
