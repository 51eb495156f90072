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

// QueryTraced is Query with an optional trace record: stage timings
// plus per-slice descent counts (tr.Slices) showing how the traffic
// spread over the key slices. tr may be nil.
//
//sfc:hotpath
func (x *ShardedIndex) QueryTraced(q []uint32, eps float64, tr *obs.QueryTrace) (uint64, bool, Stats, error) {
	if err := x.checkQuery(q, eps); err != nil {
		return 0, false, Stats{}, err
	}
	sc := x.scratchPool.Get().(*queryScratch)
	defer x.scratchPool.Put(sc)
	sc.routed = routed{x: x, tr: tr}
	id, ok, err := x.search(sc, &sc.routed, q, eps, tr)
	return id, ok, sc.stats, err
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
