package dominance

import (
	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

// queryScratch is the per-worker reusable state of one query: the region
// buffers, the decomposition arenas and the level enumerator. An Index
// owns one (queries on an Index are single-goroutine, like its writes);
// a ShardedIndex keeps a pool and checks one out per query. In steady
// state no query-path buffer is allocated.
type queryScratch struct {
	lens   []uint64 // query-region side lengths
	rectLo []uint32 // region rectangle scratch
	rectHi []uint32
	dec    cubes.Decomposer
	enum   cubes.LevelEnum
	// stats is the cube search's working Stats: its closures take their
	// address, which would force the caller's Stats to escape and cost one
	// heap allocation per query. The walk works on the caller's in place;
	// an Index's queries, single-goroutine, work on these throughout.
	stats Stats
	// succ is the walk's NextInExtremal bound to the query corner: the
	// curve encodes q once per query, not once per step.
	succ sfc.Successor
	// routed is the sharded index's view of its slices as one ordered
	// array; it lives here so handing it to the search as an interface
	// does not allocate.
	routed routed
	// minLen is the region's shortest side, which sets topSide.
	minLen uint64
}

// begin resets the scratch and st for one query and returns its region,
// built over the scratch lens buffer: the returned region aliases the
// scratch, so anything retained beyond the query must copy.
//
//sfc:hotpath
func (sc *queryScratch) begin(q []uint32, k int, st *Stats) geom.Extremal {
	d := len(q)
	if cap(sc.lens) < d {
		sc.lens = make([]uint64, d)
	}
	sc.lens = sc.lens[:d]
	top := uint64(1) << uint(k)
	shortest, longest := top, uint64(0)
	for i, x := range q {
		l := top - uint64(x)
		sc.lens[i], shortest, longest = l, min(shortest, l), max(longest, l)
	}
	sc.minLen = shortest
	*st = opening(shortest, longest)
	return geom.Extremal{Len: sc.lens, K: k}
}

// sides returns the shortest and the longest side of the region at q in a
// universe of side 2^k, whose sides are 2^k − q[i], without building it:
// one pass over q for both extremes.
//
//sfc:hotpath
func sides(q []uint32, k int) (shortest, longest uint64) {
	lo, hi := q[0], q[0]
	for _, x := range q[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	top := uint64(1) << uint(k)
	return top - uint64(hi), top - uint64(lo)
}

// opening is the Stats a query starts from: its region's aspect ratio (b
// is monotone, so b(shortest) and b(longest) are the extremes
// Extremal.AspectRatio takes) and no level searched yet.
//
//sfc:hotpath
func opening(shortest, longest uint64) Stats {
	return Stats{AspectRatio: bits.B(longest) - bits.B(shortest), SearchedLevel: -1}
}

// topSideOf is the side of the largest standard cube at the max corner of
// a region whose shortest side is l: 2^⌊log2 l⌋, so it lies inside the
// region whatever its aspect ratio.
//
//sfc:hotpath
func topSideOf(l uint64) uint64 { return uint64(1) << uint(bits.B(l)-1) }

// corners returns the two d-coordinate scratch buffers.
func (sc *queryScratch) corners(d int) (lo, hi []uint32) {
	if cap(sc.rectLo) < d {
		sc.rectLo = make([]uint32, d)
		sc.rectHi = make([]uint32, d)
	}
	return sc.rectLo[:d], sc.rectHi[:d]
}

// topCube returns the largest standard cube at the max corner of the
// region begin built: side 2^⌊log2 min ℓ⌋ (topSide), so it lies inside the
// region whatever its aspect ratio.
func (sc *queryScratch) topCube(k int) (corner []uint32, side uint64) {
	side = sc.topSide()
	corner, _ = sc.corners(len(sc.lens))
	for i := range corner {
		corner[i] = uint32(uint64(1)<<uint(k) - side)
	}
	return corner, side
}

// topSide is the side of topCube's cube.
//
//sfc:hotpath
func (sc *queryScratch) topSide() uint64 { return topSideOf(sc.minLen) }

// rect materializes the region as a rectangle over the scratch corner
// buffers (the allocation-free form of Extremal.Rect).
func (sc *queryScratch) rect(region geom.Extremal) geom.Rect {
	lo, hi := sc.corners(len(region.Len))
	max := uint64(1) << uint(region.K)
	for i, l := range region.Len {
		lo[i] = uint32(max - l)
		hi[i] = uint32(max - 1)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}
