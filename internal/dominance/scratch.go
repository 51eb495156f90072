package dominance

import (
	"slices"

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
	// stats is the query's working Stats: the search closures take its
	// address, which would force a stack-local Stats to escape and cost
	// one heap allocation per query. begin resets it, the search works
	// on it in place, and the query returns it by value.
	stats Stats
	// succ is the walk's NextInExtremal bound to the query corner: the
	// curve encodes q once per query, not once per step.
	succ sfc.Successor
	// routed is the sharded index's view of its slices as one ordered
	// array; it lives here so handing it to the search as an interface
	// does not allocate.
	routed routed
}

// begin resets the scratch for one query and returns its region.
func (sc *queryScratch) begin(q []uint32, k int) geom.Extremal {
	region := sc.region(q, k)
	sc.stats = Stats{AspectRatio: region.AspectRatio(), SearchedLevel: -1}
	return region
}

// region builds the extremal query region over the scratch lens buffer.
// The returned region aliases the scratch: anything retained beyond the
// query must copy.
func (sc *queryScratch) region(q []uint32, k int) geom.Extremal {
	d := len(q)
	if cap(sc.lens) < d {
		sc.lens = make([]uint64, d)
	}
	sc.lens = sc.lens[:d]
	max := uint64(1) << uint(k)
	for i, x := range q {
		sc.lens[i] = max - uint64(x)
	}
	return geom.Extremal{Len: sc.lens, K: k}
}

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
func (sc *queryScratch) topSide() uint64 {
	return uint64(1) << uint(bits.B(slices.Min(sc.lens))-1)
}

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
