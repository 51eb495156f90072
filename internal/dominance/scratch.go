package dominance

import (
	"sfccover/internal/cubes"
	"sfccover/internal/geom"
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
	// one heap allocation per query. Query zeroes it, threads
	// &sc.stats through the search, and returns it by value.
	stats Stats
}

// region builds the extremal query region over the scratch lens buffer.
// The returned region aliases the scratch: anything retained beyond the
// query (cache entries, Stats) must copy.
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

// rect materializes the region as a rectangle over the scratch corner
// buffers (the allocation-free form of Extremal.Rect).
func (sc *queryScratch) rect(region geom.Extremal) geom.Rect {
	d := len(region.Len)
	if cap(sc.rectLo) < d {
		sc.rectLo = make([]uint32, d)
		sc.rectHi = make([]uint32, d)
	}
	lo, hi := sc.rectLo[:d], sc.rectHi[:d]
	max := uint64(1) << uint(region.K)
	for i, l := range region.Len {
		lo[i] = uint32(max - l)
		hi[i] = uint32(max - 1)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}
