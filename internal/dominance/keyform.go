package dominance

import (
	"sfccover/internal/bits"
	"sfccover/internal/sfc"
)

// keyForm is the one seam between the two forms a curve key takes on the
// query path. K is what the path holds: a uint64 when the curve's keys fit
// one word (d·k <= 64, wordForm), a bits.Key — eight words, sized for the
// widest universe — otherwise (wideForm). Everything above the seam — the
// walk, the retry protocol of the sharded seeks and probes — is written
// once over K; the methods are the places where the forms differ, each a
// single call into the form's own function.
type keyForm[K comparable] interface {
	// seek and firstInRange are the array's descents in the form's spelling;
	// seek prunes by the query key qk where the array keeps summaries.
	seek(arr ordered, lo K, qk uint64) (key K, id uint64, ok bool)
	firstInRange(arr ordered, lo, hi K) (id uint64, ok bool)
	// next is the successor step.
	next(s *sfc.Successor, from K) (K, bool)
	// route is routeKey: the last slice of tab whose start is <= k.
	route(tab []bits.Key, k K) int
	// topCube is the key range of the region's top cube (see
	// queryScratch.topCube).
	topCube(c *sfc.ZCurve, sc *queryScratch) (lo, hi K)
}

// WordKeys reports whether the curve's keys fit one word, which selects
// the form a query runs in — and, above the index, what an engine's store
// holds a subscription as (its one-word key, or its rectangle).
func (c Config) WordKeys() bool { return c.Dims*c.Bits <= 64 }

type wordForm struct{}

//sfc:hotpath
func (wordForm) seek(arr ordered, lo, qk uint64) (uint64, uint64, bool) { return arr.SeekWord(lo, qk) }

//sfc:hotpath
func (wordForm) firstInRange(arr ordered, lo, hi uint64) (uint64, bool) {
	return arr.FirstInRangeWord(lo, hi)
}

//sfc:hotpath
func (wordForm) next(s *sfc.Successor, from uint64) (uint64, bool) { return s.NextWord(from) }

// route reads the table's keys by their low word: a boundary is a key of
// the curve, so it fits one whenever wordForm runs.
//
//sfc:hotpath
func (wordForm) route(tab []bits.Key, k uint64) int {
	i := len(tab) - 1
	for i > 0 && k < tab[i].LowWord() {
		i--
	}
	return i
}

// topCube needs only the cube's side: its corner is the universe's max
// corner less the side, whose range is closed form on words.
//
//sfc:hotpath
func (wordForm) topCube(c *sfc.ZCurve, sc *queryScratch) (lo, hi uint64) {
	return c.TopCubeRangeWord(sc.topSide())
}

type wideForm struct{}

// seek ignores qk: no array keeps summaries of keys wider than a word.
func (wideForm) seek(arr ordered, lo bits.Key, _ uint64) (bits.Key, uint64, bool) {
	return arr.Seek(lo)
}

func (wideForm) firstInRange(arr ordered, lo, hi bits.Key) (uint64, bool) {
	return arr.FirstInRange(lo, hi)
}

func (wideForm) next(s *sfc.Successor, from bits.Key) (bits.Key, bool) { return s.Next(from) }

func (wideForm) route(tab []bits.Key, k bits.Key) int { return routeKey(tab, k) }

func (wideForm) topCube(c *sfc.ZCurve, sc *queryScratch) (lo, hi bits.Key) {
	corner, side := sc.topCube(c.Bits())
	r := sfc.CubeRange(c, corner, side)
	return r.Lo, r.Hi
}
