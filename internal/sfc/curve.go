// Package sfc implements the Z (Morton) curve the paper builds its index
// on, as a bijection between cells of the discrete universe [0,2^k−1]^d
// and d*k-bit keys, with its successor step (the walk's jump to the next
// key inside an extremal region) and the key-range machinery
// (standard-cube ranges and run merging) on which both the exhaustive and
// the ε-approximate point dominance searches are built. The Curve
// interface is what that machinery needs of a curve; the Hilbert,
// Gray-code and onion curves the experiments compare against implement it
// in internal/experiments.
package sfc

import (
	"fmt"
	mbits "math/bits"
	"slices"

	"sfccover/internal/bits"
)

// Curve is a proximity-preserving bijection between the cells of a
// d-dimensional universe with 2^k cells per dimension and the integers
// [0, 2^(d*k)). A curve must be recursive in the paper's sense, so that
// every standard cube occupies one contiguous, block-aligned key range
// (Fact 2.1), which CubeRange exploits.
type Curve interface {
	// Name identifies the curve ("z" for the Z curve).
	Name() string
	// Dims returns d, the number of dimensions.
	Dims() int
	// Bits returns k, the per-dimension resolution in bits.
	Bits() int
	// Key maps a cell (one coordinate per dimension, each < 2^k) to its
	// position in the curve's total order.
	Key(cell []uint32) bits.Key
	// Cell inverts Key.
	Cell(key bits.Key) []uint32
}

// Config carries the two parameters every curve needs.
type Config struct {
	Dims int // d >= 1
	Bits int // k in [1,32]
}

// Validate checks that the universe fits the key width.
func (c Config) Validate() error {
	if c.Dims < 1 {
		return fmt.Errorf("sfc: dims %d < 1", c.Dims)
	}
	if c.Bits < 1 || c.Bits > 32 {
		return fmt.Errorf("sfc: bits %d out of range [1,32]", c.Bits)
	}
	if c.Dims*c.Bits > bits.KeyBits {
		return fmt.Errorf("sfc: key width %d exceeds %d bits", c.Dims*c.Bits, bits.KeyBits)
	}
	return nil
}

// New constructs the curve named "z" (or "morton"); any other name is an
// error.
func New(name string, cfg Config) (*ZCurve, error) {
	if name != "z" && name != "morton" {
		return nil, fmt.Errorf("sfc: unknown curve %q", name)
	}
	return NewZ(cfg)
}

// KeyRange is a closed interval [Lo, Hi] of curve keys. A run in the
// paper's terminology is a maximal KeyRange whose cells all belong to the
// region under consideration.
type KeyRange struct {
	Lo, Hi bits.Key
}

// Contains reports whether key lies within the range.
func (r KeyRange) Contains(k bits.Key) bool {
	return r.Lo.Cmp(k) <= 0 && k.Cmp(r.Hi) <= 0
}

// CubeRange returns the key range occupied by the standard cube with the
// given minimum corner and side length (a power of two). It relies on
// Fact 2.1: for recursive curves the cube's cells form one contiguous,
// block-aligned segment, so the range is the key of any member cell with
// its low d*log2(side) bits cleared/set.
func CubeRange(c Curve, corner []uint32, side uint64) KeyRange {
	low := trailingBits(c.Dims(), side)
	k := c.Key(corner)
	return KeyRange{Lo: k.ClearLow(low), Hi: k.SetLow(low)}
}

// trailingBits is the number of low key bits a cube of the given side
// spans: d·⌊log2 side⌋ (0 for side 0).
func trailingBits(d int, side uint64) int {
	return d * (mbits.Len64(side|1) - 1)
}

// MergeRanges sorts ranges by Lo and coalesces ranges that touch
// (hi+1 == next lo) or overlap, returning the minimal set of maximal
// ranges — the runs. The input slice is not modified.
func MergeRanges(ranges []KeyRange) []KeyRange {
	if len(ranges) == 0 {
		return nil
	}
	sorted := append([]KeyRange(nil), ranges...)
	return MergeRangesInPlace(sorted)
}

// MergeRangesInPlace is MergeRanges for scratch buffers: the input slice
// is sorted and compacted in place and the merged runs are returned as a
// prefix of it — no allocation in steady state. Callers that need the
// original ranges must use MergeRanges.
func MergeRangesInPlace(ranges []KeyRange) []KeyRange {
	if len(ranges) == 0 {
		return nil
	}
	slices.SortFunc(ranges, compareRangeLo)
	n := 0
	for _, r := range ranges[1:] {
		next, ok := ranges[n].Hi.Inc()
		if ok && r.Lo.Cmp(next) <= 0 {
			if ranges[n].Hi.Less(r.Hi) {
				ranges[n].Hi = r.Hi
			}
			continue
		}
		n++
		ranges[n] = r
	}
	return ranges[:n+1]
}

// compareRangeLo orders key ranges by their low end. A package-level
// function keeps MergeRangesInPlace allocation-free: sort.Slice would
// allocate its closure (and sort.Sort its interface box) on every call.
func compareRangeLo(a, b KeyRange) int { return a.Lo.Cmp(b.Lo) }
