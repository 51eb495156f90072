// Package sfc implements the space filling curves the paper analyzes — the
// Z (Morton) curve, the Hilbert curve and the Gray-code curve — as
// bijections between cells of the discrete universe [0,2^k−1]^d and d*k-bit
// keys, together with the key-range machinery (standard-cube ranges and run
// merging) on which both the exhaustive and the ε-approximate point
// dominance searches are built.
package sfc

import (
	"fmt"
	"slices"

	"sfccover/internal/bits"
)

// Curve is a proximity-preserving bijection between the cells of a
// d-dimensional universe with 2^k cells per dimension and the integers
// [0, 2^(d*k)). All curves here are recursive in the paper's sense, so
// every standard cube occupies one contiguous, block-aligned key range
// (Fact 2.1), which CubeRange exploits.
type Curve interface {
	// Name identifies the curve ("z", "hilbert", "gray", "onion").
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
	// CellInto is Cell writing the Dims coordinates into dst, so query
	// paths decode without allocating.
	CellInto(key bits.Key, dst []uint32)
	// NextInExtremal returns the smallest key >= from whose cell lies in
	// the extremal region of q, [q_1, 2^k−1] × ... × [q_d, 2^k−1]; ok is
	// false when the region holds no key at or after from. It is the
	// jump of the successor walk: a cursor that lands on a cell outside
	// the region moves straight to the next key inside it, however many
	// cells (or cubes of the region's partition) lie between.
	NextInExtremal(q []uint32, from bits.Key) (next bits.Key, ok bool)
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

// New constructs a curve by name: "z", "hilbert", "gray" or "onion".
func New(name string, cfg Config) (Curve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "z", "morton":
		return NewZ(cfg)
	case "hilbert":
		return NewHilbert(cfg)
	case "gray":
		return NewGray(cfg)
	case "onion":
		return NewOnion(cfg)
	default:
		return nil, fmt.Errorf("sfc: unknown curve %q", name)
	}
}

// Names lists the curve families New accepts, in their canonical order.
func Names() []string { return []string{"z", "hilbert", "gray", "onion"} }

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

// CubeRangeWord is CubeRange on a curve whose keys fit one word
// (d·k <= 64), the range's ends returned as their numeric values.
//
//sfc:hotpath
func CubeRangeWord(c Curve, corner []uint32, side uint64) (lo, hi uint64) {
	k := c.Key(corner).LowWord()
	mask := ^uint64(0)
	if low := trailingBits(c.Dims(), side); low < 64 {
		mask = 1<<uint(low) - 1
	}
	return k &^ mask, k | mask
}

func trailingBits(d int, side uint64) int {
	lvl := 0
	for s := side; s > 1; s >>= 1 {
		lvl++
	}
	return d * lvl
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
