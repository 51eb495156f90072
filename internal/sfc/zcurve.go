package sfc

import (
	mbits "math/bits"

	"sfccover/internal/bits"
)

// ZCurve is the Z (Morton) space filling curve of Section 2: the key of a
// cell is the bit interleaving of its coordinates, with dimension 1
// occupying the most significant slot of each d-bit group. The coordinate
// example of Section 5 — cell (3,5) = (011,101)₂ has key (011011)₂ = 27 —
// fixes the convention.
type ZCurve struct {
	cfg Config
}

// NewZ builds a Z curve for the given universe.
func NewZ(cfg Config) (*ZCurve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ZCurve{cfg: cfg}, nil
}

// MustZ is NewZ for known-good configurations (tests, examples).
func MustZ(d, k int) *ZCurve {
	c, err := NewZ(Config{Dims: d, Bits: k})
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Curve.
func (z *ZCurve) Name() string { return "z" }

// Dims implements Curve.
func (z *ZCurve) Dims() int { return z.cfg.Dims }

// Bits implements Curve.
func (z *ZCurve) Bits() int { return z.cfg.Bits }

// Key implements Curve by bit interleaving.
func (z *ZCurve) Key(cell []uint32) bits.Key {
	return bits.Interleave(cell, z.cfg.Bits)
}

// Cell implements Curve by de-interleaving.
func (z *ZCurve) Cell(key bits.Key) []uint32 {
	return bits.Deinterleave(key, z.cfg.Dims, z.cfg.Bits)
}

// CellInto implements Curve.
func (z *ZCurve) CellInto(key bits.Key, dst []uint32) {
	bits.DeinterleaveInto(dst, key, z.cfg.Bits)
}

// NextInExtremal implements Curve with the bit scan of Tropf and Herzog's
// BIGMIN, which an extremal region reduces to one step: the region has no
// upper bounds, so scanning from's key from the top the first bit that
// leaves the region is always a coordinate falling below q, it is a 0
// where q has a 1, and the answer raises exactly that bit and completes
// the key below it with the smallest coordinates still >= q. In
// coordinates: with p the highest key position at which some x_i first
// drops below q_i, each dimension keeps its bits above p and takes
// max(q_i, those bits) — q_i itself where it was still level with q.
// The region always contains the universe's last key, so ok is true for
// every from inside the universe.
//
//sfc:hotpath
func (z *ZCurve) NextInExtremal(q []uint32, from bits.Key) (bits.Key, bool) {
	d := z.cfg.Dims
	if from.Len() > d*z.cfg.Bits {
		return bits.Key{}, false // past the universe's last key
	}
	var buf [stackDims]uint32
	x := cellBuf(&buf, d)
	bits.DeinterleaveInto(x, from, z.cfg.Bits)
	p := -1
	for i, xi := range x {
		if xi < q[i] {
			// Bit j of coordinate i sits at key position j*d + (d-1-i).
			if pos := (mbits.Len32(xi^q[i])-1)*d + d - 1 - i; pos > p {
				p = pos
			}
		}
	}
	if p < 0 {
		return from, true
	}
	for i := range x {
		// Coordinate bits of dimension i below key position p.
		cut := uint((p - (d - 1 - i) + d - 1) / d)
		if x[i] = x[i] >> cut << cut; x[i] < q[i] {
			x[i] = q[i]
		}
	}
	return bits.Interleave(x, z.cfg.Bits), true
}

var _ Curve = (*ZCurve)(nil)
