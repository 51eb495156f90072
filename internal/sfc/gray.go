package sfc

import "sfccover/internal/bits"

// GrayCurve is Faloutsos' Gray-code curve [Fal86, Fal88]: cells are ordered
// by the rank of their interleaved coordinates in the standard reflected
// Gray code. Equivalently the key is the Gray-code inverse of the Z key,
// so consecutive cells along the curve differ in exactly one interleaved
// bit. It recursively partitions the universe like the Z curve, so the
// standard-cube/run machinery (Fact 2.1) applies.
type GrayCurve struct {
	cfg Config
}

// NewGray builds a Gray-code curve for the given universe.
func NewGray(cfg Config) (*GrayCurve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &GrayCurve{cfg: cfg}, nil
}

// MustGray is NewGray for known-good configurations.
func MustGray(d, k int) *GrayCurve {
	c, err := NewGray(Config{Dims: d, Bits: k})
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Curve.
func (g *GrayCurve) Name() string { return "gray" }

// Dims implements Curve.
func (g *GrayCurve) Dims() int { return g.cfg.Dims }

// Bits implements Curve.
func (g *GrayCurve) Bits() int { return g.cfg.Bits }

// Key implements Curve: the rank whose Gray code equals the interleaved
// coordinates.
func (g *GrayCurve) Key(cell []uint32) bits.Key {
	return bits.Interleave(cell, g.cfg.Bits).GrayInv()
}

// Cell implements Curve, inverting Key.
func (g *GrayCurve) Cell(key bits.Key) []uint32 {
	return bits.Deinterleave(key.Gray(), g.cfg.Dims, g.cfg.Bits)
}

// CellInto implements Curve.
func (g *GrayCurve) CellInto(key bits.Key, dst []uint32) {
	bits.DeinterleaveInto(dst, key.Gray(), g.cfg.Bits)
}

// NextInExtremal implements Curve by the shared block descent.
func (g *GrayCurve) NextInExtremal(q []uint32, from bits.Key) (bits.Key, bool) {
	return nextInExtremalByBlocks(g, q, from)
}

var _ Curve = (*GrayCurve)(nil)
