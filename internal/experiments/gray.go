package experiments

import (
	"sfccover/internal/bits"
	"sfccover/internal/sfc"
)

// GrayCurve is Faloutsos' Gray-code curve [Fal86, Fal88]: cells are ordered
// by the rank of their interleaved coordinates in the standard reflected
// Gray code. Equivalently the key is the Gray-code inverse of the Z key,
// so consecutive cells along the curve differ in exactly one interleaved
// bit. It recursively partitions the universe like the Z curve, so the
// standard-cube/run machinery (Fact 2.1) applies.
type GrayCurve struct {
	cfg sfc.Config
}

// NewGray builds a Gray-code curve for the given universe.
func NewGray(cfg sfc.Config) (*GrayCurve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &GrayCurve{cfg: cfg}, nil
}

// MustGray is NewGray for known-good configurations.
func MustGray(d, k int) *GrayCurve {
	c, err := NewGray(sfc.Config{Dims: d, Bits: k})
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements sfc.Curve.
func (g *GrayCurve) Name() string { return "gray" }

// Dims implements sfc.Curve.
func (g *GrayCurve) Dims() int { return g.cfg.Dims }

// Bits implements sfc.Curve.
func (g *GrayCurve) Bits() int { return g.cfg.Bits }

// Key implements sfc.Curve: the rank whose Gray code equals the interleaved
// coordinates.
func (g *GrayCurve) Key(cell []uint32) bits.Key {
	return grayInv(bits.Interleave(cell, g.cfg.Bits))
}

// Cell implements sfc.Curve, inverting Key.
func (g *GrayCurve) Cell(key bits.Key) []uint32 {
	return bits.Deinterleave(gray(key), g.cfg.Dims, g.cfg.Bits)
}

// gray returns the standard reflected Gray code of k: k XOR (k >> 1).
func gray(k bits.Key) bits.Key { return k.Xor(k.Shr1()) }

// grayInv returns the binary number whose standard reflected Gray code is
// k, i.e. the inverse of gray, computed over all bits.KeyBits bits.
func grayInv(k bits.Key) bits.Key {
	// Prefix-XOR scan: shift-and-fold doubling over the full key width.
	out := k
	for shift := 1; shift < bits.KeyBits; shift *= 2 {
		out = out.Xor(out.ShrN(shift))
	}
	return out
}

var _ sfc.Curve = (*GrayCurve)(nil)
