package sfc

import "sfccover/internal/bits"

// HilbertCurve is the d-dimensional Hilbert curve [Hil91], implemented with
// Skilling's transpose algorithm ("Programming the Hilbert curve", 2004).
// Like the Z curve it recursively partitions the universe, so Fact 2.1 and
// the whole run machinery apply unchanged; the paper notes its query
// performance is within a constant factor of the Z curve's [MJFS01].
type HilbertCurve struct {
	cfg Config
}

// NewHilbert builds a Hilbert curve for the given universe.
func NewHilbert(cfg Config) (*HilbertCurve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &HilbertCurve{cfg: cfg}, nil
}

// MustHilbert is NewHilbert for known-good configurations.
func MustHilbert(d, k int) *HilbertCurve {
	c, err := NewHilbert(Config{Dims: d, Bits: k})
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Curve.
func (h *HilbertCurve) Name() string { return "hilbert" }

// Dims implements Curve.
func (h *HilbertCurve) Dims() int { return h.cfg.Dims }

// Bits implements Curve.
func (h *HilbertCurve) Bits() int { return h.cfg.Bits }

// Key implements Curve: coordinates -> transposed Hilbert index ->
// interleaved key (dimension 0 holds the most significant bit of each
// group in Skilling's representation, matching bits.Interleave). The
// transpose works on a stack copy: dims are capped at 16 by Config.
func (h *HilbertCurve) Key(cell []uint32) bits.Key {
	var buf [16]uint32
	x := buf[:len(cell)]
	copy(x, cell)
	axesToTranspose(x, h.cfg.Bits)
	return bits.Interleave(x, h.cfg.Bits)
}

// Cell implements Curve, inverting Key.
func (h *HilbertCurve) Cell(key bits.Key) []uint32 {
	x := make([]uint32, h.cfg.Dims)
	h.CellInto(key, x)
	return x
}

// CellInto implements Curve.
func (h *HilbertCurve) CellInto(key bits.Key, dst []uint32) {
	bits.DeinterleaveInto(dst, key, h.cfg.Bits)
	transposeToAxes(dst, h.cfg.Bits)
}

// NextInExtremal implements Curve by the shared block descent.
func (h *HilbertCurve) NextInExtremal(q []uint32, from bits.Key) (bits.Key, bool) {
	return nextInExtremalByBlocks(h, q, from)
}

// axesToTranspose converts cell coordinates into the "transposed" Hilbert
// index in place. b is the number of bits per coordinate.
func axesToTranspose(x []uint32, b int) {
	n := len(x)
	if n < 2 || b < 1 {
		return // 1-d Hilbert is the identity; nothing to rotate
	}
	m := uint32(1) << uint(b-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose in place.
func transposeToAxes(x []uint32, b int) {
	n := len(x)
	if n < 2 || b < 1 {
		return
	}
	bigN := uint32(2) << uint(b-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != bigN; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

var _ Curve = (*HilbertCurve)(nil)
