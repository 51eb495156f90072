package experiments

import (
	"fmt"

	"sfccover/internal/bits"
	"sfccover/internal/sfc"
)

// HilbertCurve is the d-dimensional Hilbert curve [Hil91], implemented with
// Skilling's transpose algorithm ("Programming the Hilbert curve", 2004).
// Like the Z curve it recursively partitions the universe, so Fact 2.1 and
// the whole run machinery apply unchanged; the paper notes its query
// performance is within a constant factor of the Z curve's [MJFS01].
type HilbertCurve struct {
	cfg sfc.Config
}

// HilbertMaxDims caps the dimensionality of the Hilbert curve: Key
// transposes a copy of the cell on the stack, in a buffer this wide.
const HilbertMaxDims = 16

// NewHilbert builds a Hilbert curve for the given universe. The curve
// supports at most HilbertMaxDims dimensions.
func NewHilbert(cfg sfc.Config) (*HilbertCurve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dims > HilbertMaxDims {
		return nil, fmt.Errorf("experiments: hilbert curve supports at most %d dimensions, got %d", HilbertMaxDims, cfg.Dims)
	}
	return &HilbertCurve{cfg: cfg}, nil
}

// MustHilbert is NewHilbert for known-good configurations.
func MustHilbert(d, k int) *HilbertCurve {
	c, err := NewHilbert(sfc.Config{Dims: d, Bits: k})
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements sfc.Curve.
func (h *HilbertCurve) Name() string { return "hilbert" }

// Dims implements sfc.Curve.
func (h *HilbertCurve) Dims() int { return h.cfg.Dims }

// Bits implements sfc.Curve.
func (h *HilbertCurve) Bits() int { return h.cfg.Bits }

// Key implements sfc.Curve: coordinates -> transposed Hilbert index ->
// interleaved key (dimension 0 holds the most significant bit of each
// group in Skilling's representation, matching bits.Interleave). The
// transpose works on a stack copy: dims are capped at HilbertMaxDims.
func (h *HilbertCurve) Key(cell []uint32) bits.Key {
	var buf [HilbertMaxDims]uint32
	x := buf[:len(cell)]
	copy(x, cell)
	axesToTranspose(x, h.cfg.Bits)
	return bits.Interleave(x, h.cfg.Bits)
}

// Cell implements sfc.Curve, inverting Key.
func (h *HilbertCurve) Cell(key bits.Key) []uint32 {
	x := make([]uint32, h.cfg.Dims)
	h.CellInto(key, x)
	return x
}

// CellInto is Cell writing the coordinates into dst.
func (h *HilbertCurve) CellInto(key bits.Key, dst []uint32) {
	bits.DeinterleaveInto(dst, key, h.cfg.Bits)
	transposeToAxes(dst, h.cfg.Bits)
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

var _ sfc.Curve = (*HilbertCurve)(nil)
