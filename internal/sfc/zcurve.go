package sfc

import (
	mbits "math/bits"
	"sync/atomic"

	"sfccover/internal/bits"
)

// ZCurve is the Z (Morton) space filling curve of Section 2: the key of a
// cell is the bit interleaving of its coordinates, with dimension 1
// occupying the most significant slot of each d-bit group. The coordinate
// example of Section 5 — cell (3,5) = (011,101)₂ has key (011011)₂ = 27 —
// fixes the convention.
type ZCurve struct {
	cfg Config
	// dimMask[i] selects the key bits of dimension i — positions
	// j·d + (d−1−i) for j < k — when the whole key fits one word
	// (d·k <= 64); nil otherwise. Masking preserves order within a
	// dimension, so the successor step compares and combines coordinates
	// in place in the key, never decoding them.
	dimMask []uint64
	// gather decodes one-word keys (Gather): resolved at the curve's
	// first decode, not at construction, so a holder that never decodes a
	// key never builds the 16 KB table; one atomic load a key after that.
	gather atomic.Pointer[bits.GatherTable]
}

// NewZ builds a Z curve for the given universe.
func NewZ(cfg Config) (*ZCurve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	z := &ZCurve{cfg: cfg}
	if d := cfg.Dims; d*cfg.Bits <= 64 {
		z.dimMask = make([]uint64, d)
		for i := range z.dimMask {
			for j := 0; j < cfg.Bits; j++ {
				z.dimMask[i] |= 1 << uint(j*d+d-1-i)
			}
		}
	}
	return z, nil
}

// MustZ is NewZ for known-good configurations (tests, examples).
func MustZ(d, k int) *ZCurve {
	c, err := NewZ(Config{Dims: d, Bits: k})
	if err != nil {
		panic(err)
	}
	return c
}

// DimMasks returns the per-dimension key masks the one-word step uses, nil
// when keys are wider than a word. key&m for dimension i's mask orders
// keys as coordinate i orders cells. Shared, not copied.
func (z *ZCurve) DimMasks() []uint64 { return z.dimMask }

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

// KeyWord is Key on a curve whose keys fit one word (d·k <= 64), the key
// returned as its numeric value.
//
//sfc:hotpath
func (z *ZCurve) KeyWord(cell []uint32) uint64 {
	return bits.InterleaveWord(cell, z.cfg.Bits)
}

// TopCubeRangeWord is CubeRange on a curve whose keys fit one word
// (d·k <= 64), for the standard cube of the given side at the universe's
// max corner, the range's ends returned as their numeric values. Every
// coordinate of that corner is 2^k − side, so on the Z curve the cube's
// cells are the keys whose top d·(k − log2 side) bits are all set: the
// range is closed form, no key is interleaved.
//
//sfc:hotpath
func (z *ZCurve) TopCubeRangeWord(side uint64) (lo, hi uint64) {
	hi = lowBits(z.cfg.Dims * z.cfg.Bits)
	return hi &^ lowBits(trailingBits(z.cfg.Dims, side)), hi
}

// lowBits is the word with its n lowest bits set, n <= 64.
func lowBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// Cell implements Curve by de-interleaving.
func (z *ZCurve) Cell(key bits.Key) []uint32 {
	return bits.Deinterleave(key, z.cfg.Dims, z.cfg.Bits)
}

// CellWordInto is Cell on a curve whose keys fit one word (d·k <= 64),
// for the key's numeric value: it writes the d coordinates into dst,
// which must hold d, and returns that prefix of dst. It inverts KeyWord.
func (z *ZCurve) CellWordInto(dst []uint32, key uint64) []uint32 {
	return z.Gather().DeinterleaveWordInto(dst[:z.cfg.Dims], key, z.cfg.Bits)
}

// Gather returns the gather table that decodes the curve's one-word keys
// (d·k <= 64), resolving it at the first call: a caller decoding a key
// calls its DeinterleaveWordInto with d coordinates of k bits. After the
// first call it is one atomic load, small enough to inline.
func (z *ZCurve) Gather() *bits.GatherTable {
	if g := z.gather.Load(); g != nil {
		return g
	}
	return z.resolveGather()
}

// resolveGather is Gather's first call.
func (z *ZCurve) resolveGather() *bits.GatherTable {
	g := bits.Gather(z.cfg.Dims)
	z.gather.Store(g)
	return g
}

// DominatesWord reports whether the one-word Z key key dominates qk on a
// d-dimensional curve: whether key&m >= qk&m under every dimension mask m,
// all masks tested at once. A key reaches qk in a dimension exactly when,
// at the highest bit of that dimension where the two differ, the key
// holds the 1. win marks the bits where the key holds a 1 and qk a 0;
// smeared down by shifts of d, 2d, 4d, … — which keep every bit in its
// dimension — it covers each dimension's bits at and below its highest
// win, so a bit where qk holds the 1 that it leaves uncovered is a
// dimension the key falls short in.
//
//sfc:hotpath
func DominatesWord(d int, key, qk uint64) bool {
	diff := key ^ qk
	win := diff & key
	for sh := uint(d); sh < 64; sh <<= 1 {
		win |= win >> sh
	}
	return diff&qk&^win == 0
}

// NextInExtremal returns the smallest key >= from whose cell lies in the
// extremal region of q, [q_1, 2^k−1] × ... × [q_d, 2^k−1]; ok is false
// when the region holds no key at or after from. It is the jump of the
// successor walk: a cursor that lands on a cell outside the region moves
// straight to the next key inside it, however many cells (or cubes of the
// region's partition) lie between.
//
// The step is the bit scan of Tropf and Herzog's BIGMIN, which an
// extremal region reduces to one step: the region has no upper bounds, so
// scanning from's key from the top the first bit that
// leaves the region is always a coordinate falling below q, it is a 0
// where q has a 1, and the answer raises exactly that bit and completes
// the key below it with the smallest coordinates still >= q. In
// coordinates: with p the highest key position at which some x_i first
// drops below q_i, each dimension keeps its bits at and above p and takes
// max(q_i, those bits) — q_i itself where it was still level with q.
// The region always contains the universe's last key, so ok is true for
// every from inside the universe.
//
// A key that fits one word takes the step on the word (nextWord); wider
// universes decode, step and re-encode (nextCoords). A caller stepping
// many times for one q binds a Successor, which encodes q once.
//
//sfc:hotpath
func (z *ZCurve) NextInExtremal(q []uint32, from bits.Key) (bits.Key, bool) {
	if z.dimMask == nil {
		return z.nextCoords(q, from)
	}
	return z.nextKey(z.Key(q).LowWord(), from)
}

// nextKey is nextWord for a caller holding from as a Key.
//
//sfc:hotpath
func (z *ZCurve) nextKey(qk uint64, from bits.Key) (bits.Key, bool) {
	f, ok := from.Uint64()
	if !ok {
		return bits.Key{}, false // past the universe's last key
	}
	next, ok := z.nextWord(qk, f)
	return bits.KeyFromUint64(next), ok
}

// nextWord is the step on one-word keys, qk the key of q and f the key to
// step from. Dimension i is below q exactly when f&dimMask[i] <
// qk&dimMask[i], and the two first differ at the top set bit of their
// XOR — already a key position — so p is the top bit of the OR of those
// XORs over the dimensions that dropped. Clearing f below p and taking
// the per-dimension maximum with qk, again under the masks, assembles
// the answer in place.
//
//sfc:hotpath
func (z *ZCurve) nextWord(qk, f uint64) (uint64, bool) {
	if n := uint(z.cfg.Dims * z.cfg.Bits); n < 64 && f>>n != 0 {
		return 0, false // past the universe's last key
	}
	var dropped uint64
	for _, m := range z.dimMask {
		if fi, qi := f&m, qk&m; fi < qi {
			dropped |= fi ^ qi
		}
	}
	if dropped == 0 {
		return f, true
	}
	f &= ^uint64(0) << uint(mbits.Len64(dropped)-1)
	var next uint64
	for _, m := range z.dimMask {
		next |= max(f&m, qk&m)
	}
	return next, true
}

// nextCoords is the step in coordinates, for keys wider than one word.
//
//sfc:hotpath
func (z *ZCurve) nextCoords(q []uint32, from bits.Key) (bits.Key, bool) {
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
