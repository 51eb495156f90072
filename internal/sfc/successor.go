package sfc

import "sfccover/internal/bits"

// stackDims is how many coordinates the successor routines decode on the
// stack; wider universes fall back to one allocation per call.
const stackDims = 16

// Successor is Curve.NextInExtremal bound to one query corner: what the
// successor walk steps with. Binding does once whatever a curve can hoist
// out of the step — the Z curve on one-word keys encodes q and then steps
// on key words alone; the other curves step through the Curve method. The
// zero value is unbound; q is retained, not copied.
type Successor struct {
	curve Curve
	q     []uint32
	z     *ZCurve // non-nil when the word form applies
	qKey  uint64
}

// Bind points s at the extremal region of q on curve c.
func (s *Successor) Bind(c Curve, q []uint32) {
	*s = Successor{curve: c, q: q}
	if z, ok := c.(*ZCurve); ok && z.dimMask != nil {
		s.z = z
		s.qKey = z.Key(q).LowWord()
	}
}

// Next is c.NextInExtremal(q, from) for the bound c and q.
//
//sfc:hotpath
func (s *Successor) Next(from bits.Key) (bits.Key, bool) {
	if s.z != nil {
		return s.z.nextKey(s.qKey, from)
	}
	return s.curve.NextInExtremal(s.q, from)
}

// QueryKey is the bound corner's one-word key on a Z curve whose keys fit a
// word, 0 otherwise: the key an SFC array's summaries prune seeks by.
func (s *Successor) QueryKey() uint64 { return s.qKey }

// NextWord is Next on a curve whose keys fit one word (d·k <= 64), keys
// passed as their numeric values: the Z curve never leaves the word, the
// other curves step through the Curve method.
//
//sfc:hotpath
func (s *Successor) NextWord(from uint64) (uint64, bool) {
	if s.z != nil {
		return s.z.nextWord(s.qKey, from)
	}
	next, ok := s.curve.NextInExtremal(s.q, bits.KeyFromUint64(from))
	return next.LowWord(), ok
}

func cellBuf(buf *[stackDims]uint32, d int) []uint32 {
	if d <= stackDims {
		return buf[:d]
	}
	return make([]uint32, d)
}

// nextInExtremalByBlocks is NextInExtremal for any recursive curve, from
// Fact 2.1 alone: the level-L block holding a key is the key with its low
// L·d bits cleared, its cells share their coordinates above bit L, and so
// Cell of its first key says whether the block meets the region. The
// search climbs from the cell of from: at each level it tries the later
// siblings of from's block in key order, and the first one that meets
// the region is descended — first child that meets it, level by level —
// to the smallest key inside. Every block it descends into holds an
// answer, so the cost is at most 2·k·2^d cell decodes and usually a
// handful; exponential in d, which is what the curves that need it
// (Hilbert, Gray, onion) are used at.
//
//sfc:hotpath
func nextInExtremalByBlocks(c Curve, q []uint32, from bits.Key) (bits.Key, bool) {
	d, k := c.Dims(), c.Bits()
	if from.Len() > d*k {
		return bits.Key{}, false // past the universe's last key
	}
	var buf [stackDims]uint32
	cell := cellBuf(&buf, d)
	if _, inside := blockRelation(c, cell, q, from, 0); inside {
		return from, true
	}
	for level := 0; level < k; level++ {
		low := level * d
		parent := from.ShrN(low + d)
		blk, ok := from.ShrN(low).Inc()
		for ; ok && blk.ShrN(d) == parent; blk, ok = blk.Inc() {
			first := blk.ShlN(low)
			meets, inside := blockRelation(c, cell, q, first, level)
			if inside {
				return first, true
			}
			if meets {
				return firstInBlock(c, cell, q, first, level), true
			}
		}
	}
	return bits.Key{}, false
}

// firstInBlock returns the smallest key of the region inside the block
// (first, level), which must meet the region without lying inside it.
func firstInBlock(c Curve, cell, q []uint32, first bits.Key, level int) bits.Key {
	d := c.Dims()
	for level > 0 {
		level--
		low := level * d
		// One of the 2^d children meets the region, since their parent does.
		for child := first.ShrN(low); ; child, _ = child.Inc() {
			sub := child.ShlN(low)
			meets, inside := blockRelation(c, cell, q, sub, level)
			if inside {
				return sub
			}
			if meets {
				first = sub
				break
			}
		}
	}
	return first
}

// blockRelation classifies the level-L block whose first key is given
// against the extremal region of q: meets reports a shared cell, inside
// that the whole block lies in the region. cell is decode scratch.
func blockRelation(c Curve, cell, q []uint32, first bits.Key, level int) (meets, inside bool) {
	c.CellInto(first, cell)
	mask := uint32(1)<<uint(level) - 1
	inside = true
	for i, x := range cell {
		if x|mask < q[i] {
			return false, false
		}
		if x&^mask < q[i] {
			inside = false
		}
	}
	return true, inside
}
