package sfc

import "sfccover/internal/bits"

// stackDims is how many coordinates the successor routines decode on the
// stack; wider universes fall back to one allocation per call.
const stackDims = 16

// Successor is ZCurve.NextInExtremal bound to one query corner: what the
// successor walk steps with. Binding encodes q once where the curve's keys
// fit one word, so the step runs on key words alone; wider keys step in
// coordinates. The zero value is unbound; q is retained, not copied.
type Successor struct {
	z    *ZCurve
	q    []uint32
	qKey uint64
}

// Bind points s at the extremal region of q on curve z.
func (s *Successor) Bind(z *ZCurve, q []uint32) {
	*s = Successor{z: z, q: q}
	if z.dimMask != nil {
		s.qKey = z.KeyWord(q)
	}
}

// Next is z.NextInExtremal(q, from) for the bound z and q.
//
//sfc:hotpath
func (s *Successor) Next(from bits.Key) (bits.Key, bool) {
	if s.z.dimMask != nil {
		return s.z.nextKey(s.qKey, from)
	}
	return s.z.nextCoords(s.q, from)
}

// QueryKey is the bound corner's one-word key when the curve's keys fit a
// word, 0 otherwise: the key an SFC array's summaries prune seeks by.
func (s *Successor) QueryKey() uint64 { return s.qKey }

// NextWord is Next on a curve whose keys fit one word (d·k <= 64), keys
// passed as their numeric values: the step never leaves the word.
//
//sfc:hotpath
func (s *Successor) NextWord(from uint64) (uint64, bool) {
	return s.z.nextWord(s.qKey, from)
}

func cellBuf(buf *[stackDims]uint32, d int) []uint32 {
	if d <= stackDims {
		return buf[:d]
	}
	return make([]uint32, d)
}
