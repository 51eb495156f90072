package experiments

import (
	"fmt"
	mbits "math/bits"
	"sync"

	"sfccover/internal/bits"
	"sfccover/internal/sfc"
)

// OnionMaxDims caps the dimensionality of the onion curve: the digit
// substitution tables have 2^d entries, so d is limited to keep them at
// most 2×64K uint16s (256 KiB, shared per d across instances).
const OnionMaxDims = 16

// OnionCurve is a recursive shell-ordered curve inspired by the Onion
// curve of Xu, Nguyen and Tirthapura (arXiv:1801.07399), which achieves
// near-optimal clustering for range queries by visiting the universe in
// concentric shells. The true Onion curve is not recursive in the
// paper's sense — its shells cut across standard cubes — and Fact 2.1
// (every standard cube is one contiguous, block-aligned key range) is
// load-bearing for sfc.CubeRange, so we keep the recursive
// skeleton of the Z curve and apply the onion idea per bisection level
// instead: at every level the 2^d child octants are visited shell by
// shell, ordered by the Hamming weight of the child mask, so the
// children nearest the maximum corner of every block come last. Extremal
// query regions R(ℓ) are anchored at the maximum corner, and their
// intersection with any standard cube is again anchored at that cube's
// maximum corner, so the in-region cells of every block concentrate at
// the tail of its key range — the layout the run-merging step rewards.
// Whether that beats Hilbert's reflected continuity is an empirical
// question; E11 measures it.
//
// Mechanically the key is the Z key with each d-bit group substituted
// through a per-level rank table (shell order), so Key and Cell cost the
// same as the Z curve plus one table lookup per level.
type OnionCurve struct {
	cfg sfc.Config
	tab *onionTables
}

// onionTables maps a child octant mask to its shell-order digit and
// back. Tables are built once per dimensionality and shared.
type onionTables struct {
	rank []uint16 // child mask -> digit in shell order
	inv  []uint16 // digit -> child mask
}

var (
	onionMu     sync.Mutex
	onionShared = map[int]*onionTables{}
)

func onionTablesFor(d int) *onionTables {
	onionMu.Lock()
	defer onionMu.Unlock()
	if t := onionShared[d]; t != nil {
		return t
	}
	n := 1 << uint(d)
	t := &onionTables{rank: make([]uint16, n), inv: make([]uint16, n)}
	digit := 0
	for shell := 0; shell <= d; shell++ {
		for mask := 0; mask < n; mask++ {
			if mbits.OnesCount(uint(mask)) == shell {
				t.rank[mask] = uint16(digit)
				t.inv[digit] = uint16(mask)
				digit++
			}
		}
	}
	onionShared[d] = t
	return t
}

// NewOnion builds an onion curve for the given universe. The curve
// supports at most OnionMaxDims dimensions.
func NewOnion(cfg sfc.Config) (*OnionCurve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dims > OnionMaxDims {
		return nil, fmt.Errorf("experiments: onion curve supports at most %d dimensions, got %d", OnionMaxDims, cfg.Dims)
	}
	return &OnionCurve{cfg: cfg, tab: onionTablesFor(cfg.Dims)}, nil
}

// MustOnion is NewOnion for known-good configurations.
func MustOnion(d, k int) *OnionCurve {
	c, err := NewOnion(sfc.Config{Dims: d, Bits: k})
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements sfc.Curve.
func (o *OnionCurve) Name() string { return "onion" }

// Dims implements sfc.Curve.
func (o *OnionCurve) Dims() int { return o.cfg.Dims }

// Bits implements sfc.Curve.
func (o *OnionCurve) Bits() int { return o.cfg.Bits }

// Key implements sfc.Curve: per level (most significant first) the child
// octant mask is gathered — dimension 1 in the most significant slot,
// the package's interleaving convention — and substituted through the
// shell-order rank table.
func (o *OnionCurve) Key(cell []uint32) bits.Key {
	var key bits.Key
	d, kb := o.cfg.Dims, o.cfg.Bits
	for y := kb - 1; y >= 0; y-- {
		var m uint32
		for i := 0; i < d; i++ {
			m = m<<1 | (cell[i]>>uint(y))&1
		}
		key = key.ShlN(d).Or(bits.KeyFromUint64(uint64(o.tab.rank[m])))
	}
	return key
}

// Cell implements sfc.Curve by inverting the digit substitution level by
// level.
func (o *OnionCurve) Cell(key bits.Key) []uint32 {
	cell := make([]uint32, o.cfg.Dims)
	o.CellInto(key, cell)
	return cell
}

// CellInto is Cell writing the coordinates into cell.
func (o *OnionCurve) CellInto(key bits.Key, cell []uint32) {
	d, kb := o.cfg.Dims, o.cfg.Bits
	clear(cell)
	mask := bits.LowMask(d)
	for y := 0; y < kb; y++ {
		dig, _ := key.And(mask).Uint64()
		m := o.tab.inv[dig]
		for i := 0; i < d; i++ {
			cell[i] |= uint32(m>>uint(d-1-i)&1) << uint(y)
		}
		key = key.ShrN(d)
	}
}

var _ sfc.Curve = (*OnionCurve)(nil)
