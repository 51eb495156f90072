package sfc

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"sfccover/internal/bits"
	"sfccover/internal/geom"
)

// TestNextInExtremalMatchesBruteForce checks the successor routine
// against an exhaustive scan of the whole universe: for every query corner
// q and every starting key, the answer is the smallest key at or after it
// whose cell dominates q, or none.
func TestNextInExtremalMatchesBruteForce(t *testing.T) {
	universes := []Config{{Dims: 1, Bits: 6}, {Dims: 2, Bits: 4}, {Dims: 3, Bits: 3}, {Dims: 4, Bits: 2}, {Dims: 2, Bits: 1}}
	for _, cfg := range universes {
		c := MustZ(cfg.Dims, cfg.Bits)
		cells := 1 << uint(cfg.Dims*cfg.Bits)
		decoded := make([][]uint32, cells)
		for key := range decoded {
			decoded[key] = c.Cell(bits.KeyFromUint64(uint64(key)))
		}
		for _, q := range decoded { // every cell is a query corner
			next, has := 0, false // smallest in-region key >= key, scanning down
			for key := cells - 1; key >= 0; key-- {
				if geom.Dominates(decoded[key], q) {
					next, has = key, true
				}
				got, ok := c.NextInExtremal(q, bits.KeyFromUint64(uint64(key)))
				if ok != has || (ok && got != bits.KeyFromUint64(uint64(next))) {
					t.Fatalf("d=%d k=%d q=%v from=%d: got (%v,%v), want (%d,%v)",
						cfg.Dims, cfg.Bits, q, key, got, ok, next, has)
				}
			}
			if _, ok := c.NextInExtremal(q, bits.KeyFromUint64(uint64(cells))); ok {
				t.Fatalf("d=%d k=%d q=%v: a key past the universe has a successor", cfg.Dims, cfg.Bits, q)
			}
		}
	}
}

// TestNextInExtremalWordBoundary sets the Z curve's three forms of one
// step side by side at the edge of the word form: d·k = 64, where key
// bit 63 is in play, takes the step on the key word; d·k = 65 must fall
// to the coordinate form. Word form, coordinate form, the bound Successor
// and (where d allows it) the block descent agree on every pair.
func TestNextInExtremalWordBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, cfg := range []Config{{2, 32}, {4, 16}, {8, 8}, {16, 4}, {4, 10}, {5, 13}, {13, 5}} {
		z := MustZ(cfg.Dims, cfg.Bits)
		if word := cfg.Dims*cfg.Bits <= 64; (z.dimMask != nil) != word {
			t.Fatalf("d=%d k=%d: word form armed = %v, want %v", cfg.Dims, cfg.Bits, z.dimMask != nil, word)
		}
		q, start := make([]uint32, cfg.Dims), make([]uint32, cfg.Dims)
		for trial := 0; trial < 20000; trial++ {
			for i := range q {
				// Mostly-high starts keep bit 63 busy; shifts vary the level
				// at which a coordinate first drops below q.
				q[i] = rng.Uint32() >> uint(32-cfg.Bits) >> uint(rng.Intn(cfg.Bits))
				start[i] = rng.Uint32() >> uint(32-cfg.Bits) >> uint(rng.Intn(2)*rng.Intn(cfg.Bits))
			}
			from := z.Key(start)
			next, ok := z.NextInExtremal(q, from)
			if ref, refOK := z.nextCoords(q, from); ref != next || refOK != ok {
				t.Fatalf("d=%d k=%d q=%v from=%v: NextInExtremal (%v,%v), coordinate form (%v,%v)", cfg.Dims, cfg.Bits, q, from, next, ok, ref, refOK)
			}
			var s Successor
			s.Bind(z, q)
			if got, gotOK := s.Next(from); got != next || gotOK != ok {
				t.Fatalf("d=%d k=%d q=%v from=%v: Successor (%v,%v), NextInExtremal (%v,%v)", cfg.Dims, cfg.Bits, q, from, got, gotOK, next, ok)
			}
			if cfg.Dims <= 5 && trial < 2000 {
				if ref, refOK := nextInExtremalByBlocks(z, q, from); ref != next || refOK != ok {
					t.Fatalf("d=%d k=%d q=%v from=%v: NextInExtremal (%v,%v), block descent (%v,%v)", cfg.Dims, cfg.Bits, q, from, next, ok, ref, refOK)
				}
			}
		}
		past, _ := bits.LowMask(cfg.Dims * cfg.Bits).Inc()
		if _, ok := z.NextInExtremal(q, past); ok {
			t.Fatalf("d=%d k=%d: a key past the universe has a successor", cfg.Dims, cfg.Bits)
		}
	}
}

// FuzzNextInExtremal drives the successor routines at key widths no
// brute force reaches (d·k up to the full 512 bits). What it can check
// without enumerating: a successor exists (the region holds the last key),
// it is at or after from, its cell is in the region, from itself is
// returned when it already is, the key just before the answer is outside
// the region, and — independent implementations of one function — the
// word form (d·k <= 64), the coordinate form, the bound Successor and the
// block descent all agree.
func FuzzNextInExtremal(f *testing.F) {
	f.Add(uint8(4), uint8(10), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	f.Add(uint8(3), uint8(7), []byte{0xff, 0xfe, 0x10, 0x00, 0x7f, 0x33, 0x21, 0x09, 0xaa})
	f.Add(uint8(2), uint8(32), []byte{0x80, 0, 0, 0, 0x80, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	f.Add(uint8(5), uint8(6), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4})
	f.Add(uint8(16), uint8(32), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), uint8(31), []byte{0x80, 0, 0, 1, 0x7f, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xfe, 0xff, 0xff, 0xff, 0xff}) // d·k = 64: bit 63
	f.Add(uint8(4), uint8(12), []byte{0x1f, 0xff, 0, 0, 0, 1, 0x10, 0, 0x0f, 0xff, 0x1f, 0xfe})                               // d·k = 65: coordinate form
	f.Fuzz(func(t *testing.T, dims, kbits uint8, data []byte) {
		d, k := 1+int(dims)%16, 1+int(kbits)%32
		c := MustZ(d, k)
		word := func(i int) uint32 {
			var b [4]byte
			if 4*i < len(data) {
				copy(b[:], data[4*i:])
			}
			return binary.BigEndian.Uint32(b[:])
		}
		mask := uint32(1)<<uint(k) - 1
		q, start := make([]uint32, d), make([]uint32, d)
		for i := range q {
			q[i], start[i] = word(i)&mask, word(d+i)&mask
		}
		from := c.Key(start)

		next, ok := c.NextInExtremal(q, from)
		if !ok {
			t.Fatalf("d=%d k=%d q=%v from=%v: the region holds the last key, a successor must exist", d, k, q, from)
		}
		if geom.Dominates(start, q) && next != from {
			t.Fatalf("d=%d k=%d q=%v: from=%v is in the region, got %v", d, k, q, from, next)
		}
		if next.Less(from) {
			t.Fatalf("d=%d k=%d q=%v from=%v: successor %v is before from", d, k, q, from, next)
		}
		if cell := c.Cell(next); !geom.Dominates(cell, q) {
			t.Fatalf("d=%d k=%d q=%v from=%v: successor cell %v outside the region", d, k, q, from, cell)
		}
		if prev, borrow := next.Dec(); borrow && !prev.Less(from) && geom.Dominates(c.Cell(prev), q) {
			t.Fatalf("d=%d k=%d q=%v from=%v: %v is in the region and before the successor %v", d, k, q, from, prev, next)
		}
		var bound Successor
		bound.Bind(c, q)
		if got, gotOK := bound.Next(from); gotOK != ok || got != next {
			t.Fatalf("d=%d k=%d q=%v from=%v: Successor (%v,%v), NextInExtremal (%v,%v)", d, k, q, from, got, gotOK, next, ok)
		}
		if ref, refOK := c.nextCoords(q, from); refOK != ok || ref != next {
			t.Fatalf("d=%d k=%d q=%v from=%v: NextInExtremal (%v,%v), coordinate form (%v,%v)", d, k, q, from, next, ok, ref, refOK)
		}
		if d <= 6 { // the block descent is exponential in d
			if ref, refOK := nextInExtremalByBlocks(c, q, from); refOK != ok || ref != next {
				t.Fatalf("d=%d k=%d q=%v from=%v: closed form (%v,%v), block descent (%v,%v)", d, k, q, from, next, ok, ref, refOK)
			}
		}
	})
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
// handful; exponential in d. It shares nothing with the closed form but
// Fact 2.1, which makes it the reference the closed form is checked by.
func nextInExtremalByBlocks(c *ZCurve, q []uint32, from bits.Key) (bits.Key, bool) {
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
func firstInBlock(c *ZCurve, cell, q []uint32, first bits.Key, level int) bits.Key {
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
func blockRelation(c *ZCurve, cell, q []uint32, first bits.Key, level int) (meets, inside bool) {
	bits.DeinterleaveInto(cell, first, c.Bits())
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
