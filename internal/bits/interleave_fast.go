package bits

import "sync"

// Byte-spread lookup tables for fast interleaving: spreadTables[d][b] holds
// the bits of byte b spaced out with stride d, so interleaving reduces to
// table lookups and shifted ORs instead of per-bit loops. Built lazily once
// per process; ~35 KB total for all strides.
var (
	spreadOnce   sync.Once
	spreadTables [maxSpreadDim + 1][256]uint64
)

const maxSpreadDim = 8 // a spread byte needs bit 7*d+7 < 64, so d <= 8

func initSpreadTables() {
	for d := 1; d <= maxSpreadDim; d++ {
		for b := 0; b < 256; b++ {
			var v uint64
			for t := 0; t < 8; t++ {
				if b>>uint(t)&1 == 1 {
					v |= 1 << uint(t*d)
				}
			}
			spreadTables[d][b] = v
		}
	}
}

// orShifted ORs the low bits of v into the key starting at bit position
// shift (counted from the least significant bit).
func (k *Key) orShifted(v uint64, shift int) {
	if v == 0 {
		return
	}
	word := KeyWords - 1 - shift/64
	off := uint(shift % 64)
	k.w[word] |= v << off
	if off != 0 && word > 0 {
		if hi := v >> (64 - off); hi != 0 {
			k.w[word-1] |= hi
		}
	}
}

// interleaveFast is the lookup-table implementation of Interleave for
// dimensions up to maxSpreadDim. Bit i of coordinate j lands at key bit
// i*d + (d-1-j); processing coordinates a byte at a time, the byte covering
// bits [8t, 8t+8) contributes spread(b) << (8t*d + (d-1-j)).
func interleaveFast(coords []uint32, k int) Key {
	spreadOnce.Do(initSpreadTables)
	d := len(coords)
	table := &spreadTables[d]
	nBytes := (k + 7) / 8
	var key Key
	for j, x := range coords {
		if k < 32 {
			x &= 1<<uint(k) - 1 // ignore bits beyond the universe
		}
		base := d - 1 - j
		for t := 0; t < nBytes; t++ {
			b := byte(x >> uint(8*t))
			if b != 0 {
				key.orShifted(table[b], 8*t*d+base)
			}
		}
	}
	return key
}

// InterleaveWord is Interleave for a universe whose keys fit one word
// (len(coords)·k <= 64), the key returned as its numeric value: the spread
// bytes are ORed into a uint64, never into a Key. Past maxSpreadDim it
// takes Interleave's low word.
//
//sfc:hotpath
func InterleaveWord(coords []uint32, k int) uint64 {
	d := len(coords)
	if d < 1 || d > maxSpreadDim {
		return Interleave(coords, k).LowWord()
	}
	spreadOnce.Do(initSpreadTables)
	table := &spreadTables[d]
	var key uint64
	for j, x := range coords {
		if k < 32 {
			x &= 1<<uint(k) - 1
		}
		// Byte t of a coordinate below bit k lands below bit d·k <= 64.
		for shift := d - 1 - j; x != 0; shift += 8 * d {
			key |= table[byte(x)] << uint(shift)
			x >>= 8
		}
	}
	return key
}
