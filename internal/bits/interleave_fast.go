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

// GatherTable decodes one-word keys of d coordinates, the inverse of the
// spread: entry [m][b] places the bits of byte b at byte m of a key in
// lanes of 64/d bits, coordinate j's in lane j at their bit level, so
// ORing one entry per key byte decodes every coordinate at once. 16 KB.
type GatherTable [8][256]uint64

// Built on first use per d, and shared.
var (
	gatherOnce   [65]sync.Once
	gatherTables [65]*GatherTable
)

// Gather returns the gather table of keys of d coordinates, 1 <= d <= 64,
// building it on first use. A caller that decodes many keys of one
// universe resolves it once (sfc.ZCurve does, at construction) and
// decodes with its DeinterleaveWordInto.
func Gather(d int) *GatherTable {
	gatherOnce[d].Do(func() {
		t := new(GatherTable)
		lane := 64 / d
		for m := range t {
			for b := range t[m] {
				for s := 0; s < 8; s++ {
					// Key bit p holds bit p/d of coordinate d−1−p%d.
					p := 8*m + s
					if i, j := p/d, d-1-p%d; b>>s&1 == 1 && i < lane {
						t[m][b] |= 1 << uint(j*lane+i)
					}
				}
			}
		}
		gatherTables[d] = t
	})
	return gatherTables[d]
}

// DeinterleaveWordInto inverts InterleaveWord for len(dst) coordinates of
// k bits each, len(dst)·k <= 64, on t, which must be Gather(len(dst)): it
// writes the coordinates of key into dst and returns dst, ignoring key
// bits above len(dst)·k. One table lookup a key byte gathers every
// coordinate's bits, where a bit loop takes one step a coordinate bit.
//
//sfc:hotpath
func (t *GatherTable) DeinterleaveWordInto(dst []uint32, key uint64, k int) []uint32 {
	d := len(dst)
	if d*k < 64 {
		key &= 1<<uint(d*k) - 1
	}
	var lanes uint64
	for m := 0; key != 0; m++ {
		lanes |= t[m&7][byte(key)]
		key >>= 8
	}
	lane, low := uint(64/d), uint64(1)<<uint(k)-1
	for j := range dst {
		dst[j] = uint32(lanes >> (uint(j) * lane) & low)
	}
	return dst
}
