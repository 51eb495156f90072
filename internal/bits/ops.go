package bits

import mbits "math/bits"

// B returns b(x), the number of bits in the binary representation of x with
// the most significant bit equal to 1. B(0) is 0; the paper only applies b
// to positive side lengths. For example B(9) = 4.
func B(x uint64) int { return mbits.Len64(x) }

// T returns t(x, m): the integer formed by retaining the m most significant
// bits of x and setting the rest to zero. When m >= b(x) the value is x
// itself; when m <= 0 the value is 0.
func T(x uint64, m int) uint64 {
	b := B(x)
	if m >= b {
		return x
	}
	if m <= 0 {
		return 0
	}
	drop := uint(b - m)
	return x >> drop << drop
}

// S returns S_i(x): the result of keeping only the bits of x at positions
// i and above (positions count from 0 at the least significant bit), per
// the paper's definition S_i(x) = sum_{j=i}^{b(x)-1} x_j 2^j.
func S(x uint64, i int) uint64 {
	if i <= 0 {
		return x
	}
	if i >= 64 {
		return 0
	}
	return x >> uint(i) << uint(i)
}

// TVec applies T element-wise: t(ℓ, m) in the paper's vector notation.
func TVec(xs []uint64, m int) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = T(x, m)
	}
	return out
}

// SVec applies S element-wise: S_i(ℓ) in the paper's vector notation.
func SVec(xs []uint64, i int) []uint64 {
	out := make([]uint64, len(xs))
	for j, x := range xs {
		out[j] = S(x, i)
	}
	return out
}

// BitOf returns bit j of x (0 = least significant), the paper's x_j.
func BitOf(x uint64, j int) uint64 {
	if j < 0 || j >= 64 {
		return 0
	}
	return x >> uint(j) & 1
}

// Interleave builds a d*k-bit key from d coordinates of k bits each by bit
// interleaving, starting from dimension 1 at the most significant position
// within each group, exactly as the Z curve in the paper: for coordinates
// (3, 5) = (011, 101)2 the key is (011011)2 = 27.
func Interleave(coords []uint32, k int) Key {
	d := len(coords)
	if d >= 1 && d <= maxSpreadDim {
		return interleaveFast(coords, k)
	}
	return interleaveSlow(coords, k)
}

// interleaveSlow is the reference per-bit implementation, used for
// dimensions beyond the lookup tables and as the oracle in tests.
func interleaveSlow(coords []uint32, k int) Key {
	d := len(coords)
	var key Key
	pos := d*k - 1 // bit position from the LSB, walked from the key's MSB down
	for g := 0; g < k; g++ {
		coordBit := uint(k - 1 - g)
		for j := 0; j < d; j++ {
			if coords[j]>>coordBit&1 != 0 {
				key.w[KeyWords-1-pos/64] |= 1 << uint(pos%64)
			}
			pos--
		}
	}
	return key
}

// Deinterleave inverts Interleave, recovering d coordinates of k bits each.
func Deinterleave(key Key, d, k int) []uint32 {
	coords := make([]uint32, d)
	DeinterleaveInto(coords, key, k)
	return coords
}

// DeinterleaveInto is Deinterleave writing the len(coords) coordinates
// into the caller's buffer, so query paths decode without allocating.
func DeinterleaveInto(coords []uint32, key Key, k int) {
	d := len(coords)
	clear(coords)
	pos := d*k - 1
	for g := 0; g < k; g++ {
		coordBit := uint(k - 1 - g)
		for j := 0; j < d; j++ {
			if key.w[KeyWords-1-pos/64]>>uint(pos%64)&1 != 0 {
				coords[j] |= 1 << coordBit
			}
			pos--
		}
	}
}
