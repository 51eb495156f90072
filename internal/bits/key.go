// Package bits provides fixed-width multiword binary keys and the bit-level
// operators the paper defines on side lengths: b(x), t(x, m) and S_i(x).
//
// A space-filling-curve key for a d-dimensional universe with 2^k cells per
// dimension is a d*k-bit integer. The package supports keys up to KeyBits
// bits, stored most-significant-word first, so ordinary word-wise comparison
// yields numeric order.
package bits

import (
	"fmt"
	mbits "math/bits"
)

const (
	// KeyWords is the number of 64-bit words in a Key.
	KeyWords = 8
	// KeyBits is the maximum key width supported (d*k must not exceed it).
	KeyBits = KeyWords * 64
)

// Key is an unsigned KeyBits-bit integer. The zero value is the key 0.
// Word 0 holds the most significant bits; bit positions used by the methods
// count from the least significant bit (position 0) upward.
type Key struct {
	w [KeyWords]uint64
}

// KeyFromUint64 returns a Key whose numeric value is v.
func KeyFromUint64(v uint64) Key {
	var k Key
	k.w[KeyWords-1] = v
	return k
}

// KeyFromLow returns the Key whose low len(low) words are low — most
// significant first, like the key itself — and whose higher words are
// zero. It inverts Low: compact storage for keys of a known width.
func KeyFromLow(low []uint64) Key {
	var k Key
	copy(k.w[KeyWords-len(low):], low)
	return k
}

// Low copies the low len(dst) words of k into dst, most significant
// first. A key of at most 64·len(dst) bits survives the round trip
// through KeyFromLow.
func (k Key) Low(dst []uint64) { copy(dst, k.w[KeyWords-len(dst):]) }

// Uint64 returns the numeric value of k if it fits in 64 bits.
// ok is false when the key has bits set above position 63.
func (k Key) Uint64() (v uint64, ok bool) {
	for i := 0; i < KeyWords-1; i++ {
		if k.w[i] != 0 {
			return 0, false
		}
	}
	return k.w[KeyWords-1], true
}

// LowWord returns the least significant word of k: its numeric value when
// the key is known to fit 64 bits, without Uint64's check.
func (k Key) LowWord() uint64 { return k.w[KeyWords-1] }

// Cmp compares two keys numerically, returning -1, 0 or +1.
func (k Key) Cmp(o Key) int {
	for i := 0; i < KeyWords; i++ {
		switch {
		case k.w[i] < o.w[i]:
			return -1
		case k.w[i] > o.w[i]:
			return 1
		}
	}
	return 0
}

// Less reports whether k < o numerically.
func (k Key) Less(o Key) bool { return k.Cmp(o) < 0 }

// Equal reports whether k == o.
func (k Key) Equal(o Key) bool { return k == o }

// IsZero reports whether the key is numerically zero.
func (k Key) IsZero() bool { return k == Key{} }

// Bit returns the bit at position pos (0 = least significant).
func (k Key) Bit(pos int) uint {
	word, off := posIndex(pos)
	return uint(k.w[word]>>off) & 1
}

// SetBit returns a copy of k with the bit at position pos set to b (0 or 1).
func (k Key) SetBit(pos int, b uint) Key {
	word, off := posIndex(pos)
	if b == 0 {
		k.w[word] &^= 1 << off
	} else {
		k.w[word] |= 1 << off
	}
	return k
}

func posIndex(pos int) (word, off uint) {
	if pos < 0 || pos >= KeyBits {
		panic(fmt.Sprintf("bits: key bit position %d out of range [0,%d)", pos, KeyBits))
	}
	return uint(KeyWords - 1 - pos/64), uint(pos % 64)
}

// Inc returns k+1. ok is false on wraparound past the maximum key.
func (k Key) Inc() (sum Key, ok bool) {
	for i := KeyWords - 1; i >= 0; i-- {
		k.w[i]++
		if k.w[i] != 0 {
			return k, true
		}
	}
	return k, false
}

// Dec returns k-1. ok is false when k is zero.
func (k Key) Dec() (diff Key, ok bool) {
	if k.IsZero() {
		return k, false
	}
	for i := KeyWords - 1; i >= 0; i-- {
		k.w[i]--
		if k.w[i] != ^uint64(0) {
			return k, true
		}
	}
	return k, true
}

// Or returns the bitwise OR of k and o.
func (k Key) Or(o Key) Key {
	for i := 0; i < KeyWords; i++ {
		k.w[i] |= o.w[i]
	}
	return k
}

// And returns the bitwise AND of k and o.
func (k Key) And(o Key) Key {
	for i := 0; i < KeyWords; i++ {
		k.w[i] &= o.w[i]
	}
	return k
}

// Xor returns the bitwise XOR of k and o.
func (k Key) Xor(o Key) Key {
	for i := 0; i < KeyWords; i++ {
		k.w[i] ^= o.w[i]
	}
	return k
}

// AndNot returns k with the bits of o cleared (k &^ o).
func (k Key) AndNot(o Key) Key {
	for i := 0; i < KeyWords; i++ {
		k.w[i] &^= o.w[i]
	}
	return k
}

// Shr1 returns k logically shifted right by one bit.
func (k Key) Shr1() Key {
	var out Key
	var carry uint64
	for i := 0; i < KeyWords; i++ {
		out.w[i] = k.w[i]>>1 | carry<<63
		carry = k.w[i] & 1
	}
	return out
}

// LowMask returns a key with the low n bits set and all others clear.
func LowMask(n int) Key {
	if n < 0 || n > KeyBits {
		panic(fmt.Sprintf("bits: LowMask width %d out of range [0,%d]", n, KeyBits))
	}
	var k Key
	for i := KeyWords - 1; i >= 0 && n > 0; i-- {
		if n >= 64 {
			k.w[i] = ^uint64(0)
			n -= 64
		} else {
			k.w[i] = 1<<uint(n) - 1
			n = 0
		}
	}
	return k
}

// ClearLow returns k with the low n bits cleared.
func (k Key) ClearLow(n int) Key { return k.AndNot(LowMask(n)) }

// SetLow returns k with the low n bits set.
func (k Key) SetLow(n int) Key { return k.Or(LowMask(n)) }

// Len returns the minimum number of bits needed to represent k
// (0 for the zero key), i.e. the paper's b(x) generalized to keys.
func (k Key) Len() int {
	for i := 0; i < KeyWords; i++ {
		if k.w[i] != 0 {
			return (KeyWords-1-i)*64 + mbits.Len64(k.w[i])
		}
	}
	return 0
}

// String renders the key as 0x-prefixed hexadecimal with leading zeros
// trimmed to the most significant nonzero word.
func (k Key) String() string {
	i := 0
	for i < KeyWords-1 && k.w[i] == 0 {
		i++
	}
	s := fmt.Sprintf("0x%x", k.w[i])
	for i++; i < KeyWords; i++ {
		s += fmt.Sprintf("%016x", k.w[i])
	}
	return s
}

// ShlN returns k logically shifted left by n bits; bits shifted past
// position KeyBits-1 are discarded.
func (k Key) ShlN(n int) Key {
	if n < 0 {
		panic("bits: negative shift")
	}
	if n >= KeyBits {
		return Key{}
	}
	wordShift, bitShift := n/64, uint(n%64)
	var out Key
	for i := 0; i < KeyWords-wordShift; i++ {
		src := i + wordShift
		out.w[i] = k.w[src] << bitShift
		if bitShift > 0 && src < KeyWords-1 {
			out.w[i] |= k.w[src+1] >> (64 - bitShift)
		}
	}
	return out
}

// ShrN returns k logically shifted right by n bits.
func (k Key) ShrN(n int) Key {
	if n < 0 {
		panic("bits: negative shift")
	}
	if n >= KeyBits {
		return Key{}
	}
	wordShift, bitShift := n/64, uint(n%64)
	var out Key
	for i := KeyWords - 1; i >= wordShift; i-- {
		src := i - wordShift
		out.w[i] = k.w[src] >> bitShift
		if bitShift > 0 && src > 0 {
			out.w[i] |= k.w[src-1] << (64 - bitShift)
		}
	}
	return out
}
