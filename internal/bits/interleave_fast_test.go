package bits

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFastInterleaveMatchesReference cross-checks the lookup-table path
// against the per-bit reference for every supported dimension and
// resolution, including boundary coordinates.
func TestFastInterleaveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for d := 1; d <= maxSpreadDim; d++ {
		for _, k := range []int{1, 7, 8, 9, 16, 17, 31, 32} {
			if d*k > KeyBits {
				continue
			}
			for trial := 0; trial < 200; trial++ {
				coords := make([]uint32, d)
				for i := range coords {
					switch trial % 4 {
					case 0:
						coords[i] = uint32(rng.Int63()) & (1<<uint(k) - 1)
					case 1:
						coords[i] = 0
					case 2:
						coords[i] = 1<<uint(k) - 1 // all ones
					default:
						coords[i] = 1 << uint(rng.Intn(k)) // single bit
					}
				}
				fast := interleaveFast(coords, k)
				slow := interleaveSlow(coords, k)
				if fast != slow {
					t.Fatalf("d=%d k=%d coords=%v: fast %v != slow %v", d, k, coords, fast, slow)
				}
			}
		}
	}
}

// TestFastInterleaveMasksOutOfRangeBits ensures coordinates with stray
// bits above the universe resolution do not corrupt the key.
func TestFastInterleaveMasksOutOfRangeBits(t *testing.T) {
	clean := interleaveFast([]uint32{0b101, 0b011}, 3)
	dirty := interleaveFast([]uint32{0b101 | 0xFFFFFF00 | 1<<3, 0b011 | 1<<5}, 3)
	if clean != dirty {
		t.Fatalf("out-of-range coordinate bits leaked into the key")
	}
}

func TestOrShiftedAcrossWordBoundary(t *testing.T) {
	var k Key
	k.orShifted(0xFF, 60) // straddles words KeyWords-1 / KeyWords-2
	for pos := 60; pos < 68; pos++ {
		if k.Bit(pos) != 1 {
			t.Fatalf("bit %d not set", pos)
		}
	}
	if k.Bit(59) != 0 || k.Bit(68) != 0 {
		t.Fatal("neighbouring bits disturbed")
	}
}

// TestDeinterleaveWordInvertsInterleaveWord: on every stride and width a
// word admits (d <= 16, d·k <= 64), the gather steps return the
// coordinates InterleaveWord spread, and ignore bits above d·k.
func TestDeinterleaveWordInvertsInterleaveWord(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for d := 1; d <= 16; d++ {
		for k := 1; d*k <= 64 && k <= 32; k++ {
			top := uint32(uint64(1)<<uint(k) - 1)
			for n := 0; n < 32; n++ {
				c := make([]uint32, d)
				for i := range c {
					c[i] = rng.Uint32() & top
				}
				key := InterleaveWord(c, k)
				if d*k < 64 {
					key |= rng.Uint64() << uint(d*k)
				}
				if got := Gather(d).DeinterleaveWordInto(make([]uint32, d), key, k); !slices.Equal(got, c) {
					t.Fatalf("d=%d k=%d key %#x: DeinterleaveWordInto %v, want %v", d, k, key, got, c)
				}
			}
		}
	}
}

func BenchmarkInterleaveFastD4K16(b *testing.B) {
	coords := []uint32{0xABCD, 0x1234, 0xF0F0, 0x5555}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = interleaveFast(coords, 16)
	}
}

func BenchmarkInterleaveSlowD4K16(b *testing.B) {
	coords := []uint32{0xABCD, 0x1234, 0xF0F0, 0x5555}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = interleaveSlow(coords, 16)
	}
}
