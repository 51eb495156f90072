package sfc

import (
	"math/rand"
	"testing"

	"sfccover/internal/bits"
)

// TestChildrenPartitionParentRange verifies that the key ranges of a
// standard cube's 2^d children exactly partition the parent's key range —
// the recursive structure Fact 2.1 rests on.
func TestChildrenPartitionParentRange(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	shapes := []struct{ d, k int }{{2, 8}, {3, 6}, {4, 5}}
	for _, sh := range shapes {
		c := MustZ(sh.d, sh.k)
		for trial := 0; trial < 50; trial++ {
			// Pick a random standard cube at a random level >= 1.
			lvl := 1 + rng.Intn(sh.k)
			side := uint64(1) << uint(lvl)
			corner := make([]uint32, sh.d)
			for i := range corner {
				cells := uint64(1) << uint(sh.k)
				corner[i] = uint32(uint64(rng.Int63n(int64(cells/side))) * side)
			}
			parent := CubeRange(c, corner, side)

			// Collect child ranges.
			half := side / 2
			var childRanges []KeyRange
			for mask := 0; mask < 1<<uint(sh.d); mask++ {
				child := make([]uint32, sh.d)
				for i := range child {
					child[i] = corner[i]
					if mask>>uint(i)&1 == 1 {
						child[i] = uint32(uint64(corner[i]) + half)
					}
				}
				childRanges = append(childRanges, CubeRange(c, child, half))
			}
			merged := MergeRanges(childRanges)
			if len(merged) != 1 {
				t.Fatalf("%s d=%d: children do not merge into one range (%d)", c.Name(), sh.d, len(merged))
			}
			if merged[0].Lo.Cmp(parent.Lo) != 0 || merged[0].Hi.Cmp(parent.Hi) != 0 {
				t.Fatalf("%s d=%d: children range %v != parent %v", c.Name(), sh.d, merged[0], parent)
			}
			// Children must be pairwise disjoint.
			for i := range childRanges {
				for j := i + 1; j < len(childRanges); j++ {
					a, b := childRanges[i], childRanges[j]
					if a.Contains(b.Lo) || b.Contains(a.Lo) {
						t.Fatalf("%s: child ranges overlap", c.Name())
					}
				}
			}
		}
	}
}

// TestFullUniverseCubeRange checks the degenerate top cube: its range must
// span the whole key space.
func TestFullUniverseCubeRange(t *testing.T) {
	c := MustZ(3, 4)
	r := CubeRange(c, []uint32{0, 0, 0}, 16)
	if !r.Lo.IsZero() {
		t.Fatalf("%s: universe range starts at %v", c.Name(), r.Lo)
	}
	want := bits.LowMask(12) // 3*4 bits of ones
	if r.Hi.Cmp(want) != 0 {
		t.Fatalf("%s: universe range ends at %v, want %v", c.Name(), r.Hi, want)
	}
}

// TestKeyOrderIsTotalAndStable spot-checks that curve keys order cells
// identically across repeated computation (pure functions).
func TestKeyOrderIsTotalAndStable(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	c := MustZ(5, 12)
	for trial := 0; trial < 200; trial++ {
		cell := make([]uint32, 5)
		for i := range cell {
			cell[i] = uint32(rng.Intn(1 << 12))
		}
		k1 := c.Key(cell)
		k2 := c.Key(cell)
		if k1.Cmp(k2) != 0 {
			t.Fatalf("%s: Key not deterministic", c.Name())
		}
	}
}
