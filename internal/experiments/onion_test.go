package experiments

import (
	mbits "math/bits"
	"testing"

	"sfccover/internal/sfc"
)

// TestOnionShellOrder verifies the defining property of the onion
// ordering at the top level: keys are ordered primarily by the shell
// (Hamming weight of the top child mask), so the child containing the
// maximum corner comes last.
func TestOnionShellOrder(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		c := MustOnion(d, 4)
		half := uint32(1) << 3 // top-level bisection
		prevShell := -1
		// Walk the 2^d top-level children in key order of their minimum
		// corners; shells must be non-decreasing.
		type child struct {
			mask  int
			shell int
		}
		children := make([]child, 0, 1<<uint(d))
		for mask := 0; mask < 1<<uint(d); mask++ {
			children = append(children, child{mask, mbits.OnesCount(uint(mask))})
		}
		// Order children by the key of their min corner.
		corner := make([]uint32, d)
		keyOf := func(mask int) uint64 {
			for i := 0; i < d; i++ {
				corner[i] = 0
				if mask>>uint(i)&1 == 1 {
					corner[i] = half
				}
			}
			v, ok := c.Key(corner).Uint64()
			if !ok {
				t.Fatalf("d=%d key overflows uint64", d)
			}
			return v
		}
		for i := 0; i < len(children); i++ {
			for j := i + 1; j < len(children); j++ {
				if keyOf(children[j].mask) < keyOf(children[i].mask) {
					children[i], children[j] = children[j], children[i]
				}
			}
		}
		for _, ch := range children {
			if ch.shell < prevShell {
				t.Fatalf("d=%d: shell order violated: shell %d after %d", d, ch.shell, prevShell)
			}
			prevShell = ch.shell
		}
		if last := children[len(children)-1].mask; last != 1<<uint(d)-1 {
			t.Fatalf("d=%d: max-corner child should come last, got mask %b", d, last)
		}
	}
}

// TestOnionDimsCap checks the table-size cap and that NewCurve routes
// "onion".
func TestOnionDimsCap(t *testing.T) {
	if _, err := NewOnion(sfc.Config{Dims: OnionMaxDims + 1, Bits: 2}); err == nil {
		t.Fatal("onion with d > OnionMaxDims should fail")
	}
	c, err := NewCurve("onion", OnionMaxDims, 2)
	if err != nil {
		t.Fatalf("onion at the dims cap: %v", err)
	}
	if c.Name() != "onion" {
		t.Fatalf("Name() = %q", c.Name())
	}
}

// TestOnionSharesTables checks that two instances of the same
// dimensionality share one table set (the tables are 2^d entries).
func TestOnionSharesTables(t *testing.T) {
	a, b := MustOnion(6, 4), MustOnion(6, 8)
	if a.tab != b.tab {
		t.Fatal("onion tables should be shared per dimensionality")
	}
}
