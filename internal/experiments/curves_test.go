package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

// The curves the experiments compare Z with are held to the properties
// internal/sfc pins for Z: bijection, Fact 2.1's cube ranges and the
// recursive partition under them, and deterministic keys.

// comparedCurves builds the Hilbert, Gray-code and onion curves for a
// universe, failing the test on error.
func comparedCurves(t *testing.T, d, k int) []sfc.Curve {
	t.Helper()
	out := make([]sfc.Curve, 0, 3)
	for _, name := range []string{"hilbert", "gray", "onion"} {
		c, err := NewCurve(name, d, k)
		if err != nil {
			t.Fatalf("NewCurve(%q, %d, %d): %v", name, d, k, err)
		}
		out = append(out, c)
	}
	return out
}

func TestNewCurve(t *testing.T) {
	for _, name := range []string{"z", "morton", "hilbert", "gray", "onion"} {
		c, err := NewCurve(name, 3, 4)
		if err != nil {
			t.Fatalf("NewCurve(%q): %v", name, err)
		}
		want := name
		if name == "morton" {
			want = "z"
		}
		if c.Name() != want || c.Dims() != 3 || c.Bits() != 4 {
			t.Errorf("NewCurve(%q) = %s over %d dims of %d bits", name, c.Name(), c.Dims(), c.Bits())
		}
	}
	for _, name := range []string{"peano", ""} {
		if c, err := NewCurve(name, 3, 4); err == nil || c != nil {
			t.Errorf("NewCurve(%q) = (%v, %v), want an error and no curve", name, c, err)
		}
	}
	if c, err := NewCurve("hilbert", 0, 4); err == nil || c != nil {
		t.Errorf("NewCurve over 0 dims = (%v, %v), want an error and no curve", c, err)
	}
}

// TestHilbertDimsCap: Key transposes a copy of the cell in a stack buffer
// of HilbertMaxDims coordinates, so a wider universe — which sfc.Config
// accepts up to 512 dimensions at k = 1 — is refused at construction
// instead of panicking on the first key.
func TestHilbertDimsCap(t *testing.T) {
	if _, err := NewHilbert(sfc.Config{Dims: HilbertMaxDims + 1, Bits: 1}); err == nil {
		t.Fatal("hilbert with d > HilbertMaxDims should fail")
	}
	c, err := NewHilbert(sfc.Config{Dims: HilbertMaxDims, Bits: 1})
	if err != nil {
		t.Fatalf("hilbert at the dims cap: %v", err)
	}
	cell := make([]uint32, HilbertMaxDims)
	cell[3] = 1
	if back := c.Cell(c.Key(cell)); back[3] != 1 {
		t.Fatalf("round trip at the dims cap: %v", back)
	}
}

// enumerateCells yields every cell of a small universe.
func enumerateCells(d, k int) [][]uint32 {
	n := 1 << uint(k)
	cells := [][]uint32{}
	cell := make([]uint32, d)
	var rec func(dim int)
	rec = func(dim int) {
		if dim == d {
			cells = append(cells, append([]uint32(nil), cell...))
			return
		}
		for v := 0; v < n; v++ {
			cell[dim] = uint32(v)
			rec(dim + 1)
		}
	}
	rec(0)
	return cells
}

func TestCurvesAreBijections(t *testing.T) {
	shapes := []struct{ d, k int }{{1, 5}, {2, 4}, {3, 3}, {4, 2}}
	for _, sh := range shapes {
		for _, c := range comparedCurves(t, sh.d, sh.k) {
			seen := make(map[bits.Key][]uint32)
			for _, cell := range enumerateCells(sh.d, sh.k) {
				key := c.Key(cell)
				if prev, dup := seen[key]; dup {
					t.Fatalf("%s d=%d k=%d: key collision %v for %v and %v",
						c.Name(), sh.d, sh.k, key, prev, cell)
				}
				seen[key] = cell
				back := c.Cell(key)
				for i := range cell {
					if back[i] != cell[i] {
						t.Fatalf("%s d=%d k=%d: roundtrip %v -> %v", c.Name(), sh.d, sh.k, cell, back)
					}
				}
				if key.Len() > sh.d*sh.k {
					t.Fatalf("%s: key %v wider than %d bits", c.Name(), key, sh.d*sh.k)
				}
			}
		}
	}
}

func TestCurveRoundTripRandomLargeUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []struct{ d, k int }{{4, 16}, {8, 20}, {16, 32}, {6, 10}}
	for _, sh := range shapes {
		for _, c := range comparedCurves(t, sh.d, sh.k) {
			for trial := 0; trial < 100; trial++ {
				cell := make([]uint32, sh.d)
				for i := range cell {
					cell[i] = uint32(rng.Int63()) & (1<<uint(sh.k) - 1)
				}
				back := c.Cell(c.Key(cell))
				for i := range cell {
					if back[i] != cell[i] {
						t.Fatalf("%s d=%d k=%d roundtrip failed: %v -> %v", c.Name(), sh.d, sh.k, cell, back)
					}
				}
			}
		}
	}
}

// TestCubeRangeCoversExactlyCubeCells: Fact 2.1 — for every standard cube
// of a small universe, sfc.CubeRange holds exactly the cube's cells.
func TestCubeRangeCoversExactlyCubeCells(t *testing.T) {
	shapes := []struct{ d, k int }{{2, 3}, {3, 2}}
	for _, sh := range shapes {
		all := enumerateCells(sh.d, sh.k)
		for _, c := range comparedCurves(t, sh.d, sh.k) {
			for lvl := 0; lvl <= sh.k; lvl++ {
				side := uint32(1) << uint(sh.k-lvl)
				for _, cr := range all {
					if !isCorner(cr, side) {
						continue
					}
					rng := sfc.CubeRange(c, cr, uint64(side))
					got := 0
					for _, cell := range all {
						inCube := true
						for i := range cell {
							inCube = inCube && cell[i] >= cr[i] && cell[i] < cr[i]+side
						}
						inRange := rng.Contains(c.Key(cell))
						if inCube != inRange {
							t.Fatalf("%s d=%d k=%d cube corner=%v side=%d: cell %v inCube=%v inRange=%v",
								c.Name(), sh.d, sh.k, cr, side, cell, inCube, inRange)
						}
						if inRange {
							got++
						}
					}
					if want := 1 << uint(sh.d*(sh.k-lvl)); got != want {
						t.Fatalf("%s: cube %v side %d contains %d cells in range, want %d", c.Name(), cr, side, got, want)
					}
				}
			}
		}
	}
}

// isCorner reports whether cell is the minimum corner of a standard cube
// of the given side.
func isCorner(cell []uint32, side uint32) bool {
	for _, x := range cell {
		if x%side != 0 {
			return false
		}
	}
	return true
}

// TestChildrenPartitionParentRange: the key ranges of a standard cube's
// 2^d children exactly partition the parent's — the recursive structure
// Fact 2.1 rests on.
func TestChildrenPartitionParentRange(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	shapes := []struct{ d, k int }{{2, 8}, {3, 6}, {4, 5}}
	for _, sh := range shapes {
		for _, c := range comparedCurves(t, sh.d, sh.k) {
			for trial := 0; trial < 50; trial++ {
				side := uint64(1) << uint(1+rng.Intn(sh.k))
				corner := make([]uint32, sh.d)
				for i := range corner {
					corner[i] = uint32(uint64(rng.Int63n(int64((uint64(1)<<uint(sh.k))/side))) * side)
				}
				parent := sfc.CubeRange(c, corner, side)
				half := side / 2
				var childRanges []sfc.KeyRange
				for mask := 0; mask < 1<<uint(sh.d); mask++ {
					child := make([]uint32, sh.d)
					for i := range child {
						child[i] = corner[i] + uint32(uint64(mask>>uint(i)&1)*half)
					}
					childRanges = append(childRanges, sfc.CubeRange(c, child, half))
				}
				merged := sfc.MergeRanges(childRanges)
				if len(merged) != 1 || merged[0] != parent {
					t.Fatalf("%s d=%d: children merge into %v, parent is %v", c.Name(), sh.d, merged, parent)
				}
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
}

// TestFullUniverseCubeRange checks the degenerate top cube: its range must
// span the whole key space.
func TestFullUniverseCubeRange(t *testing.T) {
	for _, c := range comparedCurves(t, 3, 4) {
		r := sfc.CubeRange(c, []uint32{0, 0, 0}, 16)
		if !r.Lo.IsZero() || r.Hi != bits.LowMask(12) {
			t.Fatalf("%s: universe range is %v", c.Name(), r)
		}
	}
}

// TestKeyOrderIsTotalAndStable spot-checks that keys are pure functions of
// their cells.
func TestKeyOrderIsTotalAndStable(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, c := range comparedCurves(t, 5, 12) {
		for trial := 0; trial < 200; trial++ {
			cell := make([]uint32, 5)
			for i := range cell {
				cell[i] = uint32(rng.Intn(1 << 12))
			}
			if c.Key(cell) != c.Key(cell) {
				t.Fatalf("%s: Key not deterministic", c.Name())
			}
		}
	}
}

// TestRunsNeverExceedCubes: Lemma 3.1, runs(T) <= cubes(T), on the
// compared curves (internal/cubes checks it on Z).
func TestRunsNeverExceedCubes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	curves := []sfc.Curve{MustHilbert(2, 6), MustGray(2, 6)}
	for trial := 0; trial < 40; trial++ {
		lens := []uint64{uint64(rng.Intn(63)) + 1, uint64(rng.Intn(63)) + 1}
		e := geom.MustExtremal(lens, 6)
		cs, err := cubes.Decompose(e.Rect(), 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range curves {
			if runs := cubes.Runs(c, cs); len(runs) > len(cs) || len(runs) == 0 {
				t.Fatalf("%s lens=%v: %d runs for %d cubes", c.Name(), lens, len(runs), len(cs))
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Defining property of the Hilbert curve: consecutive keys map to cells
	// at L1 distance exactly 1.
	shapes := []struct{ d, k int }{{2, 4}, {3, 3}, {4, 2}}
	for _, sh := range shapes {
		h := MustHilbert(sh.d, sh.k)
		total := 1 << uint(sh.d*sh.k)
		prev := h.Cell(bits.KeyFromUint64(0))
		for v := 1; v < total; v++ {
			cur := h.Cell(bits.KeyFromUint64(uint64(v)))
			dist := 0
			for i := range cur {
				di := int(cur[i]) - int(prev[i])
				if di < 0 {
					di = -di
				}
				dist += di
			}
			if dist != 1 {
				t.Fatalf("hilbert d=%d k=%d: keys %d,%d map to cells %v,%v at L1 distance %d",
					sh.d, sh.k, v-1, v, prev, cur, dist)
			}
			prev = cur
		}
	}
}

func TestGrayCurveAdjacencyInterleavedBits(t *testing.T) {
	// Defining property of the Gray-code curve: consecutive keys map to
	// cells whose *interleaved* coordinates differ in exactly one bit.
	g := MustGray(2, 4)
	total := 1 << 8
	prev := bits.Interleave(g.Cell(bits.KeyFromUint64(0)), 4)
	for v := 1; v < total; v++ {
		cur := bits.Interleave(g.Cell(bits.KeyFromUint64(uint64(v))), 4)
		diff := cur.Xor(prev)
		ones := 0
		for p := 0; p < 8; p++ {
			ones += int(diff.Bit(p))
		}
		if ones != 1 {
			t.Fatalf("gray: keys %d,%d differ in %d interleaved bits", v-1, v, ones)
		}
		prev = cur
	}
}

func TestGrayRoundTrip64(t *testing.T) {
	f := func(v uint64) bool {
		k := bits.KeyFromUint64(v)
		g := gray(k)
		if got, _ := g.Uint64(); got != v^v>>1 {
			return false
		}
		return grayInv(g) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrayRoundTripWide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var k bits.Key
		for i := 0; i < bits.KeyWords; i++ {
			k = k.ShlN(64).Or(bits.KeyFromUint64(rng.Uint64()))
		}
		if got := grayInv(gray(k)); got != k {
			t.Fatalf("grayInv(gray(k)) != k for %v", k)
		}
		if got := gray(grayInv(k)); got != k {
			t.Fatalf("gray(grayInv(k)) != k for %v", k)
		}
	}
}

func TestGrayAdjacencyProperty(t *testing.T) {
	// Consecutive integers must have Gray codes differing in exactly one bit.
	prev := gray(bits.KeyFromUint64(0))
	for v := uint64(1); v < 4096; v++ {
		cur := gray(bits.KeyFromUint64(v))
		diff := cur.Xor(prev)
		ones := 0
		for p := 0; p < 16; p++ {
			ones += int(diff.Bit(p))
		}
		if ones != 1 {
			t.Fatalf("gray(%d) and gray(%d) differ in %d bits", v-1, v, ones)
		}
		prev = cur
	}
}
