package sfc

import (
	"math/rand"
	"slices"
	"testing"

	"sfccover/internal/bits"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dims: 0, Bits: 4},
		{Dims: 2, Bits: 0},
		{Dims: 2, Bits: 33},
		{Dims: 17, Bits: 32}, // 544 bits > 512
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", cfg)
		}
	}
	good := []Config{{Dims: 1, Bits: 1}, {Dims: 16, Bits: 32}, {Dims: 8, Bits: 20}}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", cfg, err)
		}
	}
}

// TestNewUnknownCurve: the index runs on Z alone, so every other name —
// the curves kept in internal/experiments for comparison included — is
// an error.
func TestNewUnknownCurve(t *testing.T) {
	for _, name := range []string{"peano", "hilbert", "gray", "onion", ""} {
		if _, err := New(name, Config{Dims: 2, Bits: 4}); err == nil {
			t.Errorf("New(%q) must fail", name)
		}
	}
}

// enumerateCells yields every cell of a small universe.
func enumerateCells(d, k int) [][]uint32 {
	n := 1 << uint(k)
	total := 1
	for i := 0; i < d; i++ {
		total *= n
	}
	cells := make([][]uint32, 0, total)
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
		c := MustZ(sh.d, sh.k)
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
			// Key must be < 2^(d*k).
			if key.Len() > sh.d*sh.k {
				t.Fatalf("%s: key %v wider than %d bits", c.Name(), key, sh.d*sh.k)
			}
		}
	}
}

func TestCurveRoundTripRandomLargeUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []struct{ d, k int }{{4, 16}, {8, 20}, {16, 32}, {6, 10}}
	for _, sh := range shapes {
		c := MustZ(sh.d, sh.k)
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

func TestZCurveKeyMatchesInterleaving(t *testing.T) {
	z := MustZ(2, 3)
	key := z.Key([]uint32{3, 5})
	if got, _ := key.Uint64(); got != 27 {
		t.Fatalf("Z key of (3,5) = %d, want 27 (paper example)", got)
	}
}

func TestCubeRangeCoversExactlyCubeCells(t *testing.T) {
	// Fact 2.1: a standard cube is a single run. For every standard cube of
	// a small universe, the key range must contain exactly the cube's
	// cells.
	shapes := []struct{ d, k int }{{2, 3}, {3, 2}}
	for _, sh := range shapes {
		c := MustZ(sh.d, sh.k)
		n := 1 << uint(sh.k)
		for lvl := 0; lvl <= sh.k; lvl++ {
			side := uint32(1) << uint(sh.k-lvl)
			// Iterate over all cube corners at this level.
			var corners [][]uint32
			corner := make([]uint32, sh.d)
			var rec func(dim int)
			rec = func(dim int) {
				if dim == sh.d {
					corners = append(corners, append([]uint32(nil), corner...))
					return
				}
				for v := uint32(0); v < uint32(n); v += side {
					corner[dim] = v
					rec(dim + 1)
				}
			}
			rec(0)
			for _, cr := range corners {
				rng := CubeRange(c, cr, uint64(side))
				want := 1
				for i := 0; i < sh.d; i++ {
					want *= int(side)
				}
				got := 0
				for _, cell := range enumerateCells(sh.d, sh.k) {
					inCube := true
					for i := range cell {
						if cell[i] < cr[i] || cell[i] >= cr[i]+side {
							inCube = false
							break
						}
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
				if got != want {
					t.Fatalf("%s: cube %v side %d contains %d cells in range, want %d",
						c.Name(), cr, side, got, want)
				}
			}
		}
	}
}

func TestMergeRanges(t *testing.T) {
	k := func(v uint64) bits.Key { return bits.KeyFromUint64(v) }
	r := func(lo, hi uint64) KeyRange { return KeyRange{Lo: k(lo), Hi: k(hi)} }

	tests := []struct {
		name string
		in   []KeyRange
		want []KeyRange
	}{
		{"empty", nil, nil},
		{"single", []KeyRange{r(3, 7)}, []KeyRange{r(3, 7)}},
		{"adjacent merge", []KeyRange{r(0, 3), r(4, 7)}, []KeyRange{r(0, 7)}},
		{"gap preserved", []KeyRange{r(0, 3), r(5, 7)}, []KeyRange{r(0, 3), r(5, 7)}},
		{"unsorted input", []KeyRange{r(8, 9), r(0, 1), r(2, 7)}, []KeyRange{r(0, 9)}},
		{"overlap", []KeyRange{r(0, 5), r(3, 9)}, []KeyRange{r(0, 9)}},
		{"contained", []KeyRange{r(0, 9), r(3, 4)}, []KeyRange{r(0, 9)}},
		{
			"three islands",
			[]KeyRange{r(10, 10), r(0, 0), r(5, 6), r(7, 7)},
			[]KeyRange{r(0, 0), r(5, 7), r(10, 10)},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := MergeRanges(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("got %d ranges %v, want %d %v", len(got), got, len(tt.want), tt.want)
			}
			for i := range got {
				if got[i].Lo.Cmp(tt.want[i].Lo) != 0 || got[i].Hi.Cmp(tt.want[i].Hi) != 0 {
					t.Fatalf("range %d: got %v want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestMergeRangesDoesNotMutateInput(t *testing.T) {
	k := func(v uint64) bits.Key { return bits.KeyFromUint64(v) }
	in := []KeyRange{{Lo: k(5), Hi: k(6)}, {Lo: k(0), Hi: k(1)}}
	MergeRanges(in)
	if got, _ := in[0].Lo.Uint64(); got != 5 {
		t.Fatal("MergeRanges mutated its input")
	}
}

func TestMergeRangesInPlaceMatchesMergeRanges(t *testing.T) {
	c := MustZ(2, 4)
	var ranges []KeyRange
	for x := uint32(0); x < 16; x += 2 {
		for y := uint32(0); y < 16; y += 4 {
			ranges = append(ranges, CubeRange(c, []uint32{x, y}, 1))
		}
	}
	want := MergeRanges(ranges)
	scratch := append([]KeyRange(nil), ranges...)
	got := MergeRangesInPlace(scratch)
	if len(got) != len(want) {
		t.Fatalf("run count mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("run %d mismatch: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCurveNames(t *testing.T) {
	for _, name := range []string{"z", "morton"} {
		c, err := New(name, Config{Dims: 2, Bits: 4})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if c.Name() != "z" || c.Dims() != 2 || c.Bits() != 4 {
			t.Errorf("New(%q) = %s over %d dims of %d bits", name, c.Name(), c.Dims(), c.Bits())
		}
	}
}

// TestWordSetupMatchesKeyForm holds the walk's one-word set-up to the Key
// form, brute force over every universe whose keys fit a word (d <= 16,
// d·k <= 64): the query key KeyWord encodes equals Interleave's low word
// — on random cells, on the corners and on coordinates with bits above k,
// which both ignore — CellWordInto decodes that word to the cell Cell
// decodes from the Key, and the top cube's closed-form range equals
// CubeRange of the cube at the max corner, for every side.
func TestWordSetupMatchesKeyForm(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for d := 1; d <= 16; d++ {
		for k := 1; k <= 32 && d*k <= 64; k++ {
			z := MustZ(d, k)
			top := uint32(1)<<uint(k) - 1
			cells := [][]uint32{make([]uint32, d), make([]uint32, d)}
			for i := range cells[1] {
				cells[1][i] = top
			}
			for n := 0; n < 64; n++ {
				c := make([]uint32, d)
				for i := range c {
					if c[i] = rng.Uint32(); n%2 == 0 {
						c[i] &= top
					}
				}
				cells = append(cells, c)
			}
			var buf [16]uint32
			for _, c := range cells {
				w, key := z.KeyWord(c), bits.Interleave(c, k)
				if w != key.LowWord() {
					t.Fatalf("d=%d k=%d cell %v: KeyWord %#x, Interleave %#x", d, k, c, w, key.LowWord())
				}
				if got, want := z.CellWordInto(buf[:], w), z.Cell(key); !slices.Equal(got, want) {
					t.Fatalf("d=%d k=%d key %#x: CellWordInto %v, Cell %v", d, k, w, got, want)
				}
			}
			corner := make([]uint32, d)
			for s := 0; s <= k; s++ {
				side := uint64(1) << uint(s)
				for i := range corner {
					corner[i] = uint32(uint64(1)<<uint(k) - side)
				}
				r := CubeRange(z, corner, side)
				if lo, hi := z.TopCubeRangeWord(side); lo != r.Lo.LowWord() || hi != r.Hi.LowWord() {
					t.Fatalf("d=%d k=%d side %d: TopCubeRangeWord [%#x,%#x], CubeRange [%#x,%#x]",
						d, k, side, lo, hi, r.Lo.LowWord(), r.Hi.LowWord())
				}
			}
		}
	}
}

// BenchmarkCellWordInto decodes one-word keys of the workloads' universe
// (d 4 × k 10): the engine's Enumerate and Subscription decode every held
// key this way.
func BenchmarkCellWordInto(b *testing.B) {
	z := MustZ(4, 10)
	rng := rand.New(rand.NewSource(44))
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<40 - 1)
	}
	var buf [4]uint32
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		z.CellWordInto(buf[:], keys[i%len(keys)])
	}
}
