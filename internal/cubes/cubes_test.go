package cubes

import (
	"math/big"
	"math/rand"
	"testing"

	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

func TestDecomposeValidation(t *testing.T) {
	r := geom.MustRect([]uint32{0, 0}, []uint32{20, 20})
	if _, err := Decompose(r, 4); err == nil {
		t.Error("rect beyond universe must fail")
	}
	if _, err := Decompose(r, 0); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := Decompose(r, 33); err == nil {
		t.Error("k=33 must fail")
	}
}

// checkPartition verifies that the cubes exactly tile the rectangle.
func checkPartition(t *testing.T, r geom.Rect, cs []Cube, k int) {
	t.Helper()
	covered := make(map[[3]uint32]int)
	d := r.Dims()
	for _, c := range cs {
		if c.Side == 0 || c.Side&(c.Side-1) != 0 {
			t.Fatalf("side %d not a power of two", c.Side)
		}
		for i, lo := range c.Corner {
			if uint64(lo)%c.Side != 0 {
				t.Fatalf("cube %v not aligned on dimension %d", c, i)
			}
		}
		if !r.ContainsRect(c.Rect()) {
			t.Fatalf("cube %v leaks outside %v", c, r)
		}
		var cell [3]uint32
		var rec func(dim int)
		rec = func(dim int) {
			if dim == d {
				covered[cell]++
				return
			}
			for v := uint64(0); v < c.Side; v++ {
				cell[dim] = uint32(uint64(c.Corner[dim]) + v)
				rec(dim + 1)
			}
		}
		rec(0)
	}
	want := int(r.Volume())
	if len(covered) != want {
		t.Fatalf("covered %d cells, want %d", len(covered), want)
	}
	for cell, n := range covered {
		if n != 1 {
			t.Fatalf("cell %v covered %d times", cell, n)
		}
		if !r.Contains(cell[:d]) {
			t.Fatalf("cell %v outside rect", cell)
		}
	}
}

func TestDecomposePartitionsRandomRects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		d := 2 + rng.Intn(2) // 2 or 3 dims
		k := 3
		if d == 2 {
			k = 4
		}
		n := uint32(1) << uint(k)
		lo := make([]uint32, d)
		hi := make([]uint32, d)
		for i := 0; i < d; i++ {
			a, b := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
		}
		r := geom.MustRect(lo, hi)
		cs, err := Decompose(r, k)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, r, cs, k)
	}
}

func TestDecomposeWholeUniverseIsOneCube(t *testing.T) {
	r := geom.MustRect([]uint32{0, 0}, []uint32{15, 15})
	cs, err := Decompose(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].Side != 16 {
		t.Fatalf("whole universe should be a single cube, got %v", cs)
	}
	if cs[0].Level() != 4 {
		t.Errorf("Level = %d, want 4", cs[0].Level())
	}
	if cs[0].Volume() != 256 {
		t.Errorf("Volume = %v, want 256", cs[0].Volume())
	}
}

func TestDecomposeMatchesCensusOnExtremalRects(t *testing.T) {
	// Lemma 3.4/3.5: the closed-form census equals the greedy partition's
	// per-level counts for extremal rectangles.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		d := 2 + rng.Intn(2)
		k := 4
		if d == 3 {
			k = 3
		}
		lens := make([]uint64, d)
		for i := range lens {
			lens[i] = uint64(rng.Intn(1<<uint(k))) + 1
		}
		e := geom.MustExtremal(lens, k)
		cs, err := Decompose(e.Rect(), k)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, k+1)
		for _, c := range cs {
			got[c.Level()]++
		}
		census := LevelCensus(e)
		for lvl := 0; lvl <= k; lvl++ {
			if census[lvl].Cmp(big.NewInt(got[lvl])) != 0 {
				t.Fatalf("lens=%v k=%d level %d: census %v, greedy %d", lens, k, lvl, census[lvl], got[lvl])
			}
		}
	}
}

func TestEnumMatchesDecomposeOnExtremalRects(t *testing.T) {
	// The Appendix-A enumeration must produce exactly the greedy partition.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		d := 2 + rng.Intn(2)
		k := 4
		if d == 3 {
			k = 3
		}
		lens := make([]uint64, d)
		for i := range lens {
			lens[i] = uint64(rng.Intn(1<<uint(k))) + 1
		}
		e := geom.MustExtremal(lens, k)
		want, err := Decompose(e.Rect(), k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EnumAllCubes(e)
		if err != nil {
			t.Fatal(err)
		}
		type sig struct {
			c0, c1, c2 uint32
			side       uint64
		}
		mk := func(c Cube) sig {
			s := sig{side: c.Side, c0: c.Corner[0], c1: c.Corner[1]}
			if len(c.Corner) > 2 {
				s.c2 = c.Corner[2]
			}
			return s
		}
		wantSet := make(map[sig]int)
		for _, c := range want {
			wantSet[mk(c)]++
		}
		for _, c := range got {
			wantSet[mk(c)]--
		}
		for s, n := range wantSet {
			if n != 0 {
				t.Fatalf("lens=%v k=%d: cube multiset mismatch at %+v (delta %d); greedy %d enum %d",
					lens, k, s, n, len(want), len(got))
			}
		}
	}
}

func TestEnumFullUniverse(t *testing.T) {
	// ℓ_j = 2^k on every dimension: one cube, the universe itself.
	e := geom.MustExtremal([]uint64{16, 16}, 4)
	cs, err := EnumAllCubes(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].Side != 16 || cs[0].Corner[0] != 0 || cs[0].Corner[1] != 0 {
		t.Fatalf("full universe enum = %v", cs)
	}
}

func TestEnumLevelCubesRejectsBadLevel(t *testing.T) {
	e := geom.MustExtremal([]uint64{3, 3}, 4)
	if _, err := EnumLevelCubes(e, -1); err == nil {
		t.Error("negative level must fail")
	}
	if _, err := EnumLevelCubes(e, 5); err == nil {
		t.Error("level > k must fail")
	}
}

func TestFigure2RunCounts(t *testing.T) {
	// Figure 2: in a 2-d Z-indexed universe, the 256x256 extremal query
	// region is a single run while the 257x257 one needs 385 runs, with
	// the largest run covering more than 99% of the region.
	z := sfc.MustZ(2, 10)

	small := geom.MustExtremal([]uint64{256, 256}, 10)
	cs, err := Decompose(small.Rect(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("256x256: %d cubes, want 1", len(cs))
	}
	if runs := Runs(z, cs); len(runs) != 1 {
		t.Fatalf("256x256: %d runs, want 1", len(runs))
	}

	big257 := geom.MustExtremal([]uint64{257, 257}, 10)
	cs257, err := Decompose(big257.Rect(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Census: one 256-cube + 513 unit cells = 514 cubes.
	if len(cs257) != 514 {
		t.Fatalf("257x257: %d cubes, want 514", len(cs257))
	}
	runs := Runs(z, cs257)
	if len(runs) != 385 {
		t.Fatalf("257x257: %d runs, want 385 (Figure 2)", len(runs))
	}
	// Largest cube covers 256^2/257^2 > 99% of the region.
	SortByVolumeDesc(cs257)
	if frac := cs257[0].Volume() / big257.Volume(); frac <= 0.99 {
		t.Fatalf("largest cube covers %.4f, want > 0.99", frac)
	}
}

func TestRunsNeverExceedCubes(t *testing.T) {
	// Lemma 3.1: runs(T) <= cubes(T). The curves internal/experiments
	// compares with Z are checked there.
	rng := rand.New(rand.NewSource(23))
	c := sfc.MustZ(2, 6)
	for trial := 0; trial < 40; trial++ {
		lens := []uint64{uint64(rng.Intn(63)) + 1, uint64(rng.Intn(63)) + 1}
		e := geom.MustExtremal(lens, 6)
		cs, err := Decompose(e.Rect(), 6)
		if err != nil {
			t.Fatal(err)
		}
		runs := Runs(c, cs)
		if len(runs) > len(cs) {
			t.Fatalf("lens=%v: %d runs > %d cubes", lens, len(runs), len(cs))
		}
		if len(runs) == 0 {
			t.Fatalf("lens=%v: no runs", lens)
		}
	}
}

func TestChooseM(t *testing.T) {
	if _, err := ChooseM(0, 2); err == nil {
		t.Error("eps=0 must fail")
	}
	if _, err := ChooseM(1, 2); err == nil {
		t.Error("eps=1 must fail")
	}
	if _, err := ChooseM(0.5, 0); err == nil {
		t.Error("d=0 must fail")
	}
	m, err := ChooseM(0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2d/eps = 160, log2 = 7.32 -> m = 8.
	if m != 8 {
		t.Errorf("ChooseM(0.05,4) = %d, want 8", m)
	}
}

func TestLemma32VolumeGuarantee(t *testing.T) {
	// vol(R^m(ℓ)) / vol(R(ℓ)) >= 1 - eps with m = ChooseM(eps, d).
	rng := rand.New(rand.NewSource(31))
	epsilons := []float64{0.3, 0.1, 0.05, 0.01}
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.Intn(5)
		k := 8 + rng.Intn(9)
		lens := make([]uint64, d)
		for i := range lens {
			lens[i] = uint64(rng.Int63n(1<<uint(k))) + 1
		}
		e := geom.MustExtremal(lens, k)
		for _, eps := range epsilons {
			tr, m, err := TruncateExtremal(e, eps)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Empty() {
				t.Fatalf("truncation emptied region: lens=%v m=%d", lens, m)
			}
			ratio := tr.Volume() / e.Volume()
			if ratio < 1-eps {
				t.Fatalf("lens=%v eps=%v m=%d: ratio %v < %v", lens, eps, m, ratio, 1-eps)
			}
			if !e.Rect().ContainsRect(tr.Rect()) {
				t.Fatalf("truncated region escapes original")
			}
		}
	}
}

func TestSortByVolumeDesc(t *testing.T) {
	cs := []Cube{
		{Corner: []uint32{4, 0}, Side: 1},
		{Corner: []uint32{0, 0}, Side: 4},
		{Corner: []uint32{2, 0}, Side: 2},
		{Corner: []uint32{1, 0}, Side: 1},
	}
	SortByVolumeDesc(cs)
	if cs[0].Side != 4 || cs[1].Side != 2 {
		t.Fatalf("not sorted by side: %v", cs)
	}
	if cs[2].Corner[0] != 1 || cs[3].Corner[0] != 4 {
		t.Fatalf("ties not broken by corner: %v", cs)
	}
}

func TestUpperAndLowerBoundFormulas(t *testing.T) {
	// Spot-check the closed forms used by the experiment harness.
	if got := UpperBoundCubes(3, 0, 2); got != 3*7 {
		t.Errorf("UpperBoundCubes(3,0,2) = %v, want 21", got)
	}
	if got := LowerBoundRuns(1, 8, 2); got != 8 {
		t.Errorf("LowerBoundRuns(1,8,2) = %v, want 8", got)
	}
	if got := LowerBoundRuns(0, 16, 3); got != 64 {
		t.Errorf("LowerBoundRuns(0,16,3) = %v, want 64", got)
	}
}

func TestCensusTotalMatchesTheSum(t *testing.T) {
	e := geom.MustExtremal([]uint64{257, 257}, 10)
	total := CensusTotal(LevelCensus(e))
	if total.Cmp(big.NewInt(514)) != 0 {
		t.Fatalf("census total = %v, want 514", total)
	}
}
