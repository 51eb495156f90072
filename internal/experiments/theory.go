package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"sfccover/internal/cubes"
	"sfccover/internal/dominance"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
	"sfccover/internal/stats"
	"sfccover/internal/workload"
)

// runE1 reproduces Figure 2 exactly: the 256x256 extremal query region is a
// single run on the Z curve while 257x257 shatters into 385 runs, most of
// them covering a vanishing fraction of the region.
func runE1(w io.Writer, _ bool) error {
	e, _ := ByID("E1")
	header(w, e)
	const k = 10
	z := sfc.MustZ(2, k)
	tb := stats.NewTable("query region", "cubes", "runs", "largest-run volume share", "smallest-run volume share")
	for _, side := range []uint64{256, 257} {
		ext := geom.MustExtremal([]uint64{side, side}, k)
		partition, err := cubes.Decompose(ext.Rect(), k)
		if err != nil {
			return err
		}
		runs := cubes.Runs(z, partition)
		cubes.SortByVolumeDesc(partition)
		largest := partition[0].Volume() / ext.Volume()
		smallest := partition[len(partition)-1].Volume() / ext.Volume()
		tb.AddRow(fmt.Sprintf("%dx%d", side, side), len(partition), len(runs), largest, smallest)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "paper: 1 run vs 385 runs; largest run >99%, small runs ~0.0015% each")
	return nil
}

// runE2 reproduces Figure 1: a rectangle that the Hilbert curve covers in 2
// runs needs 3 on the Z curve, plus a whole-universe sweep comparing mean
// run counts per curve.
func runE2(w io.Writer, quick bool) error {
	e, _ := ByID("E2")
	header(w, e)
	const k = 4
	z := sfc.MustZ(2, k)
	h := MustHilbert(2, k)
	g := MustGray(2, k)

	// Find the first rectangle (row-major) with Hilbert=2 and Z=3 runs.
	found := false
	var fx0, fy0, fx1, fy1 uint32
	n := uint32(1) << k
scan:
	for x0 := uint32(0); x0 < n; x0++ {
		for y0 := uint32(0); y0 < n; y0++ {
			for x1 := x0; x1 < n; x1++ {
				for y1 := y0; y1 < n; y1++ {
					r := geom.MustRect([]uint32{x0, y0}, []uint32{x1, y1})
					part, err := cubes.Decompose(r, k)
					if err != nil {
						return err
					}
					if len(cubes.Runs(h, part)) == 2 && len(cubes.Runs(z, part)) == 3 {
						fx0, fy0, fx1, fy1 = x0, y0, x1, y1
						found = true
						break scan
					}
				}
			}
		}
	}
	if !found {
		return fmt.Errorf("E2: no Figure-1 witness rectangle found")
	}
	fmt.Fprintf(w, "witness rectangle [%d,%d]x[%d,%d] in a %dx%d universe: hilbert=2 runs, z=3 runs (Figure 1)\n\n",
		fx0, fx1, fy0, fy1, n, n)

	// Sweep: mean runs over random rectangles per curve.
	trials := 2000
	if quick {
		trials = 300
	}
	rng := rand.New(rand.NewSource(2))
	sums := map[string]float64{}
	for t := 0; t < trials; t++ {
		x0, y0 := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
		x1 := x0 + uint32(rng.Intn(int(n-x0)))
		y1 := y0 + uint32(rng.Intn(int(n-y0)))
		r := geom.MustRect([]uint32{x0, y0}, []uint32{x1, y1})
		part, err := cubes.Decompose(r, k)
		if err != nil {
			return err
		}
		for _, c := range []sfc.Curve{z, h, g} {
			sums[c.Name()] += float64(len(cubes.Runs(c, part)))
		}
	}
	tb := stats.NewTable("curve", "mean runs per random rectangle", "ratio vs hilbert")
	for _, name := range []string{"hilbert", "z", "gray"} {
		tb.AddRow(name, sums[name]/float64(trials), sums[name]/sums["hilbert"])
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "paper: curves based on recursive partitioning stay within small constant factors [MJFS01]")
	return nil
}

// runE3 validates Theorem 3.1: sweep the side length of an alpha=0 query
// region over six octaves; the approximate cost must stay flat (growth
// exponent ~0) and below the Lemma 3.7 bound, while the exhaustive
// partition grows as l^(d-1).
func runE3(w io.Writer, quick bool) error {
	e, _ := ByID("E3")
	header(w, e)
	const d, k = 4, 16
	idx := dominance.MustIndex(dominance.Config{Dims: d, Bits: k})
	epsilons := []float64{0.5, 0.3, 0.2, 0.1}
	if quick {
		epsilons = []float64{0.5, 0.3}
	}
	exps := []uint{8, 10, 12, 14}

	tb := stats.NewTable("eps", "m", "bound m*(2^m-1)^(d-1)", "side 2^8-1", "side 2^10-1", "side 2^12-1", "side 2^14-1", "growth exp")
	for _, eps := range epsilons {
		m, err := cubes.ChooseM(eps, d)
		if err != nil {
			return err
		}
		bound := cubes.UpperBoundCubes(m, 0, d)
		row := []interface{}{eps, m, bound}
		var ls, cs []float64
		for _, ex := range exps {
			l := uint64(1)<<ex - 1
			q := make([]uint32, d)
			for i := range q {
				q[i] = uint32(uint64(1)<<k - l)
			}
			_, _, st, err := idx.QueryCubes(q, eps)
			if err != nil {
				return err
			}
			if float64(st.CubesGenerated) > bound {
				return fmt.Errorf("E3: measured %d cubes exceeds bound %v (eps=%v, l=%d)", st.CubesGenerated, bound, eps, l)
			}
			row = append(row, st.CubesGenerated)
			ls = append(ls, float64(l))
			cs = append(cs, float64(st.CubesGenerated))
		}
		row = append(row, stats.GrowthExponent(ls, cs))
		tb.AddRow(row...)
	}
	fmt.Fprintln(w, tb)

	// The exhaustive contrast on the same regions, at a size where full
	// decomposition is feasible.
	tb2 := stats.NewTable("side (d=2, k=16)", "exhaustive cubes", "exhaustive runs")
	var ls, rs []float64
	for _, ex := range []uint{6, 8, 10, 12} {
		l := uint64(1)<<ex - 1
		ext := geom.MustExtremal([]uint64{l, l}, k)
		part, err := cubes.Decompose(ext.Rect(), k)
		if err != nil {
			return err
		}
		runs := cubes.Runs(sfc.MustZ(2, k), part)
		tb2.AddRow(fmt.Sprintf("2^%d-1", ex), len(part), len(runs))
		ls = append(ls, float64(l))
		rs = append(rs, float64(len(runs)))
	}
	fmt.Fprintln(w, tb2)
	fmt.Fprintf(w, "exhaustive growth exponent vs side length: %.2f (theory: d-1 = 1 for d=2)\n",
		stats.GrowthExponent(ls, rs))
	fmt.Fprintln(w, "paper: approximate cost independent of side length; exhaustive grows as l^(d-1)")
	return nil
}

// runE4 measures the Theorem 4.1 adversarial family: runs of an exhaustive
// search grow as (2^(alpha-1)*l_d)^(d-1), while the approximate search on
// the same regions stays cheap.
func runE4(w io.Writer, quick bool) error {
	e, _ := ByID("E4")
	header(w, e)
	const k = 16
	gammas := []int{3, 4, 5, 6, 7, 8, 9}
	if quick {
		gammas = []int{3, 4, 5, 6}
	}
	for _, cfg := range []struct{ d, alpha int }{{2, 1}, {2, 3}, {3, 1}} {
		if cfg.d == 3 && quick {
			continue
		}
		idx := dominance.MustIndex(dominance.Config{Dims: cfg.d, Bits: k})
		z := sfc.MustZ(cfg.d, k)
		tb := stats.NewTable("gamma", "l_d = 2^gamma-1", "exhaustive runs", "bound (2^(a-1)*l_d)^(d-1)", "approx cubes (eps=0.2)")
		var ls, rs []float64
		gs := gammas
		if cfg.d == 3 {
			gs = gammas[:4] // keep 3-d partitions tractable
		}
		for _, gamma := range gs {
			ext, err := workload.AdversarialExtremal(cfg.d, k, cfg.alpha, gamma)
			if err != nil {
				return err
			}
			part, err := cubes.Decompose(ext.Rect(), k)
			if err != nil {
				return err
			}
			runs := cubes.Runs(z, part)
			bound := cubes.LowerBoundRuns(cfg.alpha, ext.Len[cfg.d-1], cfg.d)
			q := make([]uint32, cfg.d)
			for i := range q {
				q[i] = uint32(uint64(1)<<k - ext.Len[i])
			}
			_, _, st, err := idx.QueryCubes(q, 0.2)
			if err != nil {
				return err
			}
			if float64(len(runs)) < bound {
				return fmt.Errorf("E4: runs %d below the proven lower bound %v", len(runs), bound)
			}
			tb.AddRow(gamma, ext.Len[cfg.d-1], len(runs), bound, st.CubesGenerated)
			ls = append(ls, float64(ext.Len[cfg.d-1]))
			rs = append(rs, float64(len(runs)))
		}
		fmt.Fprintf(w, "d=%d, alpha=%d:\n%s", cfg.d, cfg.alpha, tb.String())
		fmt.Fprintf(w, "growth exponent of runs vs l_d: %.2f (theory: d-1 = %d)\n\n",
			stats.GrowthExponent(ls, rs), cfg.d-1)
	}
	fmt.Fprintln(w, "paper: exhaustive cost is Omega((2^(alpha-1)*l_d)^(d-1)); approximate cost does not grow with l_d")
	return nil
}

// runE5 sweeps the aspect ratio: approximate cost should pick up the
// 2^(alpha*(d-1)) factor of Theorem 3.1.
func runE5(w io.Writer, quick bool) error {
	e, _ := ByID("E5")
	header(w, e)
	const d, k = 3, 16
	const eps = 0.3
	samples := 5
	alphas := []int{0, 1, 2, 3, 4}
	if quick {
		samples = 3
		alphas = []int{0, 1, 2, 3}
	}
	idx := dominance.MustIndex(dominance.Config{Dims: d, Bits: k})
	rng := rand.New(rand.NewSource(5))
	tb := stats.NewTable("alpha", "mean approx cubes", "vs alpha=0", "2^(alpha*(d-1))")
	var base float64
	var as, cs []float64
	for _, alpha := range alphas {
		var total float64
		for s := 0; s < samples; s++ {
			ext, err := workload.RandomExtremal(rng, d, k, alpha)
			if err != nil {
				return err
			}
			q := make([]uint32, d)
			for i := range q {
				q[i] = uint32(uint64(1)<<k - ext.Len[i])
			}
			_, _, st, err := idx.QueryCubes(q, eps)
			if err != nil {
				return err
			}
			total += float64(st.CubesGenerated)
		}
		mean := total / float64(samples)
		if alpha == 0 {
			base = mean
		}
		tb.AddRow(alpha, mean, mean/base, math.Pow(2, float64(alpha*(d-1))))
		as = append(as, math.Pow(2, float64(alpha)))
		cs = append(cs, mean)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "growth exponent of cost vs 2^alpha: %.2f (theory: up to d-1 = %d)\n", stats.GrowthExponent(as, cs), d-1)
	fmt.Fprintln(w, "paper: small aspect ratio is the friendly regime; cost picks up 2^(alpha*(d-1)) otherwise")
	return nil
}

// runE6 sweeps the dimension at fixed eps and alpha=0.
func runE6(w io.Writer, quick bool) error {
	e, _ := ByID("E6")
	header(w, e)
	const k = 14
	const eps = 0.5
	dims := []int{2, 3, 4, 5, 6}
	if quick {
		dims = []int{2, 3, 4}
	}
	tb := stats.NewTable("d", "beta=d/2", "m", "measured cubes", "bound m*(2^m-1)^(d-1)")
	for _, d := range dims {
		idx := dominance.MustIndex(dominance.Config{Dims: d, Bits: k})
		m, err := cubes.ChooseM(eps, d)
		if err != nil {
			return err
		}
		l := uint64(1)<<12 - 1
		q := make([]uint32, d)
		for i := range q {
			q[i] = uint32(uint64(1)<<k - l)
		}
		_, _, st, err := idx.QueryCubes(q, eps)
		if err != nil {
			return err
		}
		bound := cubes.UpperBoundCubes(m, 0, d)
		if float64(st.CubesGenerated) > bound {
			return fmt.Errorf("E6: measured %d exceeds bound %v at d=%d", st.CubesGenerated, bound, d)
		}
		tb.AddRow(d, float64(d)/2, m, st.CubesGenerated, bound)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "paper: the (2d/eps)^(d-1) dependence makes small beta the practical regime")
	return nil
}
