// Command sfcviz draws ASCII pictures of the space filling curves and of
// run decompositions, reproducing the paper's Figures 1 and 2 visually.
// Besides the Z curve the index runs on it draws the curves the
// experiments compare it with (internal/experiments.NewCurve): hilbert,
// gray and onion.
//
//	sfcviz -curve z -k 3                    # visit order of the 8x8 Z curve
//	sfcviz -curve hilbert -k 3              # visit order of the Hilbert curve
//	sfcviz -rect 0,0,1,4 -k 4               # runs of a rectangle (Figure 1)
//	sfcviz -curve onion -rect 0,0,1,4 -k 4  # the same runs on the onion curve
//	sfcviz -figure2                         # run counts of the Figure 2 queries
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/experiments"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

func main() {
	var (
		curveName = flag.String("curve", "z", "curve: z | hilbert | gray | onion")
		k         = flag.Int("k", 3, "universe resolution (2^k cells per side, k <= 5 for drawing)")
		rect      = flag.String("rect", "", "draw run decomposition of x0,y0,x1,y1 instead of visit order")
		figure2   = flag.Bool("figure2", false, "print the Figure 2 run counts (256x256 vs 257x257)")
	)
	flag.Parse()
	if err := run(*curveName, *k, *rect, *figure2); err != nil {
		fmt.Fprintf(os.Stderr, "sfcviz: %v\n", err)
		os.Exit(1)
	}
}

func run(curveName string, k int, rect string, figure2 bool) error {
	if figure2 {
		return printFigure2()
	}
	if k < 1 || k > 5 {
		return fmt.Errorf("drawing needs 1 <= k <= 5, got %d", k)
	}
	c, err := experiments.NewCurve(curveName, 2, k)
	if err != nil {
		return err
	}
	if rect != "" {
		return drawRuns(c, k, rect)
	}
	drawOrder(c, k)
	return nil
}

// drawOrder prints each cell's position in the curve's total order.
func drawOrder(c sfc.Curve, k int) {
	n := 1 << uint(k)
	width := len(strconv.Itoa(n*n - 1))
	fmt.Printf("%s curve visit order, %dx%d universe (x right, y up):\n\n", c.Name(), n, n)
	for y := n - 1; y >= 0; y-- {
		for x := 0; x < n; x++ {
			key := c.Key([]uint32{uint32(x), uint32(y)})
			v, _ := key.Uint64()
			fmt.Printf("%*d ", width, v)
		}
		fmt.Println()
	}
}

// drawRuns decomposes the rectangle into standard cubes, merges them into
// runs on the curve, and letters each cell by its run.
func drawRuns(c sfc.Curve, k int, spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 {
		return fmt.Errorf("-rect wants x0,y0,x1,y1, got %q", spec)
	}
	var v [4]uint32
	for i, p := range parts {
		x, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return fmt.Errorf("-rect component %q: %w", p, err)
		}
		v[i] = uint32(x)
	}
	r, err := geom.NewRect([]uint32{v[0], v[1]}, []uint32{v[2], v[3]})
	if err != nil {
		return err
	}
	partition, err := cubes.Decompose(r, k)
	if err != nil {
		return err
	}
	runs := cubes.Runs(c, partition)
	fmt.Printf("%s curve: rectangle [%d,%d]x[%d,%d] -> %d cubes, %d runs\n\n",
		c.Name(), v[0], v[2], v[1], v[3], len(partition), len(runs))

	runOf := func(key bits.Key) int {
		for i, run := range runs {
			if run.Contains(key) {
				return i
			}
		}
		return -1
	}
	n := 1 << uint(k)
	for y := n - 1; y >= 0; y-- {
		for x := 0; x < n; x++ {
			cell := []uint32{uint32(x), uint32(y)}
			if !r.Contains(cell) {
				fmt.Print(". ")
				continue
			}
			idx := runOf(c.Key(cell))
			if idx < 0 {
				fmt.Print("? ")
				continue
			}
			fmt.Printf("%c ", rune('a'+idx%26))
		}
		fmt.Println()
	}
	fmt.Printf("\ncells lettered by run; '.' is outside the rectangle\n")
	return nil
}

// printFigure2 reports the exact run counts of the two Figure 2 queries.
func printFigure2() error {
	const k = 10
	z := sfc.MustZ(2, k)
	for _, side := range []uint64{256, 257} {
		ext := geom.MustExtremal([]uint64{side, side}, k)
		partition, err := cubes.Decompose(ext.Rect(), k)
		if err != nil {
			return err
		}
		runs := cubes.Runs(z, partition)
		cubes.SortByVolumeDesc(partition)
		fmt.Printf("%dx%d query region: %4d cubes, %3d runs, largest run covers %.2f%% of the region\n",
			side, side, len(partition), len(runs), 100*partition[0].Volume()/ext.Volume())
	}
	fmt.Println("\npaper (Figure 2): 1 run vs 385 runs; the largest run covers more than 99%")
	return nil
}
