package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"sfccover/internal/dominance"
	"sfccover/internal/stats"
	"sfccover/internal/workload"
)

// e15Budget and e15Eps are the daemon's step budget and the benchmark's ε.
const (
	e15Budget = 50000
	e15Eps    = 0.3
)

// e15Row is one population of the regime map: workload.NearMiss (mid one
// below a power of two, or shifted onto it when aligned), or uniform
// points under uniform queries from the upper half of every coordinate.
type e15Row struct {
	uniform bool
	d, k, n int
	aligned bool
}

func (r e15Row) name() string {
	switch {
	case r.uniform:
		return "uniform"
	case r.aligned:
		return "near-miss aligned"
	}
	return "near-miss"
}

// e15Rows lists the map: near-miss at d 4, 6, 8 (d·k 40, 60, 64) in both
// alignments, uniform controls, and one universe past the word (d 8 × k
// 10, d·k 80), which keeps no summaries by design. quick keeps n 16 384.
func e15Rows(quick bool) []e15Row {
	sizes := []int{16384, 131072}
	if quick {
		sizes = sizes[:1]
	}
	var rows []e15Row
	for _, dk := range [][2]int{{4, 10}, {6, 10}, {8, 8}} {
		for _, n := range sizes {
			for _, aligned := range []bool{false, true} {
				rows = append(rows, e15Row{d: dk[0], k: dk[1], n: n, aligned: aligned})
			}
			rows = append(rows, e15Row{uniform: true, d: dk[0], k: dk[1], n: n})
		}
	}
	return append(rows, e15Row{d: 8, k: 10, n: sizes[len(sizes)-1]})
}

// population builds a row's points and queries. A near-miss row has one
// query, the exact miss (mid, …, mid); its aligned form adds one to every
// coordinate (clamped at the top), which keeps every point failing by one
// coordinate and puts mid on a power of two. A churned row also returns
// n more points of its population, the churn phase's replacements (the
// generator draws points in order, so the first n are the row's own).
func (r e15Row) population() (pts, queries, churn [][]uint32, err error) {
	top := uint32(1)<<uint(r.k) - 1
	if !r.uniform {
		n := r.n
		if r.churned() {
			n *= 2
		}
		pts, q, err := workload.NearMiss(r.d, r.k, n, 1)
		if err != nil {
			return nil, nil, nil, err
		}
		if r.aligned {
			for _, p := range append(pts, q) {
				for i := range p {
					p[i] = min(p[i]+1, top)
				}
			}
		}
		if r.churned() {
			churn = pts[r.n:]
		}
		return pts[:r.n], [][]uint32{q}, churn, nil
	}
	rng := rand.New(rand.NewSource(151))
	point := func(lo uint32) []uint32 {
		p := make([]uint32, r.d)
		for i := range p {
			p[i] = lo + uint32(rng.Int63n(int64(top-lo)+1))
		}
		return p
	}
	for range r.n {
		pts = append(pts, point(0))
	}
	for range 64 {
		queries = append(queries, point(top/2))
	}
	return pts, queries, nil, nil
}

// churned reports whether a row runs the churn phase: near-miss rows whose
// keys fit one word, where the arrays keep the summaries a churn leaves
// stale.
func (r e15Row) churned() bool { return !r.uniform && r.d*r.k <= 64 }

// e15Side is what one search did over a row's queries, per query.
type e15Side struct {
	steps  float64 // walk steps
	probes float64 // every descent: walk steps, then cube probes
	byWalk float64 // share the walk decided (no overrun)
	us     float64
	found  float64 // share answered with a dominator
}

func (s e15Side) path() string {
	switch s.byWalk {
	case 1:
		return "walk"
	case 0:
		return "cubes"
	}
	return fmt.Sprintf("walk %.0f%%", 100*s.byWalk)
}

// measure runs the queries reps times through one search and averages.
func measure(queries [][]uint32, reps int, search func([]uint32, float64) (uint64, bool, dominance.Stats, error)) (e15Side, error) {
	var s e15Side
	start := time.Now()
	for range reps {
		for _, q := range queries {
			_, found, st, err := search(q, e15Eps)
			if err != nil {
				return s, err
			}
			s.steps += float64(st.WalkSteps)
			s.probes += float64(st.RunsProbed)
			if st.Path == dominance.PathWalk {
				s.byWalk++
			}
			if found {
				s.found++
			}
		}
	}
	m := float64(reps * len(queries))
	s.us = float64(time.Since(start).Nanoseconds()) / 1e3 / m
	s.steps, s.probes, s.byWalk, s.found = s.steps/m, s.probes/m, s.byWalk/m, s.found/m
	return s, nil
}

// e15Result is one row's measurements: Query on a single Index and on an
// 8-slice ShardedIndex, QueryCubes on the single one, and — on a churned
// row — Query on both again after the churn phase.
type e15Result struct {
	single, sharded, cubes    e15Side
	churnSingle, churnSharded e15Side
}

// e15Measure loads a row into a single Index and an 8-slice ShardedIndex
// (boundaries from the load, as the engine places them) and measures
// Query on each beside QueryCubes on the single one; every repetition
// walks. On a churned row it then replaces every entry
// one at a time, in a seeded order — delete entry i, insert the row's
// i-th replacement point — and measures Query on both again: the
// population keeps its size and its shape, while a summary that never
// tightens on delete still holds the maxima of the keys it lost.
func e15Measure(r e15Row, reps int) (res e15Result, err error) {
	pts, queries, churn, err := r.population()
	if err != nil {
		return
	}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	cfg := dominance.Config{Dims: r.d, Bits: r.k, MaxCubes: e15Budget}
	idx, err := dominance.NewIndex(cfg)
	if err != nil {
		return
	}
	idx.InsertBatch(pts, ids)
	sh, err := dominance.NewSharded(cfg, 8)
	if err != nil {
		return
	}
	keys := make([]uint64, 0, len(pts)*sh.KeyStride())
	for _, p := range pts {
		keys = sh.AppendKey(keys, p)
	}
	sh.ChooseBoundaries(keys)
	sh.InsertKeys(keys, ids)
	if res.single, err = measure(queries, reps, idx.Query); err != nil {
		return
	}
	if res.sharded, err = measure(queries, reps, sh.Query); err != nil {
		return
	}
	if res.cubes, err = measure(queries, reps, idx.QueryCubes); err != nil || !r.churned() {
		return
	}
	for _, i := range rand.New(rand.NewSource(157)).Perm(len(pts)) {
		if !idx.Delete(pts[i], ids[i]) || !sh.DeleteAt(sh.Locate(pts[i]), ids[i]) {
			return res, fmt.Errorf("E15 churn: entry %d not found", i)
		}
		idx.Insert(churn[i], uint64(len(pts)+i))
		sh.Insert(churn[i], uint64(len(pts)+i))
	}
	if res.churnSingle, err = measure(queries, reps, idx.Query); err != nil {
		return
	}
	res.churnSharded, err = measure(queries, reps, sh.Query)
	return
}

// runE15 maps where the walk wins and where the ε-search takes over: walk
// steps, the cut that answered, cost and answers against the cube search
// alone, over the walk's worst-case population and controls.
func runE15(w io.Writer, quick bool) error {
	e, _ := ByID("E15")
	header(w, e)
	reps := 20
	if quick {
		reps = 2
	}
	tb := stats.NewTable("population", "d", "k", "n",
		"Index steps", "path", "us/query",
		"8-slice steps", "path", "us/query",
		"cube probes", "cubes us", "found", "cubes found")
	ch := stats.NewTable("population", "d", "k", "n",
		"Index steps", "churned", "us/query", "churned",
		"8-slice steps", "churned", "us/query", "churned",
		"found", "churned")
	for _, r := range e15Rows(quick) {
		n := reps
		if r.uniform {
			n = 1 // 64 distinct queries
		}
		res, err := e15Measure(r, n)
		if err != nil {
			return err
		}
		single, sharded, cubes := res.single, res.sharded, res.cubes
		tb.AddRow(r.name(), r.d, r.k, r.n,
			single.steps, single.path(), single.us,
			sharded.steps, sharded.path(), sharded.us,
			cubes.probes, cubes.us, single.found, cubes.found)
		if r.churned() {
			cs, csh := res.churnSingle, res.churnSharded
			ch.AddRow(r.name(), r.d, r.k, r.n,
				single.steps, cs.steps, single.us, cs.us,
				sharded.steps, csh.steps, sharded.us, csh.us,
				single.found, cs.found)
		}
	}
	fmt.Fprintf(w, "budget %d steps then cubes, eps %g; steps and probes are per query:\n%s\n", e15Budget, e15Eps, tb)
	fmt.Fprintln(w, "found is the share of queries answered with a dominator: the walk is exact when it")
	fmt.Fprintln(w, "decides (path walk), so found >= cubes found there; a near-miss query has none")
	fmt.Fprintf(w, "\nchurn: every entry deleted and replaced by a fresh point of the same population, one\nat a time in a seeded order, then the near-miss query again (summaries never tighten\non delete):\n%s\n", ch)
	return nil
}
