package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/broker"
	"sfccover/internal/core"
	"sfccover/internal/cubes"
	"sfccover/internal/dominance"
	"sfccover/internal/sfc"
	"sfccover/internal/sfcarray"
	"sfccover/internal/stats"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// e7Scenarios are the planted-cover populations E7 and E14 share: one
// attribute searched without a cap, two attributes under a cube budget.
var e7Scenarios = []struct {
	name  string
	attrs []string
	bits  int
	eps   []float64
	cap   int
}{
	{"beta=1 (d=2)", []string{"price"}, 12, []float64{0.3, 0.1, 0.05, 0.01}, 0},
	{"beta=2 (d=4)", []string{"price", "volume"}, 10, []float64{0.4, 0.2, 0.1}, 30000},
}

var e7Slacks = []struct {
	name string
	frac float64
}{{"tight 1%", 0.01}, {"medium 5%", 0.05}, {"wide 15%", 0.15}}

// plantedCovers indexes the parents of n planted cover pairs at the given
// slack and returns the index with the children's dominance points: the
// index of a core.Detector over the same subscriptions, built directly so
// the experiments can reach QueryCubes.
func plantedCovers(schema *subscription.Schema, n int, slack float64, maxCubes int) (*dominance.Index, [][]uint32, error) {
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: n, SlackFrac: slack, Seed: 71})
	if err != nil {
		return nil, nil, err
	}
	idx, err := dominance.NewIndex(dominance.Config{
		Dims: len(pairs[0].Parent.Point()), Bits: schema.Bits(), MaxCubes: maxCubes,
	})
	if err != nil {
		return nil, nil, err
	}
	children := make([][]uint32, len(pairs))
	for i, p := range pairs {
		idx.Insert(p.Parent.Point(), uint64(i))
		children[i] = p.Child.Point()
	}
	return idx, children, nil
}

// runE7 measures covering-detection recall against cover tightness and
// epsilon — the system-level consequence of the truncated corner: the
// approximate search skips the part of the dominance region adjacent to
// the query point, which is exactly where barely-wider covers live. It
// runs the paper's search alone (QueryCubes); E14 sets the system's
// dispatch order beside it on the same covers.
func runE7(w io.Writer, quick bool) error {
	e, _ := ByID("E7")
	header(w, e)
	pairsN := 400
	if quick {
		pairsN = 120
	}
	for _, sc := range e7Scenarios {
		schema := subscription.MustSchema(sc.bits, sc.attrs...)
		n := pairsN / len(sc.attrs)
		tb := stats.NewTable("slack", "eps", "recall", "mean probes/query", "mean volume frac")
		for _, slack := range e7Slacks {
			idx, children, err := plantedCovers(schema, n, slack.frac, sc.cap)
			if err != nil {
				return err
			}
			for _, eps := range sc.eps {
				found := 0
				var probes, volFrac float64
				for _, q := range children {
					_, ok, st, err := idx.QueryCubes(q, eps)
					if err != nil {
						return err
					}
					if ok {
						found++
					}
					probes += float64(st.RunsProbed)
					volFrac += st.VolumeFraction
				}
				tb.AddRow(slack.name, eps,
					float64(found)/float64(len(children)),
					probes/float64(len(children)),
					volFrac/float64(len(children)))
			}
		}
		fmt.Fprintf(w, "%s, %d planted covers:\n%s\n", sc.name, n, tb)
	}
	fmt.Fprintln(w, "paper: recall is high for well-distributed (generous) covers; tight covers sit in the")
	fmt.Fprintln(w, "       skipped corner near the query point — the cost of the (1-eps) volume guarantee")
	return nil
}

// e14Row is one line of E14: the paper's ε-search (QueryCubes) and the
// search the system runs (Query) over the same planted covers, at one
// slack and ε. Recalls and byWalk are shares of the children; probes and
// steps are means a query.
type e14Row struct {
	slack       string
	eps         float64
	cubesRecall float64
	cubeProbes  float64
	walkRecall  float64
	walkSteps   float64
	byWalk      float64
}

// e14Rows measures E14 on E7's two-attribute planted covers, n of them a
// slack, and returns its rows with n.
func e14Rows(quick bool) (n int, rows []e14Row, err error) {
	sc := e7Scenarios[1]
	schema := subscription.MustSchema(sc.bits, sc.attrs...)
	n = 200
	if quick {
		n = 60
	}
	for _, slack := range e7Slacks {
		idx, children, err := plantedCovers(schema, n, slack.frac, sc.cap)
		if err != nil {
			return 0, nil, err
		}
		for _, eps := range sc.eps {
			var cubeFound, walkFound, byWalk int
			var probes, steps float64
			for _, q := range children {
				_, ok, st, err := idx.QueryCubes(q, eps)
				if err != nil {
					return 0, nil, err
				}
				if ok {
					cubeFound++
				}
				probes += float64(st.RunsProbed)
				if _, ok, st, err = idx.Query(q, eps); err != nil {
					return 0, nil, err
				}
				if ok {
					walkFound++
				}
				if st.Path == dominance.PathWalk {
					byWalk++
				}
				steps += float64(st.WalkSteps)
			}
			m := float64(len(children))
			rows = append(rows, e14Row{slack.name, eps, float64(cubeFound) / m, probes / m,
				float64(walkFound) / m, steps / m, float64(byWalk) / m})
		}
	}
	return n, rows, nil
}

// runE14 puts the search the system runs beside the one the paper
// analyzes, on E7's two-attribute planted covers: Query probes the top
// cube, walks the stored keys and reaches the cubes only past its step
// budget, QueryCubes is the ε-search alone.
func runE14(w io.Writer, quick bool) error {
	e, _ := ByID("E14")
	header(w, e)
	n, rows, err := e14Rows(quick)
	if err != nil {
		return err
	}
	tb := stats.NewTable("slack", "eps", "cubes recall", "cube probes/query",
		"walk recall", "walk steps/query", "answered by walk")
	for _, r := range rows {
		tb.AddRow(r.slack, r.eps, r.cubesRecall, r.cubeProbes, r.walkRecall, r.walkSteps, r.byWalk)
	}
	sc := e7Scenarios[1]
	fmt.Fprintf(w, "%s, %d planted covers, budget %d (walk steps, then cubes):\n%s\n", sc.name, n, sc.cap, tb)
	fmt.Fprintln(w, "paper: the ε-search pays one probe per cube and gives up the corner next to the query;")
	fmt.Fprintln(w, "       the walk probes the top cube, then pays one step (a descent and at most one leaf")
	fmt.Fprintln(w, "       check) per leaf that may hold a cover and is exact, so ε only matters for the")
	fmt.Fprintln(w, "       queries whose walk overruns the budget (last column < 1)")
	return nil
}

// runE8 runs the broker network under each covering mode and reports the
// propagation metrics the paper's optimization targets.
func runE8(w io.Writer, quick bool) error {
	e, _ := ByID("E8")
	header(w, e)
	schema := subscription.MustSchema(8, "topic", "price")
	nSubs, nClients, nEvents := 300, 24, 100
	topo := broker.BalancedTree(31)
	if quick {
		nSubs, nClients, nEvents = 100, 12, 40
		topo = broker.BalancedTree(15)
	}
	// A mixture of broad and narrow interests, all with both-sided
	// constraints: narrow subscriptions tend to be covered by broad ones
	// at generous slack — the paper's "well distributed" regime — and
	// both-sided ranges keep the query regions' aspect ratios moderate
	// (unconstrained attributes produce unit-length region sides; see E5).
	broad, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: nSubs / 2, Dist: workload.DistUniform,
		WidthFrac: 0.5, UnconstrainedProb: 0, Seed: 81,
	})
	if err != nil {
		return err
	}
	narrow, err := workload.Subscriptions(workload.SubSpec{
		Schema: schema, N: nSubs - nSubs/2, Dist: workload.DistUniform,
		WidthFrac: 0.1, UnconstrainedProb: 0, Seed: 83,
	})
	if err != nil {
		return err
	}
	subs := make([]*subscription.Subscription, 0, nSubs)
	for i := 0; i < len(broad) || i < len(narrow); i++ {
		if i < len(broad) {
			subs = append(subs, broad[i])
		}
		if i < len(narrow) {
			subs = append(subs, narrow[i])
		}
	}
	events, err := workload.Events(workload.EventSpec{Schema: schema, N: nEvents, Seed: 82})
	if err != nil {
		return err
	}

	type result struct {
		name                  string
		tableRows, subMsgs    int
		suppressed, eventMsgs int
		deliveries            int
		meanProbes            float64
	}
	var results []result
	var refDeliveries int
	configs := []struct {
		name string
		cfg  broker.Config
	}{
		{"flood (off)", broker.Config{Schema: schema, Mode: core.ModeOff}},
		{"exact (linear)", broker.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear}},
		{"approx eps=0.4", broker.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.4, MaxCubes: 10000}},
		{"approx eps=0.15", broker.Config{Schema: schema, Mode: core.ModeApprox, Epsilon: 0.15, MaxCubes: 10000}},
	}
	for _, c := range configs {
		n, err := broker.NewNetwork(topo, c.cfg)
		if err != nil {
			return err
		}
		clients := make([]*broker.Client, nClients)
		for i := range clients {
			cl, err := n.AttachClient(i % n.NumBrokers())
			if err != nil {
				return err
			}
			clients[i] = cl
		}
		for i, s := range subs {
			if err := n.Subscribe(clients[i%nClients].ID, s); err != nil {
				return err
			}
		}
		n.Drain()
		for i, ev := range events {
			if err := n.Publish(clients[i%nClients].ID, ev); err != nil {
				return err
			}
		}
		n.Drain()
		m := n.Metrics()
		if m.ProtocolErrors != 0 {
			return fmt.Errorf("E8: %s produced %d protocol errors", c.name, m.ProtocolErrors)
		}
		tot := n.CoverTotals()
		meanProbes := 0.0
		if tot.Queries > 0 {
			meanProbes = float64(tot.RunsProbed) / float64(tot.Queries)
		}
		if refDeliveries == 0 {
			refDeliveries = m.Deliveries
		} else if m.Deliveries != refDeliveries {
			return fmt.Errorf("E8: %s delivered %d events, flood delivered %d — covering broke routing",
				c.name, m.Deliveries, refDeliveries)
		}
		results = append(results, result{
			name: c.name, tableRows: n.TableRows(), subMsgs: m.SubscribeMsgs,
			suppressed: m.SuppressedForwards, eventMsgs: m.EventMsgs,
			deliveries: m.Deliveries, meanProbes: meanProbes,
		})
	}
	tb := stats.NewTable("mode", "table rows", "sub msgs", "suppressed", "event msgs", "deliveries", "mean probes/query")
	for _, r := range results {
		tb.AddRow(r.name, r.tableRows, r.subMsgs, r.suppressed, r.eventMsgs, r.deliveries, r.meanProbes)
	}
	fmt.Fprintf(w, "%d brokers, %d clients, %d subscriptions, %d events:\n%s\n",
		topo.N, nClients, nSubs, nEvents, tb)
	fmt.Fprintln(w, "paper: covering shrinks tables and propagation traffic; deliveries are identical across")
	fmt.Fprintln(w, "       modes (safety), and approximate covering retains most of exact covering's savings")
	return nil
}

// runE9 measures per-query latency against the number of indexed
// subscriptions for the approximate SFC index and the exact baselines.
func runE9(w io.Writer, quick bool) error {
	e, _ := ByID("E9")
	header(w, e)
	const d, k = 4, 14
	sizes := []int{1000, 10000, 100000}
	queries := 200
	if quick {
		sizes = []int{1000, 10000}
		queries = 50
	}
	rng := rand.New(rand.NewSource(91))
	genPoint := func() []uint32 {
		p := make([]uint32, d)
		for i := range p {
			p[i] = uint32(rng.Int63n(1 << k))
		}
		return p
	}

	tb := stats.NewTable("n",
		"approx hit us", "linear hit us", "kd hit us",
		"approx miss us", "linear miss us", "kd miss us", "approx found%")
	for _, n := range sizes {
		approx := dominance.MustIndex(dominance.Config{Dims: d, Bits: k, MaxCubes: 50000})
		lin := dominance.NewLinear()
		kd := newKDTree(d)
		for i := 0; i < n; i++ {
			p := genPoint()
			approx.Insert(p, uint64(i))
			lin.Insert(p, uint64(i))
			kd.Insert(p, uint64(i))
		}
		// Hit-heavy queries: uniform points, almost always dominated.
		hitQs := make([][]uint32, queries)
		for i := range hitQs {
			hitQs[i] = genPoint()
		}
		// Miss queries: points hugging the max corner, where no indexed
		// point dominates. Exact baselines must do their full worst-case
		// work to prove the miss; this is where sublinearity in n shows.
		missQs := make([][]uint32, queries)
		for i := range missQs {
			q := make([]uint32, d)
			for j := range q {
				q[j] = uint32(uint64(1)<<k - 1 - uint64(rng.Intn(4)))
			}
			missQs[i] = q
		}

		var approxFound int
		timeQueries := func(idx func(q []uint32), qs [][]uint32) float64 {
			start := time.Now()
			for _, q := range qs {
				idx(q)
			}
			return float64(time.Since(start).Microseconds()) / float64(len(qs))
		}
		approxHit := timeQueries(func(q []uint32) {
			if _, ok, _, err := approx.QueryCubes(q, 0.3); err == nil && ok {
				approxFound++
			}
		}, hitQs)
		linHit := timeQueries(func(q []uint32) { lin.QueryDominating(q) }, hitQs)
		kdHit := timeQueries(func(q []uint32) { kd.QueryDominating(q) }, hitQs)
		approxMiss := timeQueries(func(q []uint32) { approx.QueryCubes(q, 0.3) }, missQs)
		linMiss := timeQueries(func(q []uint32) { lin.QueryDominating(q) }, missQs)
		kdMiss := timeQueries(func(q []uint32) { kd.QueryDominating(q) }, missQs)

		tb.AddRow(n, approxHit, linHit, kdHit, approxMiss, linMiss, kdMiss,
			100*float64(approxFound)/float64(queries))
	}
	fmt.Fprintln(w, tb)

	// Exhaustive SFC on a small universe, for scale.
	exN := 2000
	exQueries := 20
	if quick {
		exQueries = 5
	}
	ex := dominance.MustIndex(dominance.Config{Dims: d, Bits: 6})
	rng2 := rand.New(rand.NewSource(92))
	for i := 0; i < exN; i++ {
		p := make([]uint32, d)
		for j := range p {
			p[j] = uint32(rng2.Int63n(1 << 6))
		}
		ex.Insert(p, uint64(i))
	}
	start := time.Now()
	var runsTotal int
	for i := 0; i < exQueries; i++ {
		q := make([]uint32, d)
		for j := range q {
			q[j] = uint32(rng2.Int63n(1 << 6))
		}
		_, _, st, err := ex.QueryCubes(q, 0)
		if err != nil {
			return err
		}
		runsTotal += st.RunsProbed
	}
	exT := time.Since(start)
	fmt.Fprintf(w, "exhaustive SFC reference (d=4 but only k=6, n=%d): %.0f us/query, mean %d runs probed\n",
		exN, float64(exT.Microseconds())/float64(exQueries), runsTotal/exQueries)
	fmt.Fprintln(w, "paper: approximate query cost does not scale with n (index probes are O(log n));")
	fmt.Fprintln(w, "       linear scan grows with n; exhaustive SFC is infeasible beyond tiny universes")
	return nil
}

// orderedArray is what E10 times of an SFC array.
type orderedArray interface {
	Insert(k bits.Key, id uint64)
	Delete(k bits.Key, id uint64) bool
	Seek(lo bits.Key) (bits.Key, uint64, bool)
	FirstInRange(lo, hi bits.Key) (uint64, bool)
}

// runE10 sets the blocked SFC array beside the treap it replaced, on one-
// word keys (the d·k <= 64 case every benchmark workload runs): random
// inserts, random range probes, an ascending chain of seeks — the
// successor walk's access pattern — and deletes.
func runE10(w io.Writer, quick bool) error {
	e, _ := ByID("E10")
	header(w, e)
	n := 200000
	probes := 200000
	if quick {
		n, probes = 20000, 20000
	}
	tb := stats.NewTable("implementation", "insert ns/op", "probe ns/op", "seek ns/op", "delete ns/op")
	for _, impl := range []struct {
		name string
		arr  orderedArray
	}{{"blocked array", new(sfcarray.Index)}, {"treap", newTreap(7)}} {
		arr := impl.arr
		rng := rand.New(rand.NewSource(11))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		start := time.Now()
		for i, kv := range keys {
			arr.Insert(keyOf(kv), uint64(i))
		}
		insertT := time.Since(start)

		start = time.Now()
		var hits int
		for i := 0; i < probes; i++ {
			lo := rng.Uint64()
			if _, ok := arr.FirstInRange(keyOf(lo), keyOf(lo|0xFFFFFFFF)); ok {
				hits++
			}
		}
		probeT := time.Since(start)

		// Chains of 16 seeks, each cursor a short jump past the key the
		// last one stopped at.
		start = time.Now()
		for i := 0; i < probes; {
			cursor := keyOf(rng.Uint64())
			for step := 0; step < 16; step, i = step+1, i+1 {
				key, _, ok := arr.Seek(cursor)
				if !ok {
					break
				}
				kv, _ := key.Uint64()
				cursor = keyOf(kv + 1<<44)
			}
		}
		seekT := time.Since(start)

		start = time.Now()
		for i, kv := range keys {
			if !arr.Delete(keyOf(kv), uint64(i)) {
				return fmt.Errorf("E10: %s lost a key", impl.name)
			}
		}
		deleteT := time.Since(start)
		tb.AddRow(impl.name,
			float64(insertT.Nanoseconds())/float64(n),
			float64(probeT.Nanoseconds())/float64(probes),
			float64(seekT.Nanoseconds())/float64(probes),
			float64(deleteT.Nanoseconds())/float64(n))
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "paper: any dynamic ordered structure works for the SFC array; sorted blocks of word-width")
	fmt.Fprintln(w, "       keys search contiguous memory where the treap chases a 96-byte node per level")
	return nil
}

// runE11 compares curves along the two axes where the choice matters: how
// well each curve merges a region's cubes into runs (exhaustive cost), and
// how expensive its key encoding makes every probe (approximate cost).
func runE11(w io.Writer, quick bool) error {
	e, _ := ByID("E11")
	header(w, e)

	// Part 1: exhaustive run counts on random extremal regions.
	const k2 = 10
	trials := 300
	if quick {
		trials = 60
	}
	rng := rand.New(rand.NewSource(3))
	curves2, err := e11Curves(2, k2)
	if err != nil {
		return err
	}
	runSums := map[string]float64{}
	var cubeSum float64
	for t := 0; t < trials; t++ {
		ext, err := workload.RandomExtremal(rng, 2, k2, 1+rng.Intn(2))
		if err != nil {
			return err
		}
		part, err := cubes.Decompose(ext.Rect(), k2)
		if err != nil {
			return err
		}
		cubeSum += float64(len(part))
		for name, c := range curves2 {
			runSums[name] += float64(len(cubes.Runs(c, part)))
		}
	}
	tb := stats.NewTable("curve", "mean exhaustive runs (d=2)", "runs/cubes", "vs hilbert")
	for _, name := range []string{"hilbert", "gray", "z", "onion"} {
		tb.AddRow(name, runSums[name]/float64(trials),
			runSums[name]/cubeSum, runSums[name]/runSums["hilbert"])
	}
	fmt.Fprintf(w, "run-merging quality over %d random extremal regions (cubes are curve-independent):\n%s\n", trials, tb)
	fmt.Fprintln(w, "note: at d=2 shell order coincides with Z digit order, so onion == z; they diverge at d>=3")

	// Part 1b: d=3, where the onion reordering actually differs from Z.
	const k3 = 7
	curves3, err := e11Curves(3, k3)
	if err != nil {
		return err
	}
	runSums3 := map[string]float64{}
	var cubeSum3 float64
	for t := 0; t < trials; t++ {
		ext, err := workload.RandomExtremal(rng, 3, k3, 1+rng.Intn(2))
		if err != nil {
			return err
		}
		part, err := cubes.Decompose(ext.Rect(), k3)
		if err != nil {
			return err
		}
		cubeSum3 += float64(len(part))
		for name, c := range curves3 {
			runSums3[name] += float64(len(cubes.Runs(c, part)))
		}
	}
	tb3 := stats.NewTable("curve", "mean exhaustive runs (d=3)", "runs/cubes", "vs hilbert")
	for _, name := range []string{"hilbert", "gray", "z", "onion"} {
		tb3.AddRow(name, runSums3[name]/float64(trials),
			runSums3[name]/cubeSum3, runSums3[name]/runSums3["hilbert"])
	}
	fmt.Fprintf(w, "\nrun-merging quality over %d random extremal regions at d=3:\n%s\n", trials, tb3)

	// Part 2: probe cost — same cube enumeration, different key encodings.
	const d, k = 4, 14
	const eps = 0.2
	queries := 30
	if quick {
		queries = 8
	}
	qs := make([][]uint32, queries)
	for i := range qs {
		q := make([]uint32, d)
		l := uint64(1)<<12 - 1 - uint64(rng.Intn(1024))
		for j := range q {
			q[j] = uint32(uint64(1)<<k - l)
		}
		qs[i] = q
	}
	curves4, err := e11Curves(d, k)
	if err != nil {
		return err
	}
	tb2 := stats.NewTable("curve", "probes/query", "us/query (empty index)", "ns/probe")
	for _, curve := range e11Names {
		var empty sfcarray.Index
		var probes int
		start := time.Now()
		for _, q := range qs {
			_, n, err := searchCubes(curves4[curve], &empty, q, eps, false, true)
			if err != nil {
				return err
			}
			probes += n
		}
		elapsed := time.Since(start)
		tb2.AddRow(curve,
			float64(probes)/float64(queries),
			float64(elapsed.Microseconds())/float64(queries),
			float64(elapsed.Nanoseconds())/float64(probes))
	}
	fmt.Fprintln(w, tb2)
	fmt.Fprintln(w, "paper: Z and Hilbert (and Gray) behave within constant factors of each other [MJFS01];")
	fmt.Fprintln(w, "       Hilbert merges runs best but costs more per key; Z is the cheapest to encode;")
	fmt.Fprintln(w, "       the recursive onion approximation merges barely better than Z on extremal regions")
	fmt.Fprintln(w, "       yet pays the most per key — Hilbert remains the merge-quality choice")
	return nil
}

// e11Names is the order E11 measures the curves in.
var e11Names = []string{"z", "hilbert", "gray", "onion"}

// e11Curves builds the curves E11 compares, by name, over d dimensions of
// k bits.
func e11Curves(d, k int) (map[string]sfc.Curve, error) {
	curves := map[string]sfc.Curve{}
	for _, name := range e11Names {
		c, err := NewCurve(name, d, k)
		if err != nil {
			return nil, err
		}
		curves[name] = c
	}
	return curves, nil
}

func keyOf(v uint64) bits.Key { return bits.KeyFromUint64(v) }
