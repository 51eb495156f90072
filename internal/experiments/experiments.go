// Package experiments regenerates every quantitative artifact of the paper
// — Figures 1 and 2, the Theorem 3.1 upper bound, the Theorem 4.1 lower
// bound — and the system evaluation the paper motivates (recall vs ε,
// routing-table reduction, query scaling, data-structure and curve
// ablations). Each experiment writes a self-describing table; cmd/coverbench
// is the CLI driver and bench_test.go wraps each one in a testing.B.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible table/figure generator.
type Experiment struct {
	// ID is the experiment identifier (E1..E15).
	ID string
	// Title summarizes what is reproduced.
	Title string
	// Paper states the paper's claim for the artifact.
	Paper string
	// Run executes the experiment, writing its table to w. quick trades
	// sample counts for speed (used by -quick and the benchmarks).
	Run func(w io.Writer, quick bool) error
}

// All returns every experiment in ID order.
func All() []Experiment {
	exps := []Experiment{
		{
			ID:    "E1",
			Title: "Figure 2: run counts of the 256x256 vs 257x257 dominance queries (Z curve)",
			Paper: "1 run vs 385 runs; the largest run covers >99% of the 257x257 region",
			Run:   runE1,
		},
		{
			ID:    "E2",
			Title: "Figure 1: the same rectangle needs 2 runs on the Hilbert curve and 3 on the Z curve",
			Paper: "Hilbert and Z run counts differ by small constant factors on the same region",
			Run:   runE2,
		},
		{
			ID:    "E3",
			Title: "Theorem 3.1: approximate query cost is independent of the region side length",
			Paper: "cost <= m*(2^alpha*(2^m-1))^(d-1), independent of l; exhaustive cost grows as l^(d-1)",
			Run:   runE3,
		},
		{
			ID:    "E4",
			Title: "Theorem 4.1: exhaustive cost on the adversarial family grows as (2^(alpha-1)*l_d)^(d-1)",
			Paper: "runs(R0) >= (2^(alpha-1)*l_d)^(d-1); approximate cost stays flat on the same regions",
			Run:   runE4,
		},
		{
			ID:    "E5",
			Title: "Aspect-ratio dependence of approximate cost",
			Paper: "the 2^(alpha*(d-1)) factor of Theorem 3.1 dominates once alpha grows",
			Run:   runE5,
		},
		{
			ID:    "E6",
			Title: "Dimension dependence of approximate cost",
			Paper: "cost grows as (2d/eps)^(d-1) with the dimension d = 2*beta",
			Run:   runE6,
		},
		{
			ID:    "E7",
			Title: "Covering-detection recall vs epsilon and cover tightness",
			Paper: "approximate search finds most covers when subscriptions are well distributed",
			Run:   runE7,
		},
		{
			ID:    "E8",
			Title: "Broker network: routing-table size and propagation traffic vs covering mode",
			Paper: "covering reduces subscriptions propagated and routing-table size; approximate retains most of the reduction",
			Run:   runE8,
		},
		{
			ID:    "E9",
			Title: "Query latency vs number of indexed subscriptions",
			Paper: "approximate covering cost is sublinear in n (first such algorithm, Section 1.3)",
			Run:   runE9,
		},
		{
			ID:    "E10",
			Title: "Ablation: SFC-array implementation (blocked array vs treap)",
			Paper: "the SFC array can be any dynamic ordered structure (Section 2)",
			Run:   runE10,
		},
		{
			ID:    "E11",
			Title: "Ablation: curve choice (Z vs Hilbert vs Gray vs Onion)",
			Paper: "Z and Hilbert perform within a constant fraction of each other [MJFS01]",
			Run:   runE11,
		},
		{
			ID:    "E12",
			Title: "Ablation: probe order (descending vs ascending cube volume)",
			Paper: "Section 5 probes cubes in descending order of volume",
			Run:   runE12,
		},
		{
			ID:    "E13",
			Title: "Broker network under sustained subscription churn",
			Paper: "covering remains a pure optimization under dynamic subscriptions (Section 1)",
			Run:   runE13,
		},
		{
			ID:    "E14",
			Title: "The search the system runs vs the paper's: walk steps, cube probes and recall on E7's planted covers",
			Paper: "the ε-search trades recall for a bounded cube count (Section 5); an exact key-ordered walk in front of it pays per leaf that may hold a cover instead",
			Run:   runE14,
		},
		{
			ID:    "E15",
			Title: "Regime map: walk steps, the cut that answers, cost and recall against d, n and alignment, walk vs the ε-search",
			Paper: "the ε-search bounds cost by (ε, α) independent of n (Theorem 3.1); the exact walk pays per leaf whose summary admits the query key",
			Run:   runE15,
		},
	}
	sort.Slice(exps, func(i, j int) bool { return idOrder(exps[i].ID) < idOrder(exps[j].ID) })
	return exps
}

func idOrder(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// header writes the experiment banner.
func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "   paper: %s\n\n", e.Paper)
}
