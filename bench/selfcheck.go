package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile declares the metrics and their bounds. The harness reads
// it, from the directory it is run in, only for -selfcheck.
const benchmarkFile = "BENCHMARK.json"

// declared is the part of BENCHMARK.json the harness checks itself against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// runSelfcheck runs the chosen workloads twice, the second time in the
// opposite order, and compares the two sets: every end-to-end metric must
// agree within its declared bound and cover_recall exactly (it is a count
// ratio over seed-fixed inputs). It prints each relative difference.
func runSelfcheck(o options, stderr io.Writer) (bool, error) {
	decl, err := readDeclared(benchmarkFile)
	if err != nil {
		return false, err
	}
	o.trace = false
	var sets [2]map[string]report
	for pass := range sets {
		sets[pass] = map[string]report{}
		order := append([]string(nil), o.workloads...)
		if pass == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			rep, err := runOne(name, o, io.Discard)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			sets[pass][name] = rep
		}
	}

	ok := true
	fmt.Fprintf(stderr, "%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, name := range o.workloads {
		a, b := sets[0][name], sets[1][name]
		if !a.Correct || !b.Correct {
			fmt.Fprintf(stderr, "%-16s oracle failures: %d and %d\n", name, a.Failed, b.Failed)
			ok = false
		}
		for _, m := range decl.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := math.Abs(va-vb) / math.Max(math.Abs(va), math.SmallestNonzeroFloat64)
			bound := m.Bound
			if m.Name == "cover_recall" {
				bound = 0
			}
			verdict := ""
			if diff > bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(stderr, "%-16s %-14s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", name, m.Name, va, vb, 100*diff, 100*bound, verdict)
		}
	}
	return ok, nil
}
