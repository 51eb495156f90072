// Command bench is the repository's benchmark: five closed-loop workloads
// from a cache-warm in-process covering query to overlay pub/sub, checked
// against a brute-force oracle, plus a traced layer ladder. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload query_hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything meant for people
// goes to standard error and to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named value with its unit, as BENCHMARK.json declares it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last-line JSON contract with the driver.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -out keeps per workload: the report plus what a reader
// needs to interpret it.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Traced   bool              `json:"traced"`
	Short    bool              `json:"short,omitempty"`
	Env      environment       `json:"env"`
	Report   report            `json:"report"`
	Detail   map[string]string `json:"detail"`
}

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	outDir    string
	tmpDir    string // under outDir; holds every data dir, removed on exit
	short     bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o         options
		names     string
		trace     int
		selfcheck bool
	)
	fs.StringVar(&names, "workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (feeds only the input generators; use 2 as the hold-out when validating a claim)")
	fs.Float64Var(&o.seconds, "seconds", 15, "timed seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and "+traceFilePattern+" instead of end-to-end metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for records, traces and temp data dirs")
	fs.BoolVar(&o.short, "short", false, "smoke scale: tiny inputs, for go test")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run the set twice in alternating order and fail if any end-to-end metric differs by more than its bound in "+benchmarkFile)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: -seconds %v: want > 0\n", o.seconds)
		return 2
	}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			o.workloads = append(o.workloads, n)
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	o.tmpDir = tmp
	defer os.RemoveAll(tmp)
	// A run that is interrupted must not leave its data dirs behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(tmp)
			os.Exit(130)
		}
	}()
	defer close(sig)       // second: lets the goroutine go
	defer signal.Stop(sig) // first: nothing sends on sig any more

	if selfcheck {
		ok, err := runSelfcheck(o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	code := 0
	for _, name := range o.workloads {
		rep, err := runOne(name, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// runOne runs one workload, untraced or traced, prints its metrics for
// people, writes its record and returns the driver's report.
func runOne(name string, o options, stderr io.Writer) (report, error) {
	sc := fullScale
	if o.short {
		sc = shortScale
	}
	w, err := newWorkload(name, o.seed, sc, o.tmpDir)
	if err != nil {
		return report{}, err
	}
	defer w.close() // also on a failed build: temp data dirs must not outlive the run
	d := time.Duration(o.seconds * float64(time.Second))

	var (
		rep    report
		detail map[string]string
	)
	if o.trace {
		rep, detail, err = runTraced(name, w, o, sc, d)
	} else {
		rep, detail, err = runUntraced(w, sc, d)
	}
	if err != nil {
		return report{}, err
	}

	printReport(stderr, name, o, rep, detail)
	rec := record{
		Workload: name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Short: o.short,
		Env: stampEnvironment(o.tmpDir), Report: rep, Detail: detail,
	}
	file := name + ".json"
	if o.trace {
		file = "layers-" + file
	}
	if err := writeJSON(filepath.Join(o.outDir, file), rec); err != nil {
		return report{}, err
	}
	return rep, nil
}

func runUntraced(w workload, sc scale, d time.Duration) (report, map[string]string, error) {
	m, err := measure(w, sc, d)
	if err != nil {
		return report{}, nil, err
	}
	rep, detail := endToEnd(m)
	return rep, detail, nil
}

// endToEnd turns a measurement into the declared end-to-end metrics. The
// four metrics of time are better-side quantiles over the slices (the
// tail: over the tail groups) of the timed region.
func endToEnd(m measurement) (report, map[string]string) {
	ops := float64(m.timed.ops)
	recall := 1.0
	if m.verdict.recallDen > 0 {
		recall = float64(m.verdict.recallNum) / float64(m.verdict.recallDen)
	}
	sl := m.slices
	rep := report{
		Correct:   m.verdict.failed == 0,
		Attempted: m.timed.ops,
		Failed:    m.verdict.failed,
		Metrics: map[string]metric{
			"ops_per_s":     {sl.opsPerS.quartile, "1/s"},
			"op_p50_us":     {sl.p50.quartile / 1e3, "us"},
			"op_p99_us":     {sl.tail.decile / 1e3, "us"},
			"cpu_us_per_op": {sl.cpuPerOp.quartile / 1e3, "us"},
			"heap_live_mb":  {m.heapLiveMiB, "MiB"},
			"cover_recall":  {recall, "ratio"},
			"setup_s":       {m.setupS, "s"},
		},
	}
	detail := map[string]string{
		"latency_samples": fmt.Sprint(sl.samples),
		"slices":          fmt.Sprint(sl.opsPerS.n),
		"tail_groups":     fmt.Sprint(sl.tail.n),
		"fail_ratio":      fmt.Sprintf("%g", float64(m.verdict.failed)/ops),
		"allocs_per_op":   fmt.Sprintf("%.4f", float64(m.mallocs)/ops),
		"recall_num":      fmt.Sprint(m.verdict.recallNum),
		"recall_den":      fmt.Sprint(m.verdict.recallDen),
		"timed_wall_s":    fmt.Sprintf("%.3f", m.timed.wall.Seconds()),
		"setup_s_all":     fmt.Sprint(m.setupAll),
		// Unscaled, whole region: what a stopwatch read on this box.
		"raw_ops_per_s":    fmt.Sprintf("%.1f", ops/m.timed.wall.Seconds()),
		"box_speed_median": fmt.Sprintf("%.4f", sl.speed.median),
		"box_speed_best":   fmt.Sprintf("%.4f", sl.speed.best),
		// The other estimators over the same slices, for judging the noise.
		"median_ops_per_s":     fmt.Sprintf("%.1f", sl.opsPerS.median),
		"median_op_p50_us":     fmt.Sprintf("%.4f", sl.p50.median/1e3),
		"median_op_p99_us":     fmt.Sprintf("%.4f", sl.tail.median/1e3),
		"median_cpu_us_per_op": fmt.Sprintf("%.4f", sl.cpuPerOp.median/1e3),
		"best_ops_per_s":       fmt.Sprintf("%.1f", sl.opsPerS.best),
		"best_op_p50_us":       fmt.Sprintf("%.4f", sl.p50.best/1e3),
		"best_op_p99_us":       fmt.Sprintf("%.4f", sl.tail.best/1e3),
		"best_cpu_us_per_op":   fmt.Sprintf("%.4f", sl.cpuPerOp.best/1e3),
	}
	return rep, detail
}

func printReport(w io.Writer, name string, o options, rep report, detail map[string]string) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g  %s  correct=%v attempted=%d failed=%d\n",
		name, o.seed, o.seconds, mode, rep.Correct, rep.Attempted, rep.Failed)
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(detail) {
		fmt.Fprintf(w, "  . %-38s %s\n", k, detail[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
