package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(ms []declaredMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestDeclarationMatchesHarness holds BENCHMARK.json and the harness's own
// name lists in step.
func TestDeclarationMatchesHarness(t *testing.T) {
	decl, err := readDeclared(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range decl.Workloads {
		wl = append(wl, w.Name)
	}
	if got, want := strings.Join(wl, ","), strings.Join(workloadNames, ","); got != want {
		t.Errorf("workloads: %s declares %s, harness runs %s", benchmarkFile, got, want)
	}
	if got, want := names(decl.EndToEnd), sorted(endToEndNames); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end_to_end: declared %v, harness emits %v", got, want)
	}
	if got, want := names(decl.PerLayer), sorted(perLayerNames); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per_layer: declared %v, harness emits %v", got, want)
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
	}
}

// runShort runs one workload at the smoke scale and returns the report
// from the last line of standard output.
func runShort(t *testing.T, out, name, trace string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-short", "-workload", name, "-seed", "1", "-seconds", "0.05", "-trace", trace, "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s -trace %s: exit %d\n%s", name, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	// Decode into raw keys first: a metric emitted twice would be a
	// duplicate key, which a map would hide.
	var raw struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw.Metrics))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		if seen[key.(string)] {
			t.Errorf("%s: metric %s emitted twice", name, key)
		}
		seen[key.(string)] = true
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkReport(t *testing.T, name string, rep report, want []string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d, want a clean run", name, rep.Correct, rep.Attempted, rep.Failed)
	}
	if got := sortedKeys(rep.Metrics); strings.Join(got, ",") != strings.Join(sorted(want), ",") {
		t.Errorf("%s: emitted %v, want %v", name, got, sorted(want))
	}
}

// TestEveryWorkloadShort runs each workload untraced and traced at the
// smoke scale: every declared metric exactly once, no failures, and a
// trace file whose spans all name a parent that exists.
func TestEveryWorkloadShort(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadNames {
		checkReport(t, name, runShort(t, out, name, "0"), endToEndNames)
		checkReport(t, name+" traced", runShort(t, out, name, "1"), perLayerNames)

		data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: trace does not parse: %v", name, err)
		}
		if len(tf.Spans) == 0 {
			t.Errorf("%s: trace holds no spans", name)
		}
		ids := map[int]bool{}
		for _, s := range tf.Spans {
			ids[s.ID] = true
		}
		for _, s := range tf.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %d (%s) names parent %d, which is not in the trace", name, s.ID, s.Name, s.Parent)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d ends before it starts", name, s.ID)
			}
		}
	}
	// Data dirs must not outlive a run.
	left, err := filepath.Glob(filepath.Join(out, "tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("temp dirs left behind: %v", left)
	}
}

// region is one client's timed region of ten one-second slices holding
// n/10 samples each, latencies cycling 1..100 ns; the reference kernel ran
// once per slice and took calTook.
func region(n int, calTook time.Duration) (driven, []samples) {
	s := make(samples, n)
	for i := range s {
		s[i] = uint32(i%100 + 1)
	}
	dr := driven{marks: [][]mark{nil}, cals: [][]calSample{nil}}
	for k := 0; k <= segments; k++ {
		dr.marks[0] = append(dr.marks[0], mark{
			at: time.Duration(k) * time.Second, samples: k * n / segments, ops: int64(k * n / segments),
		})
		if k > 0 {
			dr.cals[0] = append(dr.cals[0], calSample{at: time.Duration(k)*time.Second - time.Millisecond, took: calTook})
		}
	}
	return dr, []samples{s}
}

// TestSummarizeTail pins the tail rule: the p99 per group of at least
// 1000 consecutive samples, at most tailGroupsMax groups, one group when
// the region holds fewer than 2000.
func TestSummarizeTail(t *testing.T) {
	if st := summarize(region(5000, calNominal)); st.tail.n != 5 || st.tail.decile != 99 || st.p50.quartile != 50 {
		t.Errorf("5000 samples: %+v", st)
	}
	if st := summarize(region(500, calNominal)); st.tail.n != 1 || st.tail.decile != 99 {
		t.Errorf("500 samples: %+v", st)
	}
	if st := summarize(region(100*tailGroupSamples, calNominal)); st.tail.n != tailGroupsMax || st.tail.decile != 99 {
		t.Errorf("100000 samples: %+v", st.tail)
	}
	if st := summarize(region(5000, calNominal)); st.opsPerS.quartile != 500 || st.opsPerS.n != segments {
		t.Errorf("rate: %+v", st.opsPerS)
	}
}

// TestSummarizeRescales: a box that ran the reference kernel at half
// speed has its times halved and its rate doubled.
func TestSummarizeRescales(t *testing.T) {
	st := summarize(region(5000, 2*calNominal))
	if st.p50.quartile != 25 || st.opsPerS.quartile != 1000 || st.speed.median != 0.5 {
		t.Errorf("half-speed box: p50 %v, rate %v, speed %v; want 25, 1000, 0.5", st.p50.quartile, st.opsPerS.quartile, st.speed.median)
	}
}

// TestSpreadQuartile: the quartile sits a quarter of the way in from the
// better end, the decile a tenth.
func TestSpreadQuartile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if s := spreadOf(v, true); s.best != 1 || s.decile != 1.4 || s.quartile != 2 || s.median != 3 {
		t.Errorf("lower is better: %+v", s)
	}
	if s := spreadOf(v, false); s.best != 5 || s.decile != 4.6 || s.quartile != 4 || s.median != 3 {
		t.Errorf("higher is better: %+v", s)
	}
}
