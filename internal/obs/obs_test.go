package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(time.Nanosecond)
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	wantSum := int64(1 + 100*1000 + 3*1000*1000)
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Counts[0] != 1 {
		t.Fatalf("zero-duration bucket = %d, want 1", s.Counts[0])
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot count = %d", s.Count)
	}
}

func TestHistogramBucketMonotone(t *testing.T) {
	for i := 1; i < NumBuckets-1; i++ {
		if BucketUpperNS(i) <= BucketUpperNS(i-1) {
			t.Fatalf("bucket bounds not increasing at %d", i)
		}
	}
	// A duration equal to a bucket's upper bound must land at or below
	// that bucket (le is inclusive).
	for i := 1; i < NumBuckets-1; i++ {
		d := BucketUpperNS(i)
		if b := bucketFor(d); b > i {
			t.Fatalf("bucketFor(upper(%d)) = %d, want <= %d", i, b, i)
		}
	}
}

func TestHistogramSubAndMerge(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	prev := h.Snapshot()
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	d := h.Snapshot().Sub(prev)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if d.Sum != int64(6*time.Millisecond) {
		t.Fatalf("delta sum = %d", d.Sum)
	}
	m := d.Merge(prev)
	if m.Count != 3 || m.Sum != int64(7*time.Millisecond) {
		t.Fatalf("merge = %+v", m)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	p99 := s.Quantile(0.99)
	// Log buckets give a 2x upper-bound estimate.
	if p50 < 100*time.Microsecond || p50 > 200*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 < 50*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if q := (Snapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines = 8
	const per = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*1000+i) * time.Nanosecond)
				if i%100 == 0 {
					_ = h.Snapshot() // concurrent reads must be safe
				}
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
}

func TestRegistryCap(t *testing.T) {
	r := NewRegistry(3)
	a := r.Hist("a")
	if r.Hist("a") != a {
		t.Fatal("same op must return same histogram")
	}
	r.Hist("b").Observe(time.Millisecond)
	r.Hist("c").Observe(time.Millisecond)
	over1 := r.Hist("d")
	over2 := r.Hist("e")
	if over1 != over2 {
		t.Fatal("past the cap all ops must share the overflow histogram")
	}
	over1.Observe(time.Second)
	snaps := r.Snapshot()
	if len(snaps) != 4 {
		t.Fatalf("snapshot has %d entries, want 4 (3 ops + overflow)", len(snaps))
	}
	if snaps[OverflowOp].Count != 1 {
		t.Fatalf("overflow count = %d", snaps[OverflowOp].Count)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	if r.Hist("x") != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	for i := 1; i <= 5; i++ {
		l.Push(&QueryTrace{Op: fmt.Sprintf("q%d", i)})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Newest first; oldest two (q1, q2) evicted.
	for i, want := range []string{"q5", "q4", "q3"} {
		if got[i].Op != want {
			t.Fatalf("entry %d = %s, want %s", i, got[i].Op, want)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestQueryTraceNilSafe(t *testing.T) {
	var tr *QueryTrace
	tr.AddStage("x", time.Second, 1)
	tr.TouchSlice(3)
	var l *SlowLog
	l.Push(tr)
	if l.Snapshot() != nil || l.Len() != 0 {
		t.Fatal("nil slow log must be empty")
	}
}

func TestQueryTraceSlices(t *testing.T) {
	tr := &QueryTrace{}
	tr.TouchSlice(2)
	tr.TouchSlice(0)
	tr.TouchSlice(2)
	if len(tr.Slices) != 3 || tr.Slices[0] != 1 || tr.Slices[1] != 0 || tr.Slices[2] != 2 {
		t.Fatalf("slices = %v", tr.Slices)
	}
}

func TestObserverSampling(t *testing.T) {
	o := New(Config{TraceSample: 4, SlowThreshold: -1})
	traced := 0
	for n := uint64(1); n <= 40; n++ {
		if tr := o.SampleTrace("query", n); tr != nil {
			traced++
			o.FinishTrace(tr, time.Microsecond)
		}
	}
	if traced != 10 {
		t.Fatalf("traced %d of 40 at 1-in-4", traced)
	}
	// Negative threshold pushes every finished trace.
	if got := o.SlowLog().Len(); got != 10 {
		t.Fatalf("slow log has %d entries, want 10", got)
	}
}

// TestObserverSamplingRoundsUp: a rate that is not a power of two is
// rounded up to one, so 1-in-100 elects the 128th, 256th, … call.
func TestObserverSamplingRoundsUp(t *testing.T) {
	o := New(Config{TraceSample: 100})
	var elected []int
	for i := 1; i <= 3*128; i++ {
		if o.SampleTrace("query", uint64(i)) != nil {
			elected = append(elected, i)
		}
	}
	if len(elected) != 3 || elected[0] != 128 || elected[1] != 256 || elected[2] != 384 {
		t.Fatalf("TraceSample 100 elected calls %v, want [128 256 384]", elected)
	}
}

func TestObserverThreshold(t *testing.T) {
	o := New(Config{TraceSample: 1, SlowThreshold: time.Millisecond})
	fast := o.StartTrace("query")
	o.FinishTrace(fast, 10*time.Microsecond)
	slow := o.StartTrace("query")
	o.FinishTrace(slow, 5*time.Millisecond)
	snap := o.SlowLog().Snapshot()
	if len(snap) != 1 || snap[0].Total != 5*time.Millisecond {
		t.Fatalf("slow log = %+v", snap)
	}
}

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	if o.Hist("x") != nil || o.Registry() != nil || o.SlowLog() != nil {
		t.Fatal("nil observer must return nil components")
	}
	if o.SampleTrace("q", 128) != nil || o.StartTrace("q") != nil {
		t.Fatal("nil observer must not trace")
	}
	o.FinishTrace(nil, time.Second) // must not panic
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		`plain`:        `plain`,
		`a"b`:          `a\"b`,
		`a\b`:          `a\\b`,
		"a\nb":         `a\nb`,
		`mix\"` + "\n": `mix\\\"\n`,
	}
	for in, want := range cases {
		if got := EscapeLabel(in); got != want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRenderHistogramsInvariants(t *testing.T) {
	h := NewHistogram()
	h.Observe(50 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(7 * time.Millisecond)
	snaps := map[string]Snapshot{"query": h.Snapshot(), "empty": {}}
	var sb strings.Builder
	RenderHistograms(&sb, "sfcd_op_latency_seconds", "help text", snaps)
	out := sb.String()

	if strings.Contains(out, `op="empty"`) {
		t.Fatal("empty op must be skipped")
	}
	if !strings.Contains(out, "# TYPE sfcd_op_latency_seconds histogram\n") {
		t.Fatal("missing TYPE line")
	}
	var lastCum int64 = -1
	var infCum, count int64 = -1, -1
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "sfcd_op_latency_seconds_bucket"):
			var cum int64
			if strings.Contains(line, `le="+Inf"`) {
				fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &infCum)
				cum = infCum
			} else {
				fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum)
			}
			if cum < lastCum {
				t.Fatalf("cumulative bucket decreased: %q after %d", line, lastCum)
			}
			lastCum = cum
		case strings.HasPrefix(line, "sfcd_op_latency_seconds_count"):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &count)
		}
	}
	if infCum != 3 || count != 3 {
		t.Fatalf("+Inf bucket = %d, count = %d, want 3", infCum, count)
	}
	if !strings.Contains(out, "sfcd_op_latency_seconds_sum{op=\"query\"}") {
		t.Fatal("missing _sum sample")
	}
	// Render of all-empty snapshots emits nothing at all.
	var empty strings.Builder
	RenderHistograms(&empty, "x", "h", map[string]Snapshot{"a": {}})
	if empty.Len() != 0 {
		t.Fatalf("all-empty render produced %q", empty.String())
	}
}

func TestRenderHistogramsEscapesOps(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	var sb strings.Builder
	RenderHistograms(&sb, "m", "h", map[string]Snapshot{`we"ird`: h.Snapshot()})
	if !strings.Contains(sb.String(), `op="we\"ird"`) {
		t.Fatalf("op label not escaped: %q", sb.String())
	}
}

func TestLoggerLevelsAndFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo)
	lg.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	lg.Debug("dropped")
	lg.Info("listening", "addr", "127.0.0.1:7070", "mode", "approx")
	lg.Warn("odd message", "detail", "has spaces")
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Fatal("debug line must be filtered at info level")
	}
	want := "ts=2026-08-08T12:00:00Z level=info msg=listening addr=127.0.0.1:7070 mode=approx\n"
	if !strings.Contains(out, want) {
		t.Fatalf("log line = %q, want %q", out, want)
	}
	if !strings.Contains(out, `detail="has spaces"`) {
		t.Fatalf("value with spaces must be quoted: %q", out)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var lg *Logger
	lg.Info("nothing") // must not panic
	if lg.Enabled(LevelError) {
		t.Fatal("nil logger must report disabled")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn,
		"warning": LevelWarn, " error ": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
}
