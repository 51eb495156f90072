package obs

import (
	"sync"
	"time"
)

// Stage is one timed step inside a query trace: the successor walk,
// extremal truncation, cube decomposition, the probe loop. Count carries
// the step's unit count where one exists (walk steps, cubes generated,
// probes timed).
type Stage struct {
	Name  string
	Dur   time.Duration
	Count int
}

// QueryCost mirrors the per-query cost counters the dominance layer
// reports: which cut ended the search (Path: "walk" or "cubes"),
// the ordered-structure descents it took (RunsProbed, of which WalkSteps
// were successor-walk seeks) and the paper's cost model for the cube
// search. obs cannot import dominance — the dependency points the other
// way — so the engine copies the fields across when it finishes a trace.
type QueryCost struct {
	Path           string
	M              int
	CubesGenerated int
	RunsProbed     int
	WalkSteps      int
	VolumeFraction float64
	AspectRatio    int
	Found          bool
}

// QueryTrace is the per-query trace record threaded through the cost
// pipeline: the engine allocates it (for sampled or explicitly traced
// queries), the backend and dominance layers append stages and
// per-slice probe counts as the query descends, and the engine seals it
// with the total latency and the cost counters. A nil *QueryTrace is
// valid everywhere and records nothing, so the un-traced hot path pays
// one pointer test per stage site.
type QueryTrace struct {
	// Op names the logical operation ("query").
	Op string
	// Start is when the engine began the query.
	Start time.Time
	// Total is the end-to-end latency, filled when the trace is sealed.
	Total time.Duration
	// Stages are the timed steps in execution order.
	Stages []Stage
	// Slices counts run probes per engine slice (index = slice number),
	// populated on curve-prefix plans where probes fan out over slices.
	Slices []int
	// Cost is the dominance cost snapshot for the query.
	Cost QueryCost
}

// AddStage appends a timed stage. Nil-safe.
//
//sfc:hotpath
func (t *QueryTrace) AddStage(name string, d time.Duration, count int) {
	if t == nil {
		return
	}
	t.Stages = append(t.Stages, Stage{Name: name, Dur: d, Count: count})
}

// TouchSlice counts one probe against slice i, growing the slice table
// on demand. Nil-safe.
//
//sfc:hotpath
func (t *QueryTrace) TouchSlice(i int) {
	if t == nil || i < 0 {
		return
	}
	if n := i + 1 - len(t.Slices); n > 0 {
		t.Slices = append(t.Slices, make([]int, n)...)
	}
	t.Slices[i]++
}

// DefaultSlowLogSize is the slow-query ring capacity when the observer
// config leaves it zero.
const DefaultSlowLogSize = 128

// SlowLog is a fixed-capacity ring of the most recent slow-query
// traces. Pushes overwrite the oldest entry; Snapshot returns
// newest-first copies. A mutex is fine here — the ring is only touched
// for queries that already crossed the slowness threshold, so it is off
// the hot path by construction.
type SlowLog struct {
	mu   sync.Mutex
	ring []QueryTrace
	next int
	n    int
}

// NewSlowLog returns a ring holding up to size traces
// (DefaultSlowLogSize when size <= 0).
func NewSlowLog(size int) *SlowLog {
	if size <= 0 {
		size = DefaultSlowLogSize
	}
	return &SlowLog{ring: make([]QueryTrace, size)}
}

// Push records a trace, overwriting the oldest when full. Nil-safe.
func (l *SlowLog) Push(t *QueryTrace) {
	if l == nil || t == nil {
		return
	}
	l.mu.Lock()
	l.ring[l.next] = *t
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (l *SlowLog) Snapshot() []QueryTrace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryTrace, 0, l.n)
	for i := 0; i < l.n; i++ {
		idx := (l.next - 1 - i + len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}

// Len returns the number of retained traces.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
