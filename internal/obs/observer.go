package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// DefaultSlowThreshold marks a traced query slow when its total latency
// reaches this bound.
const DefaultSlowThreshold = 10 * time.Millisecond

// DefaultTraceSample traces one query in this many; tracing allocates a
// record and times stages — ~0.6 µs where a clock read is 70 ns, two
// cache-warm covering queries' worth — so the hot path amortizes that
// cost while the slow log still sees a steady stream of candidates. At
// 128 telemetry costs a cache-warm query ~3 % (EXPERIMENTS.md "Walk
// step", telemetry rows: 16 read 1.16, 64 read 1.065). It is a power of
// two, as New makes every rate.
const DefaultTraceSample = 128

// Config tunes an Observer. The zero value selects the defaults, which
// are cheap enough to leave telemetry on in production.
type Config struct {
	// SlowThreshold is the latency at or above which a traced query is
	// pushed to the slow log (DefaultSlowThreshold when 0; negative
	// pushes every traced query, which tests use to make the log
	// deterministic).
	SlowThreshold time.Duration
	// SlowLogSize caps the slow-query ring (DefaultSlowLogSize when 0).
	SlowLogSize int
	// TraceSample traces one query in TraceSample
	// (DefaultTraceSample when 0; 1 traces every query). New rounds it up
	// to a power of two, so the election is a mask, not a division: 100
	// traces one query in 128.
	TraceSample int
	// MaxOps caps distinct histogram labels (DefaultMaxOps when 0).
	MaxOps int
}

// Observer bundles the registry of latency histograms, the trace
// sampler and the slow-query log for one engine (or one daemon). All
// methods are safe on a nil receiver — a nil *Observer is the
// telemetry-off state and costs one branch per call site.
type Observer struct {
	cfg  Config
	mask uint64 // the trace rate rounded up to a power of two, minus one
	reg  *Registry
	slow *SlowLog
	tick atomic.Uint64
	// spare is a sampled trace FinishTrace sealed and the slow log did not
	// keep, which the next sample reuses: a sampled query allocates only
	// when a concurrent one holds the spare.
	spare atomic.Pointer[QueryTrace]
}

// New builds an Observer from cfg (zero value = defaults).
func New(cfg Config) *Observer {
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.TraceSample <= 0 {
		cfg.TraceSample = DefaultTraceSample
	}
	return &Observer{
		cfg:  cfg,
		mask: 1<<bits.Len64(uint64(cfg.TraceSample-1)) - 1,
		reg:  NewRegistry(cfg.MaxOps),
		slow: NewSlowLog(cfg.SlowLogSize),
	}
}

// Hist returns the latency histogram for op. Nil-safe (returns nil).
func (o *Observer) Hist(op string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Hist(op)
}

// Registry exposes the histogram registry for exposition. Nil-safe.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// SlowLog exposes the slow-query ring. Nil-safe.
func (o *Observer) SlowLog() *SlowLog {
	if o == nil {
		return nil
	}
	return o.slow
}

// SampleTrace returns a fresh trace record for one in cfg.TraceSample
// calls, rounded up to a power of two (nil otherwise, and always nil on a
// nil Observer). The counter is a single shared atomic: one uncontended
// add and a mask per query, which is noise next to the probe loop it
// meters.
//
//sfc:hotpath
func (o *Observer) SampleTrace(op string) *QueryTrace {
	if o == nil {
		return nil
	}
	if o.tick.Add(1)&o.mask != 0 {
		return nil
	}
	if t := o.spare.Swap(nil); t != nil {
		*t = QueryTrace{Op: op, Start: time.Now(), Stages: t.Stages[:0], Slices: t.Slices[:0], sampled: true}
		return t
	}
	t := o.StartTrace(op)
	t.sampled = true
	return t
}

// StartTrace unconditionally starts a trace record (used by the
// explicit trace wire op). Nil-safe.
func (o *Observer) StartTrace(op string) *QueryTrace {
	if o == nil {
		return nil
	}
	return &QueryTrace{Op: op, Start: time.Now(), Stages: make([]Stage, 0, 4)}
}

// FinishTrace seals tr with the total latency and pushes it to the slow
// log when it crossed the threshold. Nil-safe in both arguments. A trace
// SampleTrace returned is the observer's again afterwards, unless the
// slow log kept it; one StartTrace returned stays the caller's.
func (o *Observer) FinishTrace(tr *QueryTrace, total time.Duration) {
	if o == nil || tr == nil {
		return
	}
	tr.Total = total
	if o.cfg.SlowThreshold < 0 || total >= o.cfg.SlowThreshold {
		o.slow.Push(tr) // the log's copy shares tr's stage and slice tables
		return
	}
	if tr.sampled {
		o.spare.Store(tr)
	}
}
