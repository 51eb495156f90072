// Package hotpathfix seeds hotpathclock violations and the patterns it
// must accept: trace-elected branches, line suppressions, cold code.
package hotpathfix

import (
	"time"

	"sfccover/internal/obs"
)

type engine struct {
	o *obs.Observer
	h *obs.Histogram
	n uint64 // the queries counted so far, which elect a trace
}

// badClock reads the clock with no election at all.
//
//sfc:hotpath
func (e *engine) badClock() time.Duration {
	t0 := time.Now()      // want `time\.Now on a //sfc:hotpath function`
	return time.Since(t0) // want `time\.Since on a //sfc:hotpath function`
}

// badFetch takes the registry lock per call.
//
//sfc:hotpath
func (e *engine) badFetch(d time.Duration) {
	e.o.Hist("query").Observe(d) // want `fetches from the histogram registry`
}

// badFetchElected shows election does not excuse a registry fetch: the
// lock costs the same inside a traced branch.
//
//sfc:hotpath
func (e *engine) badFetchElected(d time.Duration) {
	if tr := e.o.SampleTrace("query", e.n+1); tr != nil {
		e.o.Hist("query").Observe(d) // want `fetches from the histogram registry`
	}
}

// goodElected pays for its clock only on trace-elected queries.
//
//sfc:hotpath
func (e *engine) goodElected() {
	tr := e.o.SampleTrace("query", e.n+1)
	if tr != nil {
		t0 := time.Now()
		e.h.Observe(time.Since(t0))
	}
}

// goodConjunct elects through the right operand of &&.
//
//sfc:hotpath
func (e *engine) goodConjunct(tr *obs.QueryTrace) {
	if e.h != nil && tr != nil {
		e.h.Observe(time.Since(time.Now()))
	}
}

// goodElseElected elects through the else branch of == nil.
//
//sfc:hotpath
func (e *engine) goodElseElected(tr *obs.QueryTrace) {
	if tr == nil {
		e.h.Observe(0)
	} else {
		e.h.Observe(time.Since(time.Now()))
	}
}

// goodSuppressed documents the line-level escape hatch.
//
//sfc:hotpath
func (e *engine) goodSuppressed() time.Time {
	//sfc:allowclock fixture: the annotation must silence the finding
	return time.Now()
}

// bareSuppression lacks a reason, so it suppresses nothing.
//
//sfc:hotpath
func (e *engine) bareSuppression() time.Time {
	//sfc:allowclock
	return time.Now() // want `time\.Now on a //sfc:hotpath function`
}

// coldPath is unannotated: out of the analyzer's scope.
func (e *engine) coldPath() time.Time { return time.Now() }
