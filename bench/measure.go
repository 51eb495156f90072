package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"sfccover/internal/stats"
)

// workload is one closed-loop traffic mix over a fixed, seed-derived op
// sequence. Each client goroutine issues its next op only after the
// previous one returned.
type workload interface {
	// build constructs the system under test and bulk-loads it. Its wall
	// time is setup_s; input generation happens before, in the constructor.
	build() error
	// close tears down what build made (and removes temp data dirs).
	close()
	// clients is the number of goroutines driving the workload.
	clients() int
	// sampleEvery is the number of ops per latency sample: >1 amortises
	// the clock over sub-microsecond ops.
	sampleEvery() int
	// period is the op count after which the population is back at its
	// starting size; the timed loop stops only on a multiple of it.
	period() int
	// warmOps is the least number of ops the warm-up must run before the
	// workload is in steady state; 0 when the warm-up time alone suffices.
	warmOps() int64
	// startTimed marks the end of warm-up: result recording restarts.
	startTimed()
	// step runs client c's next op and records its outcome for check. The
	// returned duration is time the op spent on work that is counted in
	// wall time but not in op latency (the inline snapshot).
	step(c int) time.Duration
	// check runs the oracle over the recorded outcomes, off the clock.
	check() (verdict, error)
}

// verdict is the oracle's finding for one run.
type verdict struct {
	// failed counts errors, refusals and oracle mismatches.
	failed int64
	// recallNum over recallDen is cover_recall: covers the system claimed
	// over covers a brute-force scan finds (for the overlay: subscription
	// messages an exact overlay sends over those the system sent).
	recallNum, recallDen int64
}

// samples are one client's op latencies in nanoseconds, in issue order.
type samples []uint32

func (s *samples) add(d time.Duration) {
	if len(*s) == cap(*s) {
		return // full: keep counting ops, stop sampling
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	if ns > int64(^uint32(0)) {
		ns = int64(^uint32(0))
	}
	*s = append(*s, uint32(ns))
}

// segments is how many equal-time slices a timed region is cut into. The
// box these rows come from is shared: for seconds to minutes at a time a
// neighbour slows every instruction by up to a half. Two defences: every
// metric of time is computed per slice and reported as the quartile of
// the slices on the better side, so a disturbance that spares a quarter
// of the run does not reach the metric; and every slice is rescaled by how
// fast the box ran a fixed reference kernel during that slice, so a
// disturbance that covers the whole run mostly cancels.
const segments = 10

// The tail percentile is taken over finer groups than the slices, because
// a disturbance reaches the p99 of a whole second long before it reaches
// its median: consecutive latency samples are cut into at most
// tailGroupsMax groups of at least tailGroupSamples (so that ten samples
// lie beyond each group's p99), and the run reports the decile of the
// groups' p99s on the better side.
const (
	tailQuantile     = 0.99
	tailGroupSamples = 1000
	tailGroupsMax    = 50
)

// The reference kernel: a fixed piece of work with the three ingredients
// of the index code — independent ALU chains (four interleaved xorshift
// streams), unpredictable branches (sorting 4096 fresh pseudo-random keys)
// and cache traffic (read-modify-writes at random words of a 256 KiB
// buffer, resident in L2 whatever physical pages it lands on). calNominal
// is what it takes on the quiet box; a slice in which it took twice as
// long has its times halved and its rate doubled. On another box every
// value shifts by one constant factor, the same for both sides of a
// comparison. The record keeps the unscaled whole-run throughput beside
// the scaled one.
const (
	calALUSteps = 100_000
	calSortKeys = 4096
	calMemSteps = 100_000
	calMemWords = 1 << 15
	calNominal  = 750 * time.Microsecond
	calEvery    = 25 * time.Millisecond
)

// refKernel owns the reference kernel's buffers.
type refKernel struct {
	mem  []uint64
	keys []uint32
	sink uint64
}

func newRefKernel() *refKernel {
	return &refKernel{mem: make([]uint64, calMemWords), keys: make([]uint32, calSortKeys)}
}

func (k *refKernel) run() {
	a, b, c, d := uint64(88172645463325252), uint64(1234567891234567), uint64(987654321987654321), uint64(5555555555555555)
	for i := 0; i < calALUSteps; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	x := a ^ b ^ c ^ d | 1
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys[i] = uint32(x)
	}
	slices.Sort(k.keys)
	for i := 0; i < calMemSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.mem[int(x>>40)&(calMemWords-1)] += x
	}
	k.sink += x + uint64(k.keys[0])
}

// boxSpeed runs the reference kernel back to back and returns the box's
// speed relative to nominal, for work that is not inside a timed region.
// The first run only warms the buffers (which costs the kernel ~3 %, so
// one nominal serves both uses).
func (k *refKernel) boxSpeed() float64 {
	k.run()
	var took []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		k.run()
		took = append(took, float64(time.Since(t0)))
	}
	return float64(calNominal) / medianFloat(took)
}

// calSample is one run of the reference kernel.
type calSample struct {
	at, took time.Duration
}

// mark is one client's position when it crossed a slice boundary.
type mark struct {
	at      time.Duration // since the region began
	samples int           // latency samples taken so far
	ops     int64         // ops done so far
	cpu     time.Duration // process CPU so far
	calTime time.Duration // spent in the reference kernel so far (not the workload's time)
}

// driven is what one drive call did.
type driven struct {
	ops   int64
	wall  time.Duration
	slice time.Duration
	marks [][]mark      // per client, one per slice boundary crossed, in order
	cals  [][]calSample // per client
}

// drive runs every client of w for at least d and at least minOps ops
// each, every client stopping on a period boundary, and returns the ops
// done and the wall time from the common start to the last client's stop.
// lat, when non-nil, receives one samples slice per client; each client
// then also marks where it was at every d/segments boundary and runs the
// reference kernel every calEvery, off the op clock.
func drive(w workload, d time.Duration, minOps int64, lat []samples) driven {
	n := w.clients()
	every, period := w.sampleEvery(), w.period()
	out := driven{slice: d / segments, marks: make([][]mark, n), cals: make([][]calSample, n)}
	ops := make([]int64, n)
	ends := make([]time.Time, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				rec     *samples
				marks   []mark
				cals    []calSample
				cal     *refKernel
				calTime time.Duration
			)
			if lat != nil {
				rec = &lat[c]
				marks = append(make([]mark, 0, segments+1), mark{at: time.Since(start), cpu: cpuTime()})
				cals = make([]calSample, 0, int(d/calEvery)+8)
				cal = newRefKernel()
			}
			boundary, nextCal := start.Add(out.slice), start
			var done int64
			last := time.Now()
			for {
				for j := 0; j < period; j += every {
					var skip time.Duration
					for k := 0; k < every; k++ {
						skip += w.step(c)
					}
					done += int64(every)
					now := time.Now()
					if rec != nil {
						rec.add((now.Sub(last) - skip) / time.Duration(every))
						if !now.Before(nextCal) {
							cal.run()
							after := time.Now()
							cals = append(cals, calSample{now.Sub(start), after.Sub(now)})
							calTime += after.Sub(now)
							now, nextCal = after, after.Add(calEvery)
						}
						if !now.Before(boundary) && len(marks) <= segments {
							marks = append(marks, mark{now.Sub(start), len(*rec), done, cpuTime(), calTime})
							boundary = boundary.Add(out.slice)
						}
					}
					last = now
				}
				if !last.Before(deadline) && done >= minOps {
					break
				}
			}
			ops[c], ends[c], out.marks[c], out.cals[c] = done, last, marks, cals
		}(c)
	}
	wg.Wait()
	for c := 0; c < n; c++ {
		out.ops += ops[c]
		if w := ends[c].Sub(start); w > out.wall {
			out.wall = w
		}
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLive is HeapAlloc after two forced collections: the second empties
// what sync.Pool kept alive through the first.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stats.Percentile(s, 0.5)
}

// spread is one metric's values over the slices of a timed region.
type spread struct {
	median float64
	// quartile is the quartile on the better side (upper for a rate, lower
	// for a time): what the region reads when up to three quarters of its
	// slices were disturbed. Noise on a shared box only ever slows a slice.
	quartile float64
	// decile is the same a tenth of the way in; the tail metric uses it.
	decile float64
	best   float64
	n      int
}

func spreadOf(v []float64, lowerIsBetter bool) spread {
	if len(v) == 0 {
		return spread{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q, d, best := 0.25, 0.1, s[0]
	if !lowerIsBetter {
		q, d, best = 0.75, 0.9, s[len(s)-1]
	}
	return spread{
		median: stats.Percentile(s, 0.5), quartile: stats.Percentile(s, q), decile: stats.Percentile(s, d),
		best: best, n: len(s),
	}
}

// sliceStats are the per-slice metrics of one timed region, rescaled by
// the reference kernel.
type sliceStats struct {
	samples  int
	opsPerS  spread
	p50      spread // ns
	cpuPerOp spread // ns
	tail     spread // ns, over the tail groups
	speed    spread // calNominal / kernel time per slice: 1 = the quiet box
}

// speeds returns, per client and slice, how fast the box ran the
// reference kernel relative to nominal: the median over the slice's
// kernel runs, the previous slice's value when the slice has none.
func speeds(dr driven, k int) [][]float64 {
	out := make([][]float64, len(dr.marks))
	for c := range dr.marks {
		out[c] = make([]float64, k+1)
		prev := 1.0
		for i := 1; i <= k; i++ {
			var took []float64
			for _, s := range dr.cals[c] {
				if s.at > dr.marks[c][i-1].at && s.at <= dr.marks[c][i].at {
					took = append(took, float64(s.took))
				}
			}
			if len(took) > 0 {
				prev = float64(calNominal) / medianFloat(took)
			}
			out[c][i] = prev
		}
	}
	return out
}

// summarize computes every time metric per slice, each slice's times
// multiplied (and its rate divided) by the box's speed in that slice, and
// the tail percentile per tail group of the rescaled samples.
func summarize(dr driven, lat []samples) sliceStats {
	var st sliceStats
	k := segments
	for c := range lat {
		st.samples += len(lat[c])
		if n := len(dr.marks[c]) - 1; n < k {
			k = n
		}
	}
	if k < 1 || st.samples == 0 {
		return st
	}
	speed := speeds(dr, k)
	// Every client's samples, rescaled by their slice's speed, in issue
	// order.
	scaled := make([][]uint32, len(lat))
	for c := range lat {
		scaled[c] = make([]uint32, 0, dr.marks[c][k].samples)
		for i := 1; i <= k; i++ {
			f := speed[c][i]
			for _, v := range lat[c][dr.marks[c][i-1].samples:dr.marks[c][i].samples] {
				scaled[c] = append(scaled[c], uint32(float64(v)*f))
			}
		}
	}
	// quantileOf returns the q-quantile over all clients of the samples
	// each client's bounds select, or false when they select none.
	var buf []uint32
	quantileOf := func(q float64, bounds func(c int) (from, to int)) (float64, bool) {
		buf = buf[:0]
		for c := range scaled {
			from, to := bounds(c)
			buf = append(buf, scaled[c][from:to]...)
		}
		slices.Sort(buf)
		return quantile(buf, q), len(buf) > 0
	}

	var rate, p50, cpu, sp []float64
	for i := 1; i <= k; i++ {
		var r, f, calTime float64
		var ops int64
		for c := range lat {
			a, b := dr.marks[c][i-1], dr.marks[c][i]
			busy := (b.at - a.at) - (b.calTime - a.calTime)
			r += float64(b.ops-a.ops) / busy.Seconds() / speed[c][i]
			ops += b.ops - a.ops
			f += speed[c][i] / float64(len(lat))
			calTime += float64((b.calTime - a.calTime).Nanoseconds())
		}
		rate, sp = append(rate, r), append(sp, f)
		// CPU is process-wide: client 0's readings bracket the slice, and
		// the kernel's own CPU (all of its wall time) is not the workload's.
		used := float64((dr.marks[0][i].cpu - dr.marks[0][i-1].cpu).Nanoseconds()) - calTime
		cpu = append(cpu, used/float64(ops)*f)
		if v, ok := quantileOf(0.5, func(c int) (int, int) { return dr.marks[c][i-1].samples, dr.marks[c][i].samples }); ok {
			p50 = append(p50, v)
		}
	}
	st.opsPerS, st.p50, st.cpuPerOp = spreadOf(rate, false), spreadOf(p50, true), spreadOf(cpu, true)
	st.speed = spreadOf(sp, false)

	// Tail group g holds the g-th part of each client's sequence, which for
	// closed-loop clients is the same stretch of time.
	total := 0
	for c := range scaled {
		total += len(scaled[c])
	}
	groups := min(max(total/tailGroupSamples, 1), tailGroupsMax)
	var tails []float64
	for g := 0; g < groups; g++ {
		if v, ok := quantileOf(tailQuantile, func(c int) (int, int) {
			n := len(scaled[c])
			return g * n / groups, (g + 1) * n / groups
		}); ok {
			tails = append(tails, v)
		}
	}
	st.tail = spreadOf(tails, true)
	return st
}

// measurement is one workload's untraced timed region plus its set-up.
type measurement struct {
	setupS      float64
	setupAll    []float64
	timed       driven
	slices      sliceStats
	mallocs     uint64
	heapLiveMiB float64
	verdict     verdict
}

// measure builds w (several times, keeping the last build), warms it up,
// times it for d, and runs the oracle.
func measure(w workload, sc scale, d time.Duration) (measurement, error) {
	var m measurement
	lat := make([]samples, w.clients())
	// Room for 1M latency samples a second per client (250k when a sample
	// spans a block of ops); past it ops still count, sampling stops.
	perSecond := 1_000_000
	if w.sampleEvery() > 1 {
		perSecond = 250_000
	}
	perClient := int(d.Seconds()*float64(perSecond)) + 1024
	for c := range lat {
		lat[c] = make(samples, 0, perClient)
	}
	heap0 := heapLive()

	// Set-up is rescaled like the timed region: the reference kernel runs
	// before and after every build.
	cal := newRefKernel()
	var spent time.Duration
	for r := 0; r < sc.setupReps || (spent < sc.setupFor && r < setupRepsMax); r++ {
		if r > 0 {
			w.close()
		}
		before := cal.boxSpeed()
		t0 := time.Now()
		if err := w.build(); err != nil {
			return m, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		spent += took
		m.setupAll = append(m.setupAll, took.Seconds()*(before+cal.boxSpeed())/2)
	}
	m.setupS = medianFloat(m.setupAll)

	drive(w, sc.warm, w.warmOps(), nil)
	w.startTimed()

	runtime.GC() // start every timed region from the same collector state
	mal0 := mallocs()
	m.timed = drive(w, d, 0, lat)
	m.mallocs = mallocs() - mal0
	if live := heapLive(); live > heap0 {
		m.heapLiveMiB = float64(live-heap0) / (1 << 20)
	}
	m.slices = summarize(m.timed, lat)

	v, err := w.check()
	if err != nil {
		return m, fmt.Errorf("oracle: %w", err)
	}
	m.verdict = v
	return m, nil
}
