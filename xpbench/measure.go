package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is one closed-loop operation as its caller saw it.
type sample struct {
	lat     time.Duration
	ttfb    time.Duration // time until the first output byte existed
	bytesIn int64         // input bytes the op pruned
	failed  bool          // failed, refused or wrong
}

// phase is one measured stretch of a workload: every op's sample, the
// process-wide runtime deltas over it, and checkpoints taken each time
// the loop finished a cycle of its schedule.
type phase struct {
	samples  []sample
	checks   []checkpoint
	gcCycles float64
	gcPause  time.Duration
	heapPeak float64 // bytes
}

// checkpoint is the running state of a phase at a cycle boundary.
type checkpoint struct {
	at      time.Time
	cpu     time.Duration
	alloc   float64
	ops     int   // ops finished so far
	okOps   int   // of which succeeded
	bytesIn int64 // input bytes of the succeeded ops
}

func (p *phase) attempted() int { return len(p.samples) }

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// window is the work done between two consecutive checkpoints.
type window struct {
	checkpoint // deltas; at is unused
	wall       time.Duration
}

// windowMedian is the median of f over the phase's windows that
// finished an op.
func (p *phase) windowMedian(f func(w window) float64) float64 {
	var xs []float64
	for _, w := range p.windows() {
		if w.ops > 0 && w.wall > 0 {
			xs = append(xs, f(w))
		}
	}
	return medianFloat(xs)
}

func (p *phase) windows() []window {
	var out []window
	for i := 1; i < len(p.checks); i++ {
		a, b := p.checks[i-1], p.checks[i]
		out = append(out, window{
			checkpoint: checkpoint{
				cpu:     b.cpu - a.cpu,
				alloc:   b.alloc - a.alloc,
				ops:     b.ops - a.ops,
				okOps:   b.okOps - a.okOps,
				bytesIn: b.bytesIn - a.bytesIn,
			},
			wall: b.at.Sub(a.at),
		})
	}
	return out
}

// measure runs one closed loop: op(seq) runs the seq-th op of the
// schedule, and the next op starts only after it returned. The loop
// stops at the first multiple of cycle past the deadline, so every run
// covers whole schedules and the mix of inputs does not depend on where
// the clock ran out. The run is also extended (up to 3x) until at least
// minOps ops completed, so the tail percentile it reports has ten
// samples beyond it. If onWindow is not nil it is called as each cycle
// window k = 1, 2, ... begins.
func measure(d time.Duration, cycle, minOps int, op func(seq int) sample, onWindow func(k int)) *phase {
	runtime.GC()
	r0 := readRuntime()
	cpu0 := cpuTime()
	var peak peakSampler
	peak.start()
	start := time.Now()
	deadline := start.Add(d)
	hardStop := start.Add(3 * d)
	var cur checkpoint // running totals
	p := &phase{}
	mark := func() {
		c := cur
		c.at, c.cpu, c.alloc = time.Now(), cpuTime()-cpu0, readAllocBytes()-r0.alloc
		p.checks = append(p.checks, c)
		if onWindow != nil {
			onWindow(len(p.checks))
		}
	}
	mark()
	for seq := 0; ; seq++ {
		if seq%cycle == 0 {
			if seq > 0 {
				mark()
			}
			now := time.Now()
			if now.After(hardStop) || (now.After(deadline) && cur.ops >= minOps) {
				break
			}
		}
		s := op(seq)
		p.samples = append(p.samples, s)
		cur.ops++
		if !s.failed {
			cur.okOps++
			cur.bytesIn += s.bytesIn
		}
	}
	p.heapPeak = peak.stop()
	r1 := readRuntime()
	p.gcCycles = r1.gcCycles - r0.gcCycles
	p.gcPause = r1.gcPause - r0.gcPause
	return p
}

func readAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSnap struct {
	alloc, allocObjs, gcCycles float64
	gcPause                    time.Duration
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSnap {
	ss := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ss[i].Name = k
	}
	metrics.Read(ss)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{
		alloc:     float64(ss[0].Value.Uint64()),
		allocObjs: float64(ss[1].Value.Uint64()),
		gcCycles:  float64(ss[2].Value.Uint64()),
		gcPause:   time.Duration(ms.PauseTotalNs),
	}
}

// peakSampler polls the live heap every 20 ms and keeps the maximum.
type peakSampler struct {
	stopc chan struct{}
	done  chan float64
}

func (s *peakSampler) start() {
	s.stopc = make(chan struct{})
	s.done = make(chan float64, 1)
	go func() {
		ss := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak float64
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(ss)
			if v := float64(ss[0].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-s.stopc:
				s.done <- peak
				return
			case <-t.C:
			}
		}
	}()
}

func (s *peakSampler) stop() float64 {
	close(s.stopc)
	return <-s.done
}

// quantile is the nearest-rank q-quantile of ds (sorted in place) and
// whether at least ten samples lie beyond it.
func quantile(ds []time.Duration, q float64) (time.Duration, bool) {
	if len(ds) == 0 {
		return 0, false
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[rank(len(ds), q)], beyond(len(ds), q) >= 10
}

// rank is the index of the nearest-rank q-quantile among n samples.
func rank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// beyond counts the samples above the q-quantile.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// median is the 0.5-quantile, without the tail-count requirement.
func median(ds []time.Duration) time.Duration {
	v, _ := quantile(ds, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
