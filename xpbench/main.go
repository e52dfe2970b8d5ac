// Command xpbench is the repository benchmark. It drives the three
// front doors of the system from one process — the xmlprojd serving
// layer (request body in, pruned bytes out), the xmlprune batch path
// (file in, file out) and the paper's §6 query loop (infer π, prune,
// load, evaluate) — checks every output against an independent
// reference, and prints its metrics as one JSON object on the last line
// of standard output.
//
//	xpbench --workload serve_unique --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of the endToEnd
// table; with --trace 1 the run alternates untraced and traced cycle
// windows, and prints the per-layer metrics of the layerMetrics table.
// The line before the result carries the host, the inputs and the
// sample counts.
// See README.md for the workloads and the layers each one stresses.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets the system up; setup_s is
// the median.
const setupRepeats = 5

type metric struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run prints, in order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_mb_s", "MB/s"},
	{"queries_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ttfb_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// bench is one workload. prepare builds the inputs and the expected
// outputs (benchmark work, not timed); setup starts the system under
// test (timed as setup_s).
type bench interface {
	prepare(cfg *config) error
	setup() (instance, error)
	// probeDocs are the documents the layer probes run on.
	probeDocs() []doc
	inputs() map[string]any
}

// instance is a set-up system under test, ready to take ops.
type instance interface {
	// shape returns the length of the op schedule the closed loop
	// walks and the fewest ops a run needs.
	shape() (cycle, minOps int)
	op(seq int) sample
	// startPhase begins a measured phase: it resets the per-phase
	// counters.
	startPhase()
	// trace switches span recording on, or off with nil.
	trace(tr *tracer)
	// check runs the workload self-checks over a measured phase; an
	// error makes the run invalid.
	check(p *phase) error
	// layers fills the per-layer metrics the workload's own ops
	// exercise, from a traced phase.
	layers(p *phase, spans []span, m map[string]float64) error
	close()
}

type config struct {
	seed    int64
	seconds time.Duration
	work    string // scratch directory inside the checkout
}

var workloads = map[string]func() bench{
	"serve_unique": func() bench { return &serveBench{} },
	"serve_repeat": func() bench { return &serveBench{repeat: true} },
	"files_sweep":  func() bench { return &filesBench{} },
	"query_loop":   func() bench { return &queryBench{} },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve_unique, serve_repeat, files_sweep or query_loop")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for scratch files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "xpbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "xpbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "xpbench-")
	if err != nil {
		fmt.Fprintln(stderr, "xpbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := &config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), work: work}
	info, res, err := execute(mk(), *name, cfg, *trace == 1, filepath.Join(*out, "traces"))
	if err != nil {
		fmt.Fprintln(stderr, "xpbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// execute prepares, sets up, measures and checks one workload run.
func execute(b bench, name string, cfg *config, traced bool, traceDir string) (map[string]any, *result, error) {
	t := time.Now()
	if err := b.prepare(cfg); err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	prepareS := time.Since(t).Seconds()
	inst, setupS, err := setupMedian(b)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	cycle, minOps := inst.shape()

	info := map[string]any{
		"workload": name,
		"seed":     cfg.seed,
		"host": map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		"inputs":    b.inputs(),
		"setup_s":   setupS,
		"prepare_s": prepareS,
	}
	res := &result{Metrics: make(map[string]value)}

	// runPhase measures one phase and runs the workload self-checks on
	// it; a failed check makes the whole run invalid.
	runPhase := func(onWindow func(k int)) (*phase, error) {
		inst.startPhase()
		p := measure(cfg.seconds, cycle, minOps, inst.op, onWindow)
		if err := inst.check(p); err != nil {
			return nil, fmt.Errorf("self-check: %w", err)
		}
		return p, nil
	}

	if !traced {
		p, err := runPhase(nil)
		if err != nil {
			return nil, nil, err
		}
		e2e, counts, err := endToEndOf(p, setupS)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{e2e[m.name], m.unit}
		}
		if v, ok := e2e["latency_p99_ms"]; ok {
			info["latency_p99_ms"] = v
		}
		info["samples"] = counts
		res.Attempted, res.Failed = p.attempted(), p.failed()
	} else {
		// Odd cycle windows run untraced, even ones traced, so both
		// kinds see the same cache and heap state; trace.overhead_frac
		// is how much faster the untraced ones ran.
		tr := newTracer()
		p, err := runPhase(func(k int) {
			if k%2 == 0 {
				inst.trace(tr)
			} else {
				inst.trace(nil)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		inst.trace(nil)
		spans := tr.snapshot()
		m := make(map[string]float64)
		if err := inst.layers(p, spans, m); err != nil {
			return nil, nil, err
		}
		runtimeLayers(p, m)
		m["trace.overhead_frac"] = traceOverhead(p)
		if err := probe(b, m); err != nil {
			return nil, nil, fmt.Errorf("probe: %w", err)
		}
		for k := range m {
			if _, ok := layerUnit[k]; !ok {
				return nil, nil, fmt.Errorf("layer metric %s is not in the layer table", k)
			}
		}
		for _, lm := range layerMetrics {
			res.Metrics[lm.name] = value{m[lm.name], lm.unit}
		}
		path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err != nil {
			return nil, nil, fmt.Errorf("write trace: %w", err)
		}
		info["trace_file"] = path
		info["spans"] = len(spans)
		res.Attempted, res.Failed = p.attempted(), p.failed()
	}
	info["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	return info, res, nil
}

// setupMedian sets the system up setupRepeats times, keeps the last
// instance and returns the median set-up time in seconds.
func setupMedian(b bench) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		inst, err = b.setup()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return inst, medianFloat(times), nil
}

// traceOverhead is how much faster the untraced (odd) cycle windows of
// a traced phase finished ops than the traced (even) ones, comparing
// the median rate of each kind.
func traceOverhead(p *phase) float64 {
	var plain, traced []float64
	for i, w := range p.windows() {
		if w.ops == 0 || w.wall <= 0 {
			continue
		}
		rate := float64(w.ops) / w.wall.Seconds()
		if i%2 == 0 { // window i+1
			plain = append(plain, rate)
		} else {
			traced = append(traced, rate)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return 0
	}
	return medianFloat(plain)/medianFloat(traced) - 1
}

// endToEndOf computes the end-to-end metrics of an untraced phase.
// Rates and per-op costs are medians over the phase's cycle windows,
// so one slow stretch (a GC storm, a refilled pool, a noisy neighbour)
// moves them less than it moves a whole-run mean. Latencies are
// quantiles over every op; a failed op counts as slower than every
// successful one.
func endToEndOf(p *phase, setupS float64) (map[string]float64, map[string]int, error) {
	var lats, ttfbs []time.Duration
	for _, s := range p.samples {
		if s.failed {
			lats = append(lats, time.Duration(1<<62))
			continue
		}
		lats = append(lats, s.lat)
		ttfbs = append(ttfbs, s.ttfb)
	}
	n := p.attempted()
	if len(ttfbs) == 0 {
		return nil, nil, errors.New("no op succeeded")
	}
	p50, _ := quantile(lats, 0.5)
	p90, tail := quantile(lats, 0.9)
	if !tail {
		return nil, nil, fmt.Errorf("%d ops leave fewer than ten beyond p90", n)
	}
	m := map[string]float64{
		"setup_s":         setupS,
		"throughput_mb_s": p.windowMedian(func(w window) float64 { return float64(w.bytesIn) / 1e6 / w.wall.Seconds() }),
		"queries_per_s":   p.windowMedian(func(w window) float64 { return float64(w.okOps) / w.wall.Seconds() }),
		"latency_p50_ms":  ms(p50),
		"latency_p90_ms":  ms(p90),
		"ttfb_p50_ms":     ms(median(ttfbs)),
		"cpu_ms_per_op":   p.windowMedian(func(w window) float64 { return ms(w.cpu) / float64(w.ops) }),
		"alloc_mb_per_op": p.windowMedian(func(w window) float64 { return w.alloc / 1e6 / float64(w.ops) }),
	}
	counts := map[string]int{"ops": n, "beyond_p90": beyond(n, 0.9), "windows": len(p.checks) - 1}
	if p99, ok := quantile(lats, 0.99); ok {
		m["latency_p99_ms"] = ms(p99)
		counts["beyond_p99"] = beyond(n, 0.99)
	}
	return m, counts, nil
}

// runtimeLayers fills the Go runtime rows of the layer table.
func runtimeLayers(p *phase, m map[string]float64) {
	n := float64(p.attempted())
	m["gc.cycles_per_op"] = p.gcCycles / n
	m["gc.pause_ms_total"] = ms(p.gcPause)
	m["heap.peak_mb"] = p.heapPeak / 1e6
}
