package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xmlproj"
	"xmlproj/internal/mmapio"
	"xmlproj/internal/rescache"
)

// fileSlot is one files_sweep op: a file, fed mapped or through a
// pipe, pruned under low or mid.
type fileSlot struct {
	file   int
	piped  bool
	proj   int // 0 low, 1 mid
	output string
}

var fileQueries = [2]string{queryLow, queryMid}

type filesBench struct {
	seed  int64
	docs  []doc
	paths []string
	exp   [][2][]byte
	sched []fileSlot
}

func (b *filesBench) prepare(cfg *config) error {
	b.seed = cfg.seed
	d, err := schema()
	if err != nil {
		return err
	}
	var ps [2]*xmlproj.Projector
	for i, q := range fileQueries {
		if ps[i], err = inferQueries(d, q); err != nil {
			return err
		}
	}
	n := len(fileSizes)
	b.docs = make([]doc, n)
	b.paths = make([]string, n)
	b.exp = make([][2][]byte, n)
	err = parallelEach(n, func(i int) error {
		dc := genDoc(fileSizes[i].factor, cfg.seed*1000+int64(i))
		dc.name = fileSizes[i].label
		b.paths[i] = filepath.Join(cfg.work, dc.name+".xml")
		if err := os.WriteFile(b.paths[i], dc.data, 0o644); err != nil {
			return err
		}
		for j, p := range ps {
			out, err := reference(p, dc.data, false)
			if err != nil {
				return err
			}
			b.exp[i][j] = out
		}
		// The largest file is only needed on disk; keep its bytes out
		// of the heap the measured ops see.
		if i == n-1 {
			dc.data = nil
		}
		b.docs[i] = dc
		return nil
	})
	if err != nil {
		return err
	}
	// Every file is pruned mapped and piped under both projections, file
	// after file in the same order for every seed; every file but the
	// largest twice per cycle. Both are measurement choices that keep the
	// quantiles and the allocation per op steady from seed to seed:
	// README.md gives the figures.
	for i := range b.docs {
		for r := 0; r < fileSizes[i].reps; r++ {
			for _, piped := range []bool{false, true} {
				for j := range fileQueries {
					out := filepath.Join(cfg.work, fmt.Sprintf("out-%d-%v-%d.xml", i, piped, j))
					b.sched = append(b.sched, fileSlot{file: i, piped: piped, proj: j, output: out})
				}
			}
		}
	}
	return nil
}

func (b *filesBench) probeDocs() []doc {
	var out []doc
	for _, d := range b.docs {
		if d.data != nil {
			out = append(out, d)
		}
	}
	return out
}

func (b *filesBench) inputs() map[string]any {
	sizes := make(map[string]int64)
	keep := map[string]float64{}
	var in float64
	var out [2]float64
	for i, p := range b.paths {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		sizes[b.docs[i].name] = fi.Size()
		in += float64(fi.Size())
		out[0] += float64(len(b.exp[i][0]))
		out[1] += float64(len(b.exp[i][1]))
	}
	keep["low"], keep["mid"] = out[0]/in, out[1]/in
	return map[string]any{"file_bytes": sizes, "keep_ratio": keep, "schedule_len": len(b.sched)}
}

// filesInst is an xmlprune-style engine: default result cache, one
// batch job per op, one caller (xmlprune prunes a file per process and
// gives it every CPU).
type filesInst struct {
	b     *filesBench
	d     *xmlproj.DTD
	eng   *xmlproj.Engine
	nonce uint64
	tr    atomic.Pointer[tracer]
	opSeq int64

	mu      sync.Mutex
	chosen  map[string]int // "engine.size" → count, this phase
	results []xmlproj.BatchResult
	batch   []time.Duration // PruneBatch wall − job Elapsed
	m0      xmlproj.EngineMetrics
}

func (b *filesBench) setup() (instance, error) {
	d, err := schema()
	if err != nil {
		return nil, err
	}
	in := &filesInst{b: b, d: d, nonce: uint64(b.seed) << 32, chosen: make(map[string]int)}
	in.eng = xmlproj.NewEngine(xmlproj.EngineOptions{ResultCacheBytes: xmlproj.DefaultResultCacheBytes})
	// Warm-up: the smallest file, mapped and piped, under both
	// projections, once each.
	done := make(map[fileSlot]bool)
	for _, sl := range b.sched {
		if sl.file == 0 && !done[sl] {
			done[sl] = true
			if s := in.do(sl); s.failed {
				return nil, fmt.Errorf("warm-up on %s failed", b.paths[0])
			}
		}
	}
	return in, nil
}

func (in *filesInst) shape() (int, int) { return len(in.b.sched), 100 }

func (in *filesInst) trace(tr *tracer) { in.tr.Store(tr) }

func (in *filesInst) startPhase() {
	in.mu.Lock()
	in.chosen = make(map[string]int)
	in.results = nil
	in.batch = nil
	in.m0 = in.eng.Metrics()
	in.mu.Unlock()
}

func (in *filesInst) op(seq int) sample {
	return in.do(in.b.sched[seq%len(in.b.sched)])
}

// do runs one op as xmlprune would: compile the query, infer through
// the engine's projector cache, prune the file in one batch job to an
// output file. The sink compares every byte with the reference as it
// writes it, so checking allocates nothing per op.
func (in *filesInst) do(sl fileSlot) sample {
	path := in.b.paths[sl.file]
	// A fresh nonce before every op: the file's bytes and mtime change,
	// so neither the file-identity memo nor the content digest can serve
	// a cached result.
	in.nonce++
	if err := writeNonce(path, in.nonce); err != nil {
		return sample{failed: true}
	}
	in.opSeq++
	op := in.opSeq
	tr := in.tr.Load()

	start := time.Now()
	var p *xmlproj.Projector
	q, err := xmlproj.Compile(fileQueries[sl.proj])
	tc := time.Now()
	if err == nil {
		p, err = in.eng.InferCached(in.d, xmlproj.Materialized, q)
	}
	ti := time.Now()
	if err != nil {
		return sample{failed: true}
	}
	sink := &fileSink{path: sl.output, want: in.b.exp[sl.file][sl.proj]}
	var src io.Reader
	var closeSrc func() error
	if sl.piped {
		src, closeSrc, err = pipeFile(path)
	} else {
		fs := &fileSource{path: path, tr: tr, op: op}
		src, closeSrc = fs, fs.close
	}
	if err != nil {
		return sample{failed: true}
	}
	tb := time.Now()
	res, _, berr := in.eng.PruneBatch(context.Background(), p, []xmlproj.BatchJob{{Name: path, Src: src, Dst: sink}}, xmlproj.BatchOptions{})
	te := time.Now()
	cerr := closeSrc()
	end := time.Now()

	s := sample{lat: end.Sub(start), ttfb: end.Sub(start)}
	if !sink.first.IsZero() {
		s.ttfb = sink.first.Sub(start)
	}
	if berr != nil || cerr != nil || len(res) != 1 {
		s.failed = true
		return s
	}
	r := res[0]
	s.bytesIn = r.BytesIn
	s.failed = !sink.matched()

	eng := "scanner"
	switch {
	case r.Parallel.Workers > 0:
		eng = "parallel"
	case r.Pipeline.Workers > 0:
		eng = "pipelined"
	}
	in.mu.Lock()
	in.chosen[eng+"."+in.b.docs[sl.file].name]++
	in.results = append(in.results, r)
	in.batch = append(in.batch, te.Sub(tb)-r.Elapsed)
	in.mu.Unlock()

	opSpan := tr.add("op", op, -1, start, end)
	tr.add("core.compile", op, opSpan, start, tc)
	tr.add("engine.infer_cached", op, opSpan, tc, ti)
	tr.add("engine.prune_batch", op, opSpan, tb, te)
	return s
}

func writeNonce(path string, n uint64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	buf := make([]byte, nonceLen)
	putNonce(buf, n)
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pipeFile feeds a file through an OS pipe, as `cat f | xmlprune`
// does: the prune sees a stream of unknown length. The returned close
// function stops the copier and waits for it.
func pipeFile(path string) (io.Reader, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(pw, f)
		f.Close()
		if cerr := pw.Close(); err == nil {
			err = cerr
		}
		done <- err
	}()
	closeFn := func() error {
		pr.Close() // unblocks the copier if the prune stopped early
		return <-done
	}
	return bufio.NewReaderSize(pr, 1<<20), closeFn, nil
}

// fileSource is xmlprune's batch input for a regular file: stat for the
// size, the whole file mapped for the bytes, and the file identity for
// the result cache's memo.
type fileSource struct {
	path string
	data *mmapio.Data
	f    *os.File
	tr   *tracer
	op   int64
}

func (s *fileSource) InputSize() (int64, bool) {
	fi, err := os.Stat(s.path)
	if err != nil || !fi.Mode().IsRegular() {
		return 0, false
	}
	return fi.Size(), true
}

func (s *fileSource) InputBytes() []byte {
	t := time.Now()
	d, err := mmapio.Open(s.path)
	s.tr.add("mmapio.open", s.op, -1, t, time.Now())
	if err != nil {
		return nil
	}
	s.data = d
	return d.Bytes()
}

func (s *fileSource) ResultCacheIdentity() (rescache.Identity, bool) {
	fi, err := os.Stat(s.path)
	if err != nil {
		return rescache.Identity{}, false
	}
	return rescache.FileIdentity(fi)
}

// Read serves the streaming fallback when the map is declined.
func (s *fileSource) Read(p []byte) (int, error) {
	if s.f == nil {
		f, err := os.Open(s.path)
		if err != nil {
			return 0, err
		}
		s.f = f
	}
	return s.f.Read(p)
}

func (s *fileSource) close() error {
	var err error
	if s.data != nil {
		err = s.data.Close()
	}
	if s.f != nil {
		s.f.Close()
	}
	return err
}

// fileSink creates the output file on first write and remembers when
// that was: the time to first output byte. It also compares what it
// writes with the expected output.
type fileSink struct {
	path  string
	want  []byte
	off   int  // bytes written so far
	wrong bool // a written byte differed from want
	f     *os.File
	first time.Time
}

func (s *fileSink) Write(p []byte) (int, error) {
	if s.f == nil {
		s.first = time.Now()
		f, err := os.Create(s.path)
		if err != nil {
			return 0, err
		}
		s.f = f
	}
	if end := s.off + len(p); end > len(s.want) || !bytes.Equal(p, s.want[s.off:end]) {
		s.wrong = true
	}
	n, err := s.f.Write(p)
	s.off += n
	return n, err
}

// matched reports whether the sink received exactly the expected bytes.
func (s *fileSink) matched() bool { return !s.wrong && s.off == len(s.want) }

func (s *fileSink) Close() error {
	if s.f == nil {
		// Nothing was written: an empty output still replaces the old.
		return os.WriteFile(s.path, nil, 0o644)
	}
	return s.f.Close()
}

func (in *filesInst) check(p *phase) error {
	m := in.eng.Metrics()
	in.mu.Lock()
	defer in.mu.Unlock()
	if hits := m.ResultHits - in.m0.ResultHits; hits != 0 {
		return fmt.Errorf("rescache.hit_ratio > 0 (%d hits) on files with fresh nonces, want 0", hits)
	}
	for _, e := range engineNames {
		n := 0
		for _, s := range fileSizes {
			n += in.chosen[e+"."+s.label]
		}
		if n == 0 {
			return fmt.Errorf("auto-selection never chose the %s engine", e)
		}
	}
	return nil
}

func (in *filesInst) layers(p *phase, spans []span, m map[string]float64) error {
	em := in.eng.Metrics()
	in.mu.Lock()
	defer in.mu.Unlock()
	m0 := in.m0
	for k, n := range in.chosen {
		m["prune.chosen."+k] = float64(n)
	}
	m["rescache.hit_ratio"] = ratioOf(float64(em.ResultHits-m0.ResultHits), float64(em.ResultMisses-m0.ResultMisses))
	m["rescache.evictions"] = float64(em.ResultEvictions - m0.ResultEvictions)
	m["engine.infer_cache_hit_ratio"] = ratioOf(float64(em.CacheHits-m0.CacheHits), float64(em.CacheMisses-m0.CacheMisses))
	m["engine.projection_cache_hit_ratio"] = ratioOf(float64(em.ProjectionHits-m0.ProjectionHits), float64(em.ProjectionMisses-m0.ProjectionMisses))
	m["engine.batch_overhead_ms_p50"] = ms(median(in.batch))
	m["mmapio.open_us_p50"] = float64(median(durs(spans, "mmapio.open"))) / 1e3
	m["core.compile_ms_p50"] = ms(median(durs(spans, "core.compile")))
	m["core.infer_ms_p50"] = ms(median(durs(spans, "engine.infer_cached")))

	var par []xmlproj.ParallelStages
	var pipe []xmlproj.PipelineStages
	var idxBytes int64
	for _, r := range in.results {
		if r.Parallel.Workers > 0 {
			par = append(par, r.Parallel)
			idxBytes += r.BytesIn
		}
		if r.Pipeline.Workers > 0 {
			pipe = append(pipe, r.Pipeline)
		}
	}
	parallelLayers(par, idxBytes, m)
	pipelineLayers(pipe, m)
	return nil
}

// parallelLayers fills the parallel.* and index.* rows from the
// per-prune stage reports of the two-stage parallel pruner.
func parallelLayers(par []xmlproj.ParallelStages, indexedBytes int64, m map[string]float64) {
	if len(par) == 0 {
		return
	}
	var idx, prn, sti []time.Duration
	var tasks, fallbacks float64
	var idxTotal time.Duration
	for _, d := range par {
		idx = append(idx, d.IndexTime)
		prn = append(prn, d.PruneTime)
		sti = append(sti, d.StitchTime)
		tasks += float64(d.Tasks)
		idxTotal += d.IndexTime
		if d.Fallback {
			fallbacks++
		}
	}
	m["parallel.index_ms_p50"] = ms(median(idx))
	m["parallel.prune_ms_p50"] = ms(median(prn))
	m["parallel.stitch_ms_p50"] = ms(median(sti))
	m["parallel.tasks"] = tasks / float64(len(par))
	m["parallel.fallbacks"] = fallbacks
	if idxTotal > 0 {
		m["index.mb_s"] = float64(indexedBytes) / 1e6 / idxTotal.Seconds()
	}
}

// pipelineLayers fills the pipeline.* rows from the per-prune stage
// reports of the pipelined pruner.
func pipelineLayers(pipe []xmlproj.PipelineStages, m map[string]float64) {
	if len(pipe) == 0 {
		return
	}
	var rd, ix, pr, em []time.Duration
	var windows, fallbacks float64
	var peak int64
	for _, d := range pipe {
		rd = append(rd, d.ReadTime)
		ix = append(ix, d.IndexTime)
		pr = append(pr, d.PruneTime)
		em = append(em, d.EmitTime)
		windows += float64(d.Windows)
		peak = max(peak, d.PeakWindowBytes)
		if d.Fallback {
			fallbacks++
		}
	}
	m["pipeline.read_ms_p50"] = ms(median(rd))
	m["pipeline.index_ms_p50"] = ms(median(ix))
	m["pipeline.prune_ms_p50"] = ms(median(pr))
	m["pipeline.emit_ms_p50"] = ms(median(em))
	m["pipeline.windows"] = windows / float64(len(pipe))
	m["pipeline.peak_window_mb"] = float64(peak) / 1e6
	m["pipeline.fallbacks"] = fallbacks
}

func (in *filesInst) close() {}
