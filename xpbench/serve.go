package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xmlproj"
	"xmlproj/internal/server"
)

// Request classes of the serving workloads.
const (
	classGatherLow = "gather_low" // sized body, projection=low
	classGatherMid = "gather_mid" // sized body, projection=mid&validate=1
	classChunked   = "chunked"    // unsized body, projection=low
	classMulti     = "multi"      // /multiprune over four projections
	classRevalLow  = "reval_low"  // body-free If-None-Match, low
	classRevalMid  = "reval_mid"  // body-free If-None-Match, mid validated
)

// groups are the request mixes, eight requests each.
var (
	uniqueGroup = []string{classGatherLow, classGatherLow, classGatherLow, classGatherLow, classGatherMid, classGatherMid, classChunked, classMulti}
	repeatGroup = []string{classGatherLow, classGatherLow, classGatherLow, classGatherMid, classRevalLow, classRevalMid, classChunked, classMulti}
)

// Body sizes: serve_unique spans XMark factor 0.005–0.1 (0.3–6.7 MB);
// serve_repeat is a working set of eight small bodies (0.1–1.3 MB)
// whose pruned outputs fit the default result cache many times over.
var (
	uniqueFactors = []float64{0.005, 0.01, 0.02, 0.05, 0.1}
	repeatFactors = []float64{0.002, 0.004, 0.006, 0.008, 0.01, 0.012, 0.016, 0.02}
)

// headerOp carries the benchmark's op id to the traced handler, so
// client and server spans of one request share it.
const headerOp = "X-Bench-Op"

type slot struct {
	class string
	doc   int
}

// expected holds one body's reference outputs.
type expected struct {
	low, mid []byte
	multi    [][]byte // low, mid, multiExtra...
}

type serveBench struct {
	repeat  bool
	factors []float64 // body sizes; nil means the workload's own
	docs    []doc
	exp     []expected
	sched   []slot
	seed    int64
}

func (b *serveBench) prepare(cfg *config) error {
	b.seed = cfg.seed
	group, factors := uniqueGroup, uniqueFactors
	if b.repeat {
		group, factors = repeatGroup, repeatFactors
	}
	if b.factors == nil {
		b.factors = factors
	}
	d, err := schema()
	if err != nil {
		return err
	}
	ps, err := multiProjectors(d)
	if err != nil {
		return err
	}
	b.docs = make([]doc, len(b.factors))
	b.exp = make([]expected, len(b.factors))
	err = parallelEach(len(b.factors), func(i int) error {
		b.docs[i] = genDoc(b.factors[i], cfg.seed*1000+int64(i))
		data := b.docs[i].data
		e := &b.exp[i]
		var err error
		if e.low, err = reference(ps[0], data, false); err != nil {
			return err
		}
		// The generated documents are valid, so the validating
		// reference is also the non-validating one for the
		// /multiprune part.
		if e.mid, err = reference(ps[1], data, true); err != nil {
			return err
		}
		e.multi = [][]byte{e.low, e.mid}
		for _, p := range ps[2:] {
			out, err := reference(p, data, false)
			if err != nil {
				return err
			}
			e.multi = append(e.multi, out)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range b.docs {
		for _, c := range group {
			b.sched = append(b.sched, slot{c, i})
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(b.sched), func(i, j int) { b.sched[i], b.sched[j] = b.sched[j], b.sched[i] })
	return nil
}

// multiProjectors returns low, mid and the /multiprune extras, in the
// order the /multiprune parts come back.
func multiProjectors(d *xmlproj.DTD) ([]*xmlproj.Projector, error) {
	var ps []*xmlproj.Projector
	for _, q := range append([]string{queryLow, queryMid}, multiExtra...) {
		p, err := inferQueries(d, q)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// parallelEach runs f(0..n-1) on at most two goroutines.
func parallelEach(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

func (b *serveBench) probeDocs() []doc { return b.docs }

func (b *serveBench) inputs() map[string]any {
	sizes := make(map[string]int, len(b.docs))
	keep := make(map[string]float64)
	var in, low, mid float64
	for i, d := range b.docs {
		sizes[d.name] = len(d.data)
		in += float64(len(d.data))
		low += float64(len(b.exp[i].low))
		mid += float64(len(b.exp[i].mid))
	}
	keep["low"], keep["mid"] = low/in, mid/in
	for j, q := range multiExtra {
		var out float64
		for i := range b.docs {
			out += float64(len(b.exp[i].multi[2+j]))
		}
		keep[q] = out / in
	}
	return map[string]any{"doc_bytes": sizes, "keep_ratio": keep, "schedule_len": len(b.sched)}
}

// serveInst is an in-process xmlprojd behind a loopback listener plus
// the closed-loop client that drives it.
type serveInst struct {
	b       *serveBench
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	tr      atomic.Pointer[tracer]
	bodies  [][]byte // per doc: nonce + document
	buf     bytes.Buffer
	scratch []byte // multipart parts are compared through it
	nonce   uint64
	opSeq   int64
	digests []string       // per doc (serve_repeat)
	etags   [][2]string    // per doc: low, mid validated (serve_repeat)
	count   map[string]int // X-Cache outcomes and statuses per phase
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func (b *serveBench) setup() (instance, error) {
	d, err := schema()
	if err != nil {
		return nil, err
	}
	// Default options, as xmlprojd runs without flags; the log records
	// are still formatted, only their destination is discarded.
	srv := server.New(server.Options{Logger: discardLog})
	if err := srv.AddSchema("xmark", d); err != nil {
		return nil, err
	}
	if err := srv.AddProjection("low", "xmark", false, queryLow); err != nil {
		return nil, err
	}
	if err := srv.AddProjection("mid", "xmark", false, queryMid); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &serveInst{b: b, served: make(chan error, 1), count: make(map[string]int)}
	in.srv = &http.Server{Handler: &spyHandler{h: srv.Handler(), tr: &in.tr}}
	go func() { in.served <- in.srv.Serve(ln) }()
	in.base = "http://" + ln.Addr().String()
	in.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	for _, d := range b.docs {
		in.bodies = append(in.bodies, bytes.Clone(d.data))
	}
	in.scratch = make([]byte, 32<<10)
	in.nonce = uint64(b.seed) << 32

	// Warm-up: one request of every class on the smallest body; for
	// serve_repeat, fill the result cache with the whole working set
	// and learn the digests and ETags the revalidations send.
	warm := []int{0}
	if b.repeat {
		warm = warm[:0]
		for i := range b.docs {
			warm = append(warm, i)
		}
		in.digests = make([]string, len(b.docs))
		in.etags = make([][2]string, len(b.docs))
	}
	for _, i := range warm {
		for _, c := range []string{classGatherLow, classGatherMid, classChunked, classMulti} {
			s, h := in.do(slot{c, i})
			if s.failed {
				in.close()
				return nil, fmt.Errorf("warm-up %s on %s failed", c, b.docs[i].name)
			}
			if b.repeat && (c == classGatherLow || c == classGatherMid) {
				in.digests[i] = h.Get("X-Doc-Digest")
				in.etags[i][map[string]int{classGatherLow: 0, classGatherMid: 1}[c]] = h.Get("ETag")
			}
		}
	}
	return in, nil
}

func (in *serveInst) shape() (int, int) { return len(in.b.sched), 200 }

func (in *serveInst) trace(tr *tracer) { in.tr.Store(tr) }

func (in *serveInst) startPhase() { in.count = make(map[string]int) }

func (in *serveInst) op(seq int) sample {
	s, _ := in.do(in.b.sched[seq%len(in.b.sched)])
	return s
}

// do sends one request of the slot's class and checks the response.
func (in *serveInst) do(sl slot) (sample, http.Header) {
	body := in.bodies[sl.doc]
	exp := &in.b.exp[sl.doc]
	if !in.b.repeat {
		in.nonce++
		putNonce(body, in.nonce)
	}
	in.opSeq++
	op := in.opSeq
	var (
		target   string
		reader   io.Reader
		bodySize = int64(len(body))
		want     []byte
		wantTag  string
		hdr      = make(http.Header)
	)
	switch sl.class {
	case classGatherLow:
		target, reader, want = "/prune?projection=low", bytes.NewReader(body), exp.low
	case classGatherMid:
		target, reader, want = "/prune?projection=mid&validate=1", bytes.NewReader(body), exp.mid
	case classChunked:
		// A reader without a known length makes the client send a
		// chunked body, which the server streams.
		target, reader, want = "/prune?projection=low", struct{ io.Reader }{bytes.NewReader(body)}, exp.low
	case classMulti:
		v := url.Values{"projection": {"low", "mid"}, "schema": {"xmark"}, "proj": multiExtra}
		target, reader = "/multiprune?"+v.Encode(), bytes.NewReader(body)
	case classRevalLow, classRevalMid:
		k := 0
		target = "/prune?projection=low"
		if sl.class == classRevalMid {
			k, target = 1, "/prune?projection=mid&validate=1"
		}
		wantTag, bodySize = in.etags[sl.doc][k], 0
		hdr.Set("If-None-Match", wantTag)
		hdr.Set("X-Doc-Digest", in.digests[sl.doc])
	}
	req, err := http.NewRequest(http.MethodPost, in.base+target, reader)
	if err != nil {
		return sample{failed: true}, nil
	}
	req.Header = hdr
	req.Header.Set(headerOp, strconv.FormatInt(op, 10))
	var first time.Time
	req = req.WithContext(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	}))

	start := time.Now()
	resp, err := in.client.Do(req)
	buf := &in.buf
	buf.Reset()
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	s := sample{lat: end.Sub(start), ttfb: first.Sub(start), bytesIn: bodySize}
	if err != nil {
		s.failed = true
		return s, nil
	}
	xc := resp.Header.Get("X-Cache")
	kind := "gather"
	switch sl.class {
	case classGatherLow, classGatherMid:
		in.count["xcache_"+xc]++
		if xc == "HIT" {
			kind = "hit"
		}
		s.failed = resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), want)
	case classChunked:
		kind = "chunked"
		s.failed = resp.StatusCode != http.StatusOK || resp.Trailer.Get("X-Xmlprojd-Error") != "" || !bytes.Equal(buf.Bytes(), want)
	case classMulti:
		kind = "multi"
		s.failed = resp.StatusCode != http.StatusOK || !multiOK(resp.Header.Get("Content-Type"), buf.Bytes(), exp.multi, in.scratch)
	default:
		kind = "revalidate"
		in.count["revalidated"]++
		s.failed = resp.StatusCode != http.StatusNotModified || resp.Header.Get("ETag") != wantTag
	}
	in.count["requests"]++
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusNotModified {
		in.count["non2xx"]++
	}
	in.tr.Load().add("client."+kind, op, -1, start, end)
	return s, resp.Header
}

// multiOK checks a multipart /multiprune response: one part per
// projection, in request order, each byte-identical to its reference.
// Parts are read through scratch, not copied out.
func multiOK(ctype string, body []byte, want [][]byte, scratch []byte) bool {
	_, params, err := mime.ParseMediaType(ctype)
	if err != nil {
		return false
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	for i := 0; ; i++ {
		part, err := mr.NextPart()
		if err == io.EOF {
			return i == len(want)
		}
		if err != nil || i >= len(want) || part.Header.Get("X-Prune-Error") != "" {
			return false
		}
		if !readEqual(part, want[i], scratch) {
			return false
		}
	}
}

// readEqual reports whether r yields exactly want, reading it in
// scratch-sized pieces.
func readEqual(r io.Reader, want, scratch []byte) bool {
	for {
		n, err := r.Read(scratch)
		if n > len(want) || !bytes.Equal(scratch[:n], want[:n]) {
			return false
		}
		want = want[n:]
		if err == io.EOF {
			return len(want) == 0
		}
		if err != nil {
			return false
		}
	}
}

func (in *serveInst) check(p *phase) error {
	hits, misses := in.count["xcache_HIT"], in.count["xcache_MISS"]
	if hits+misses == 0 {
		return errors.New("no gather request went through the result cache")
	}
	ratio := float64(hits) / float64(hits+misses)
	if !in.b.repeat && hits > 0 {
		return fmt.Errorf("rescache.hit_ratio %.3f on unique bodies, want 0", ratio)
	}
	if in.b.repeat && ratio < 0.9 {
		return fmt.Errorf("rescache.hit_ratio %.3f on the repeat working set, want >= 0.9", ratio)
	}
	return nil
}

func (in *serveInst) layers(p *phase, spans []span, m map[string]float64) error {
	count := in.count
	m["server.read_body_ms_p50"] = ms(median(durs(spans, "server.read_body")))
	m["server.process_ms_p50"] = ms(median(durs(spans, "server.process")))
	m["server.emit_ms_p50"] = ms(median(durs(spans, "server.emit")))
	m["server.handler_self_ms_p50"] = ms(median(selfTimes(spans, "server.handler")))

	handler := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Name == "server.handler" {
			handler[s.Op] = s.dur()
		}
	}
	var transport []time.Duration
	byClass := make(map[string][]time.Duration)
	for _, s := range spans {
		if len(s.Name) < 7 || s.Name[:7] != "client." {
			continue
		}
		h, ok := handler[s.Op]
		if !ok {
			continue
		}
		transport = append(transport, s.dur()-h)
		byClass[s.Name[7:]] = append(byClass[s.Name[7:]], h)
	}
	m["server.transport_ms_p50"] = ms(median(transport))
	for c, ds := range byClass {
		m["server.class."+c+".ms_p50"] = ms(median(ds))
	}
	m["server.status_non2xx"] = float64(count["non2xx"])

	hits, misses := count["xcache_HIT"], count["xcache_MISS"]
	m["rescache.hit_ratio"] = float64(hits) / float64(hits+misses)
	m["rescache.revalidated_frac"] = float64(count["revalidated"]) / float64(count["requests"])

	vars, err := in.vars()
	if err != nil {
		return err
	}
	eng := vars.Engine
	m["rescache.evictions"] = eng["result_cache_evictions"]
	m["engine.infer_cache_hit_ratio"] = ratioOf(eng["cache_hits"], eng["cache_misses"])
	m["engine.projection_cache_hit_ratio"] = ratioOf(eng["projection_hits"], eng["projection_misses"])
	return nil
}

func ratioOf(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

type debugVars struct {
	Engine map[string]float64 `json:"engine"`
}

// vars reads the server's /debug/vars engine section.
func (in *serveInst) vars() (*debugVars, error) {
	resp, err := in.client.Get(in.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw struct {
		Engine map[string]json.Number `json:"engine"`
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	out := &debugVars{Engine: make(map[string]float64)}
	for k, v := range raw.Engine {
		f, err := v.Float64()
		if err == nil {
			out.Engine[k] = f
		}
	}
	return out, nil
}

func (in *serveInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.srv.Shutdown(ctx)
	<-in.served
	in.client.CloseIdleConnections()
}

// spyHandler times the server's handler from outside when a tracer is
// set: the whole handler, reading the body (first read to EOF),
// processing (EOF to the first response byte) and emitting (first to
// last response write). Whatever the handler does outside those three
// — routing, admission, logging — is its self time.
type spyHandler struct {
	h  http.Handler
	tr *atomic.Pointer[tracer]
}

func (s *spyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
	start := time.Now()
	body := &bodySpy{ReadCloser: r.Body}
	r.Body = body
	rw := &writerSpy{ResponseWriter: w}
	s.h.ServeHTTP(rw, r)
	end := time.Now()

	h := tr.add("server.handler", op, -1, start, end)
	if !body.first.IsZero() && !body.eof.IsZero() {
		tr.add("server.read_body", op, h, body.first, body.eof)
	}
	if rw.first.IsZero() {
		return
	}
	emitStart := rw.first
	if !body.eof.IsZero() {
		if rw.first.After(body.eof) {
			tr.add("server.process", op, h, body.eof, rw.first)
		} else {
			emitStart = body.eof // streamed: output began before the input ended
		}
	}
	emitEnd := rw.last
	if emitEnd.Before(emitStart) {
		emitEnd = emitStart
	}
	tr.add("server.emit", op, h, emitStart, emitEnd)
}

type bodySpy struct {
	io.ReadCloser
	first, eof time.Time
}

func (b *bodySpy) Read(p []byte) (int, error) {
	if b.first.IsZero() {
		b.first = time.Now()
	}
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF && b.eof.IsZero() {
		b.eof = time.Now()
	}
	return n, err
}

type writerSpy struct {
	http.ResponseWriter
	first, last time.Time
}

func (w *writerSpy) WriteHeader(code int) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	w.ResponseWriter.WriteHeader(code)
	w.last = time.Now()
}

func (w *writerSpy) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	n, err := w.ResponseWriter.Write(p)
	w.last = time.Now()
	return n, err
}

// Flush keeps the server's streaming path flushing through the spy.
func (w *writerSpy) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	w.last = time.Now()
}

func (w *writerSpy) Unwrap() http.ResponseWriter { return w.ResponseWriter }
