package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"xmlproj"
)

// queryIDs is the query_loop set. QM08 is left out: its nested-loop
// join dominates any run it is in, so it would measure the join, not
// projection. QP13 (keeps everything) and QM14 (keeps about half) are
// the cases where pruning does not pay.
var queryIDs = []string{"QM01", "QM05", "QM06", "QM14", "QP01", "QP09", "QP11", "QP13", "QP21"}

// queryFactor sizes the document at ~6.7 MB, past the 4 MiB parallel
// threshold. One caller runs the loop, as the paper's experiments do:
// each query's prune gets the whole machine.
const queryFactor = 0.1

type queryBench struct {
	doc  doc
	ids  []string // queryIDs in the seed's schedule order
	srcs []string
	ref  []string // serialized answers on the unpruned document
}

func (b *queryBench) prepare(cfg *config) error {
	b.doc = genDoc(queryFactor, cfg.seed*1000)
	full, err := xmlproj.ParseXML(bytes.NewReader(b.doc.data))
	if err != nil {
		return err
	}
	b.srcs = make([]string, len(queryIDs))
	b.ref = make([]string, len(queryIDs))
	for i, id := range queryIDs {
		if b.srcs[i], err = querySource(id); err != nil {
			return err
		}
		q, err := xmlproj.Compile(b.srcs[i])
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		r, err := q.Evaluate(full)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		b.ref[i] = r.Serialized
	}
	// Shuffle the order the queries are issued in; the set is fixed.
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(queryIDs))
	srcs, ref := append([]string(nil), b.srcs...), append([]string(nil), b.ref...)
	b.ids = make([]string, len(queryIDs))
	for i, j := range perm {
		b.ids[i], b.srcs[i], b.ref[i] = queryIDs[j], srcs[j], ref[j]
	}
	return nil
}

func (b *queryBench) probeDocs() []doc { return []doc{b.doc} }

func (b *queryBench) inputs() map[string]any {
	return map[string]any{
		"doc_bytes":  map[string]int{b.doc.name: len(b.doc.data)},
		"queries":    queryIDs,
		"keep_ratio": b.keepRatios(),
	}
}

// keepRatios prunes the document once per query (outside any timing)
// to record how much of it each query keeps.
func (b *queryBench) keepRatios() map[string]float64 {
	d, err := schema()
	if err != nil {
		return nil
	}
	out := make(map[string]float64)
	for _, id := range queryIDs {
		src, _ := querySource(id)
		p, err := inferQueries(d, src)
		if err != nil {
			continue
		}
		res, err := p.PruneGather(b.doc.data, xmlproj.StreamOptions{Engine: xmlproj.PruneScanner})
		if err != nil {
			continue
		}
		out[id] = float64(res.Len()) / float64(len(b.doc.data))
		res.Close()
	}
	return out
}

type queryInst struct {
	b     *queryBench
	d     *xmlproj.DTD
	tr    atomic.Pointer[tracer]
	opSeq atomic.Int64

	mu     sync.Mutex
	par    []xmlproj.ParallelStages
	names  []int
	nodes  []int
	pruned int64 // bytes loaded
	in     int64 // bytes pruned
}

func (b *queryBench) setup() (instance, error) {
	d, err := schema()
	if err != nil {
		return nil, err
	}
	in := &queryInst{b: b, d: d}
	// Warm-up: QM01 once, whatever the seed's schedule order.
	for i, id := range b.ids {
		if id == "QM01" {
			if s := in.do(i); s.failed {
				return nil, errors.New("warm-up query failed")
			}
		}
	}
	return in, nil
}

func (in *queryInst) shape() (int, int) { return len(queryIDs), 100 }

func (in *queryInst) trace(tr *tracer) { in.tr.Store(tr) }

func (in *queryInst) startPhase() {
	in.mu.Lock()
	in.par, in.names, in.nodes, in.pruned, in.in = nil, nil, nil, 0, 0
	in.mu.Unlock()
}

func (in *queryInst) op(seq int) sample { return in.do(seq % len(queryIDs)) }

// do answers one query the paper's way: compile, infer π, prune the
// document, load the pruned bytes, evaluate; then compares the answer
// with the one computed on the unpruned document.
func (in *queryInst) do(qi int) sample {
	op := in.opSeq.Add(1)
	data := in.b.doc.data
	s := sample{failed: true}
	var det xmlproj.ParallelStages

	t0 := time.Now()
	q, err := xmlproj.Compile(in.b.srcs[qi])
	if err != nil {
		return s
	}
	t1 := time.Now()
	p, err := in.d.Infer(xmlproj.Materialized, q)
	if err != nil {
		return s
	}
	t2 := time.Now()
	res, err := p.PruneGather(data, xmlproj.StreamOptions{Detail: &det})
	if err != nil {
		return s
	}
	t3 := time.Now()
	pruned := res.Bytes()
	res.Close()
	doc, err := xmlproj.ParseXML(bytes.NewReader(pruned))
	if err != nil {
		return s
	}
	t4 := time.Now()
	ans, err := q.Evaluate(doc)
	t5 := time.Now()

	s.lat, s.ttfb, s.bytesIn = t5.Sub(t0), t3.Sub(t0), int64(len(data))
	s.failed = err != nil || ans.Serialized != in.b.ref[qi]

	if tr := in.tr.Load(); tr != nil {
		root := tr.add("op", op, -1, t0, t5)
		tr.add("core.compile", op, root, t0, t1)
		tr.add("core.infer", op, root, t1, t2)
		tr.add("prune.gather", op, root, t2, t3)
		tr.add("tree.load", op, root, t3, t4)
		tr.add("eval", op, root, t4, t5)
		in.mu.Lock()
		if det.Workers > 0 {
			in.par = append(in.par, det)
		}
		in.names = append(in.names, len(p.Names()))
		in.nodes = append(in.nodes, doc.NumNodes())
		in.pruned += int64(len(pruned))
		in.in += int64(len(data))
		in.mu.Unlock()
	}
	return s
}

func (in *queryInst) check(*phase) error { return nil }

func (in *queryInst) layers(p *phase, spans []span, m map[string]float64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.names) == 0 {
		return errors.New("no traced query")
	}
	m["core.compile_ms_p50"] = ms(median(durs(spans, "core.compile")))
	m["core.infer_ms_p50"] = ms(median(durs(spans, "core.infer")))
	m["core.projector_names"] = meanInt(in.names)
	m["core.keep_ratio"] = float64(in.pruned) / float64(in.in)
	loads := durs(spans, "tree.load")
	m["tree.load_ms_p50"] = ms(median(loads))
	var total time.Duration
	for _, d := range loads {
		total += d
	}
	m["tree.load_mb_s"] = float64(in.pruned) / 1e6 / total.Seconds()
	m["tree.nodes_per_op"] = meanInt(in.nodes)
	evals := durs(spans, "eval")
	m["eval.ms_p50"] = ms(median(evals))
	p90, _ := quantile(evals, 0.9)
	m["eval.ms_p90"] = ms(p90)
	parallelLayers(in.par, int64(len(in.par)*len(in.b.doc.data)), m)
	return nil
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}

func (in *queryInst) close() {}
