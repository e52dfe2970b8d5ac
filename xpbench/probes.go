package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"xmlproj"
)

// probeReps is how often a probe repeats a call; it keeps the fastest.
const probeReps = 5

// probe fills the layer rows that come from calling a layer's public
// functions directly on the workload's own documents: the serial
// scanner, validation, the shared-scan pruner, the result cache's
// digest/hit/fill costs, and inference where the workload's ops do not
// run it. On files_sweep it adds the engine-choice sweep.
func probe(b bench, m map[string]float64) error {
	d, err := schema()
	if err != nil {
		return err
	}
	ps, err := multiProjectors(d)
	if err != nil {
		return err
	}
	// Start from a collected heap, so garbage the measured phase left
	// behind does not land its GC work on the first probe.
	runtime.GC()
	if err := probeScan(b.probeDocs(), ps, m); err != nil {
		return err
	}
	if err := probeCache(b.probeDocs(), ps[0], ps[1], m); err != nil {
		return err
	}
	probeInfer(d, m)
	if fb, ok := b.(*filesBench); ok {
		return fb.sweep(d, m)
	}
	return nil
}

// fastest runs f probeReps times and returns its shortest duration.
func fastest(f func() error) (time.Duration, error) {
	best := time.Duration(1 << 62)
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t))
	}
	return best, nil
}

func probeScan(docs []doc, ps []*xmlproj.Projector, m map[string]float64) error {
	var bytesIn, lowOut, midOut, raw, outLen, segs float64
	var tLow, tMid, tMidV, tMulti, tSerial time.Duration
	var gathers float64
	a0 := readRuntime().allocObjs
	scanner := xmlproj.StreamOptions{Engine: xmlproj.PruneScanner}
	gather := func(p *xmlproj.Projector, data []byte, opts xmlproj.StreamOptions) (*xmlproj.PruneResult, time.Duration, error) {
		var res *xmlproj.PruneResult
		t, err := fastest(func() error {
			if res != nil {
				res.Close()
			}
			gathers++
			var err error
			res, err = p.PruneGather(data, opts)
			return err
		})
		return res, t, err
	}
	for _, dc := range docs {
		bytesIn += float64(len(dc.data))
		var serial time.Duration
		for j, p := range ps {
			res, t, err := gather(p, dc.data, scanner)
			if err != nil {
				return fmt.Errorf("scanner on %s: %w", dc.name, err)
			}
			serial += t
			switch j {
			case 0:
				tLow += t
				lowOut += float64(res.Len())
			case 1:
				tMid += t
				midOut += float64(res.Len())
			}
			if j < 2 {
				raw += float64(res.RawBytes())
				outLen += float64(res.Len())
				segs += float64(res.Segments())
			}
			res.Close()
		}
		tSerial += serial
		res, t, err := gather(ps[1], dc.data, xmlproj.StreamOptions{Engine: xmlproj.PruneScanner, Validate: true})
		if err != nil {
			return fmt.Errorf("validating scanner on %s: %w", dc.name, err)
		}
		res.Close()
		tMidV += t
		t, err = fastest(func() error {
			rs, errs := xmlproj.PruneMultiGather(ps, dc.data, xmlproj.StreamOptions{})
			for j := range rs {
				if errs[j] != nil {
					return errs[j]
				}
				rs[j].Close()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("shared scan on %s: %w", dc.name, err)
		}
		tMulti += t
	}
	allocs := readRuntime().allocObjs - a0
	m["scan.low_mb_s"] = bytesIn / 1e6 / tLow.Seconds()
	m["scan.mid_mb_s"] = bytesIn / 1e6 / tMid.Seconds()
	m["scan.keep_ratio.low"] = lowOut / bytesIn
	m["scan.keep_ratio.mid"] = midOut / bytesIn
	m["scan.copied_frac"] = 1 - raw/outLen
	m["scan.segments_per_mb"] = segs / (2 * bytesIn / 1e6)
	// The count includes the shared-scan calls' allocations; it is an
	// upper bound on the serial gathers' own.
	m["scan.allocs_per_op"] = allocs / gathers
	m["dtd.validate_overhead_ratio"] = tMidV.Seconds() / tMid.Seconds()
	m["multi.x4_over_serial"] = tMulti.Seconds() / tSerial.Seconds()
	return nil
}

// probeCache prices the result cache on the workload's documents: the
// digest rate, a warm hit under low, and the fill overhead of a miss
// over a plain prune under mid, whose output is large enough for the
// copy into the cache to show (both on the serial scanner, so only the
// fill differs).
func probeCache(docs []doc, low, mid *xmlproj.Projector, m map[string]float64) error {
	eng := xmlproj.NewEngine(xmlproj.EngineOptions{ResultCacheBytes: xmlproj.DefaultResultCacheBytes})
	opts := xmlproj.StreamOptions{Engine: xmlproj.PruneScanner}
	var bytesIn float64
	var tDigest, tMiss, tPlain time.Duration
	var hits []time.Duration
	fresh := 0
	for _, dc := range docs {
		bytesIn += float64(len(dc.data))
		var dig string
		t, _ := fastest(func() error {
			dig, _ = eng.DigestBytes(dc.data)
			return nil
		})
		tDigest += t
		res, _, err := eng.PruneGatherDigest(low, dc.data, dig, opts)
		if err != nil {
			return err
		}
		res.Close()
		for i := 0; i < 20; i++ {
			t := time.Now()
			res, info, err := eng.PruneGatherDigest(low, dc.data, dig, opts)
			if err != nil {
				return err
			}
			res.Close()
			if !info.Hit {
				return fmt.Errorf("result cache missed a warm key on %s", dc.name)
			}
			hits = append(hits, time.Since(t))
		}
		t, err = fastest(func() error {
			fresh++
			fake, _ := eng.DigestBytes([]byte(fmt.Sprintf("probe-%d", fresh)))
			res, info, err := eng.PruneGatherDigest(mid, dc.data, fake, opts)
			if err == nil {
				res.Close()
				if info.Hit {
					err = fmt.Errorf("result cache hit a fresh key on %s", dc.name)
				}
			}
			return err
		})
		if err != nil {
			return err
		}
		tMiss += t
		nocache := opts
		nocache.NoResultCache = true
		t, err = fastest(func() error {
			res, _, err := eng.PruneGatherDigest(mid, dc.data, "", nocache)
			if err == nil {
				res.Close()
			}
			return err
		})
		if err != nil {
			return err
		}
		tPlain += t
	}
	m["rescache.digest_gb_s"] = bytesIn / 1e9 / tDigest.Seconds()
	m["rescache.hit_us_p50"] = float64(median(hits)) / 1e3
	m["rescache.fill_overhead_frac"] = tMiss.Seconds()/tPlain.Seconds() - 1
	return nil
}

// probeInfer times compiling and inferring the serving projections,
// for the workloads whose ops do not run inference themselves; it
// fills only the core rows the ops left empty.
func probeInfer(d *xmlproj.DTD, m map[string]float64) {
	var comp, inf []time.Duration
	var names []int
	for i := 0; i < 20; i++ {
		for _, src := range append([]string{queryLow, queryMid}, multiExtra...) {
			t0 := time.Now()
			q, err := xmlproj.Compile(src)
			if err != nil {
				continue
			}
			t1 := time.Now()
			p, err := d.Infer(xmlproj.Materialized, q)
			if err != nil {
				continue
			}
			comp = append(comp, t1.Sub(t0))
			inf = append(inf, time.Since(t1))
			names = append(names, len(p.Names()))
		}
	}
	for k, v := range map[string]float64{
		"core.compile_ms_p50":  ms(median(comp)),
		"core.infer_ms_p50":    ms(median(inf)),
		"core.projector_names": meanInt(names),
	} {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
}

// sweep prunes every file with auto-selection and with each engine
// forced wherever it applies — scanner and pipelined on both sources,
// parallel on mapped files only — and reports auto's time over the
// fastest forced engine's, per file size. Every output is checked.
func (b *filesBench) sweep(d *xmlproj.DTD, m map[string]float64) error {
	var ps [2]*xmlproj.Projector
	for i, q := range fileQueries {
		var err error
		if ps[i], err = inferQueries(d, q); err != nil {
			return err
		}
	}
	var out bytes.Buffer
	for i, path := range b.paths {
		var autoT, bestT time.Duration
		for j, p := range ps {
			for _, piped := range []bool{false, true} {
				engines := []xmlproj.PruneEngine{xmlproj.PruneAuto, xmlproj.PruneScanner, xmlproj.PrunePipelined}
				if !piped {
					engines = append(engines, xmlproj.PruneParallel)
				}
				best := time.Duration(1 << 62)
				for k, e := range engines {
					t, err := fastest(func() error {
						var src io.Reader
						var closeSrc func() error
						var err error
						if piped {
							if src, closeSrc, err = pipeFile(path); err != nil {
								return err
							}
						} else {
							fs := &fileSource{path: path}
							src, closeSrc = fs, fs.close
						}
						out.Reset()
						_, err = p.PruneStreamOpts(&out, src, xmlproj.StreamOptions{Engine: e})
						if cerr := closeSrc(); err == nil {
							err = cerr
						}
						if err == nil && !bytes.Equal(out.Bytes(), b.exp[i][j]) {
							err = fmt.Errorf("%s engine output differs from the reference on %s", e, b.docs[i].name)
						}
						return err
					})
					if err != nil {
						return err
					}
					if k == 0 {
						autoT += t
					} else {
						best = min(best, t)
					}
				}
				bestT += best
			}
		}
		m["prune.auto_over_best."+b.docs[i].name] = autoT.Seconds() / bestT.Seconds()
		runtime.GC()
	}
	return nil
}
