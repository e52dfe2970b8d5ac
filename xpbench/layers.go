package main

// fileSizes labels the files_sweep inputs by XMark factor; the
// prune.chosen and prune.auto_over_best rows are split by them.
var fileSizes = []struct {
	label  string
	factor float64
	reps   int // times per cycle; see filesBench.prepare
}{
	{"f0.01", 0.01, 2}, // ~0.7 MB: below both auto-selection thresholds
	{"f0.04", 0.04, 2}, // ~2.7 MB: above the 1 MiB pipelined threshold
	{"f0.1", 0.1, 2},   // ~6.7 MB: above the 4 MiB parallel threshold
	{"f0.5", 0.5, 1},   // ~33 MB
}

var engineNames = []string{"scanner", "parallel", "pipelined"}

// layerMetrics lists the metrics a --trace 1 run prints, by layer. A
// layer a workload bypasses reports 0 there; README.md says which
// workload stresses which layer.
var layerMetrics = buildLayerMetrics()

var layerUnit = func() map[string]string {
	m := make(map[string]string)
	for _, lm := range layerMetrics {
		m[lm.name] = lm.unit
	}
	return m
}()

func buildLayerMetrics() []metric {
	ms := []metric{
		// internal/server, timed by a handler wrapper and client spans.
		{"server.read_body_ms_p50", "ms"},
		{"server.process_ms_p50", "ms"},
		{"server.emit_ms_p50", "ms"},
		{"server.handler_self_ms_p50", "ms"},
		{"server.transport_ms_p50", "ms"},
	}
	for _, c := range []string{"gather", "chunked", "multi", "hit", "revalidate"} {
		ms = append(ms, metric{"server.class." + c + ".ms_p50", "ms"})
	}
	ms = append(ms,
		metric{"server.status_non2xx", "count"},

		// internal/rescache.
		metric{"rescache.hit_ratio", "ratio"},
		metric{"rescache.revalidated_frac", "ratio"},
		metric{"rescache.digest_gb_s", "GB/s"},
		metric{"rescache.hit_us_p50", "us"},
		metric{"rescache.fill_overhead_frac", "ratio"},
		metric{"rescache.evictions", "count"},

		// internal/engine.
		metric{"engine.infer_cache_hit_ratio", "ratio"},
		metric{"engine.projection_cache_hit_ratio", "ratio"},
		metric{"engine.batch_overhead_ms_p50", "ms"},
	)
	// internal/prune auto-selection.
	for _, e := range engineNames {
		for _, s := range fileSizes {
			ms = append(ms, metric{"prune.chosen." + e + "." + s.label, "count"})
		}
	}
	for _, s := range fileSizes {
		ms = append(ms, metric{"prune.auto_over_best." + s.label, "ratio"})
	}
	ms = append(ms,
		// internal/scan, serial engine.
		metric{"scan.low_mb_s", "MB/s"},
		metric{"scan.mid_mb_s", "MB/s"},
		metric{"scan.keep_ratio.low", "ratio"},
		metric{"scan.keep_ratio.mid", "ratio"},
		metric{"scan.copied_frac", "ratio"},
		metric{"scan.segments_per_mb", "count/MB"},
		metric{"scan.allocs_per_op", "count"},
		metric{"multi.x4_over_serial", "ratio"},

		// internal/dtd dense DFA.
		metric{"dtd.validate_overhead_ratio", "ratio"},

		// internal/index + scan/parallel.go.
		metric{"parallel.index_ms_p50", "ms"},
		metric{"parallel.prune_ms_p50", "ms"},
		metric{"parallel.stitch_ms_p50", "ms"},
		metric{"parallel.tasks", "count"},
		metric{"parallel.fallbacks", "count"},
		metric{"index.mb_s", "MB/s"},

		// scan/pipeline.go + index/stream.go.
		metric{"pipeline.read_ms_p50", "ms"},
		metric{"pipeline.index_ms_p50", "ms"},
		metric{"pipeline.prune_ms_p50", "ms"},
		metric{"pipeline.emit_ms_p50", "ms"},
		metric{"pipeline.windows", "count"},
		metric{"pipeline.peak_window_mb", "MB"},
		metric{"pipeline.fallbacks", "count"},

		// internal/mmapio.
		metric{"mmapio.open_us_p50", "us"},

		// internal/core and the query front end.
		metric{"core.compile_ms_p50", "ms"},
		metric{"core.infer_ms_p50", "ms"},
		metric{"core.projector_names", "count"},
		metric{"core.keep_ratio", "ratio"},

		// internal/tree.
		metric{"tree.load_ms_p50", "ms"},
		metric{"tree.load_mb_s", "MB/s"},
		metric{"tree.nodes_per_op", "count"},

		// evaluators.
		metric{"eval.ms_p50", "ms"},
		metric{"eval.ms_p90", "ms"},

		// Go runtime.
		metric{"gc.cycles_per_op", "count"},
		metric{"gc.pause_ms_total", "ms"},
		metric{"heap.peak_mb", "MB"},

		metric{"trace.overhead_frac", "ratio"},
	)
	return ms
}
