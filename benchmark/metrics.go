package main

// metricDef is one named metric: BENCHMARK.json lists the same names, units,
// directions and bounds (a test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median an end-to-end metric may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, from an untraced run.
//
//	setup_s          node construction + DDL + load + index build + warm-up pass (median of several set-ups)
//	heap_mb          HeapInuse after set-up and a forced GC, benchmark inputs dropped
//	stmt_p50_ms      median client-observed statement latency, all statements of the run
//	stmt_tail_ms     a fixed per-workload high percentile of the same (spec.tail)
//	shape_geomean_ms geometric mean over statement shapes of each shape's median latency
//	ttfr_p50_ms      median time until the first result row (or the ack) is in the client's hands
//	stmts_per_s      statements completed per second, all clients
//	rows_per_s       result rows received plus rows acknowledged written, per second
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"stmt_p50_ms", "ms", "lower", 0.25},
	{"stmt_tail_ms", "ms", "lower", 0.25},
	{"shape_geomean_ms", "ms", "lower", 0.25},
	{"ttfr_p50_ms", "ms", "lower", 0.25},
	{"stmts_per_s", "1/s", "higher", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
}

// perLayer are the single-layer metrics of a traced run. They carry no
// bound. A metric whose layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	// Front end: one span per call in the layer replay.
	{"parser.parse_us", "us", "lower", 0},
	{"core.algebrize_us", "us", "lower", 0},
	{"core.rewrite_us", "us", "lower", 0},
	{"core.rule_firings", "count", "lower", 0},
	{"core.normalize_us", "us", "lower", 0},
	{"plan.build_us", "us", "lower", 0},
	{"engine.prepare_us", "us", "lower", 0},
	// Service and HTTP boundary.
	{"server.normalize_sql_us", "us", "lower", 0},
	{"server.handler_us", "us", "lower", 0},
	{"server.cache_hit_frac", "ratio", "higher", 0},
	{"server.cache_evictions", "count", "lower", 0},
	{"server.admission_waits", "count", "lower", 0},
	{"server.query_hist_p50_us", "us", "lower", 0},
	{"server.encode_us_per_row", "us", "lower", 0},
	{"server.stream_flushes_per_row", "ratio", "lower", 0},
	{"server.stream_bytes_per_row", "B", "lower", 0},
	{"server.read_after_write_p50_us", "us", "lower", 0},
	{"server.read_static_p50_us", "us", "lower", 0},
	{"client.transport_us", "us", "lower", 0},
	{"client.stmt_p99_ms", "ms", "lower", 0},
	{"client.failed_frac", "ratio", "lower", 0},
	// Whole process (client included: it runs in-process).
	{"process.allocs_per_stmt", "count", "lower", 0},
	{"process.alloc_bytes_per_stmt", "B", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.heap_peak_mb", "MB", "lower", 0},
	// Execution and storage.
	{"exec.run_us", "us", "lower", 0},
	{"exec.rows_processed_per_row", "ratio", "lower", 0},
	{"exec.udf_calls", "count", "lower", 0},
	{"exec.embedded_plan_builds", "count", "lower", 0},
	{"storage.zero_copy_scan_frac", "ratio", "higher", 0},
	{"storage.load_rows_per_s", "1/s", "higher", 0},
	{"storage.column_bytes_per_user_byte", "ratio", "lower", 0},
	// The cells of Figs. 10-12 (paper_* workloads).
	{"paper.exp1.rewrite_row_ms", "ms", "lower", 0},
	{"paper.exp1.rewrite_vec_ms", "ms", "lower", 0},
	{"paper.exp1.iterative_row_ms", "ms", "lower", 0},
	{"paper.exp1.iterative_vec_ms", "ms", "lower", 0},
	{"paper.exp2.rewrite_row_ms", "ms", "lower", 0},
	{"paper.exp2.rewrite_vec_ms", "ms", "lower", 0},
	{"paper.exp2.iterative_row_ms", "ms", "lower", 0},
	{"paper.exp2.iterative_vec_ms", "ms", "lower", 0},
	{"paper.exp3.rewrite_row_ms", "ms", "lower", 0},
	{"paper.exp3.rewrite_vec_ms", "ms", "lower", 0},
	{"paper.exp3.iterative_row_ms", "ms", "lower", 0},
	{"paper.exp3.iterative_vec_ms", "ms", "lower", 0},
	{"paper.exp1.speedup_row", "ratio", "higher", 0},
	{"paper.exp1.speedup_vec", "ratio", "higher", 0},
	{"paper.exp2.speedup_row", "ratio", "higher", 0},
	{"paper.exp2.speedup_vec", "ratio", "higher", 0},
	{"paper.exp3.speedup_row", "ratio", "higher", 0},
	{"paper.exp3.speedup_vec", "ratio", "higher", 0},
	{"paper.exp1.n10.rewrite_ms", "ms", "lower", 0},
	{"paper.exp1.n10.iterative_ms", "ms", "lower", 0},
	{"paper.exp1.n10.costbased_ms", "ms", "lower", 0},
	{"paper.exp2.n10.rewrite_ms", "ms", "lower", 0},
	{"paper.exp2.n10.iterative_ms", "ms", "lower", 0},
	{"paper.exp2.n10.costbased_ms", "ms", "lower", 0},
	{"paper.exp3.n10.rewrite_ms", "ms", "lower", 0},
	{"paper.exp3.n10.iterative_ms", "ms", "lower", 0},
	{"paper.exp3.n10.costbased_ms", "ms", "lower", 0},
	// WAL and checkpoints (mixed_rw_durable).
	{"wal.records_per_batch", "ratio", "lower", 0},
	{"wal.fsyncs_per_batch", "ratio", "lower", 0},
	{"wal.group_syncs", "count", "higher", 0},
	{"wal.fsync_p50_us", "us", "lower", 0},
	{"wal.fsync_p95_us", "us", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.disk_bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.checkpoint_stall_ms", "ms", "lower", 0},
	{"wal.recovery_ms", "ms", "lower", 0},
	// Router and shards (shard_routes).
	{"shard.classify_us", "us", "lower", 0},
	{"shard.router_self_us", "us", "lower", 0},
	{"shard.requests_per_stmt", "ratio", "lower", 0},
	{"shard.conns_opened", "count", "lower", 0},
	{"shard.single.p50_ms", "ms", "lower", 0},
	{"shard.concat.p50_ms", "ms", "lower", 0},
	{"shard.merge.p50_ms", "ms", "lower", 0},
	{"shard.leg_p50_us", "us", "lower", 0},
	{"shard.straggler_gap_us", "us", "lower", 0},
	{"shard.gather_us", "us", "lower", 0},
	// The trace itself.
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.accounted_frac", "ratio", "higher", 0},
	{"trace.spans", "count", "lower", 0},
}
