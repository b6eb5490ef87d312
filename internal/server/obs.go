// Service observability: the metrics registry behind /metrics (sharing its
// sources with /stats so the two surfaces always agree), per-query trace
// IDs, and the structured slow-query log.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/obs"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wal"
)

// traceIDKey carries an explicit per-query trace ID through a context.
type traceIDKey struct{}

// WithTraceID returns a context carrying an explicit query trace ID. The
// HTTP layer sets it from the X-Trace-Id request header and the udfsql
// driver from the DSN's trace label; queries started without one get a
// service-generated ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace ID from a context, if one was attached.
func TraceIDFrom(ctx context.Context) (string, bool) {
	id, ok := ctx.Value(traceIDKey{}).(string)
	return id, ok && id != ""
}

// serviceMetrics bundles the service's observability state: the registry
// serving /metrics, the latency histograms, the slow-query log settings and
// the trace-ID generator.
type serviceMetrics struct {
	reg    *obs.Registry
	logger *slog.Logger

	slowQuery   time.Duration
	slowQueries *obs.Counter

	traceBase string
	traceSeq  atomic.Int64

	queryDur      *obs.Histogram // plan lookup + execution, to stream close
	streamDur     *obs.Histogram // HTTP /stream request lifetime
	execDur       *obs.Histogram // DDL/DML script execution
	txnCommitDur  *obs.Histogram // COMMIT publish + WAL append
	walFsyncDur   *obs.Histogram // individual WAL fsyncs
	checkpointDur *obs.Histogram // checkpoint snapshot + truncate
	admissionWait *obs.Histogram // time blocked on a full worker pool
	ddlWait       *obs.Histogram // time blocked on the DDL gate (read side)
}

// initObservability builds the registry and wires every /stats source into
// it, so /metrics is a second view over the same live counters.
func (s *Service) initObservability(opts Options) {
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	m := &serviceMetrics{
		reg:       obs.NewRegistry(),
		logger:    logger,
		slowQuery: opts.SlowQueryThreshold,
		traceBase: fmt.Sprintf("%08x", uint32(s.started.UnixNano())),
	}
	reg := m.reg

	for _, mode := range []string{"iterative", "rewrite", "cost-based"} {
		mode := mode
		reg.CounterFunc("udfd_queries_total", `mode="`+mode+`"`,
			"Queries completed successfully, by execution mode.", func() int64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.queriesByMode[mode]
			})
	}
	counter := func(name, help string, fn func() int64) { reg.CounterFunc(name, "", help, fn) }
	locked := func(fn func() int64) func() int64 {
		return func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return fn()
		}
	}
	counter("udfd_query_errors_total", "Queries that failed with an error (cancellations excluded).",
		locked(func() int64 { return s.queryErrors }))
	counter("udfd_queries_cancelled_total", "Queries ended by context cancellation or statement timeout.",
		locked(func() int64 { return s.queriesCancelled }))
	counter("udfd_execs_total", "DDL/DML scripts executed.",
		locked(func() int64 { return s.execs }))
	counter("udfd_prepare_deduped_total", "Prepares served by joining another session's in-flight compilation.",
		locked(func() int64 { return s.prepareDeduped }))
	counter("udfd_parallel_queries_total", "Queries admitted with a worker budget > 1.",
		locked(func() int64 { return s.parallelQueries }))
	counter("udfd_morsels_total", "Scan morsels executed by parallel workers.",
		locked(func() int64 { return s.morsels }))
	counter("udfd_worker_launches_total", "Parallel workers launched by exchange/parallel-aggregation operators.",
		locked(func() int64 { return s.workerLaunches }))
	counter("udfd_admission_waits_total", "Admission acquisitions that blocked on a full worker pool.",
		s.admission.waitCount)

	reg.GaugeFunc("udfd_sessions", "", "Live sessions.",
		locked(func() int64 { return int64(len(s.sessions)) }))
	reg.GaugeFunc("udfd_catalog_version", "", "Catalog schema version.", s.cat.Version)
	reg.GaugeFunc("udfd_admission_pool_size", "", "Configured worker-pool size.",
		func() int64 { return int64(s.admission.size) })
	reg.GaugeFunc("udfd_admission_free_slots", "", "Currently unclaimed worker slots.",
		func() int64 { return int64(s.admission.freeSlots()) })
	counter("udfd_plan_cache_hits_total", "Plan cache hits.",
		func() int64 { return s.cache.Stats().Hits })
	counter("udfd_plan_cache_misses_total", "Plan cache misses.",
		func() int64 { return s.cache.Stats().Misses })
	counter("udfd_plan_cache_evictions_total", "Plan cache evictions.",
		func() int64 { return s.cache.Stats().Evictions })
	reg.GaugeFunc("udfd_plan_cache_entries", "", "Plans currently cached.",
		func() int64 { return int64(s.cache.Stats().Size) })
	reg.GaugeFloatFunc("udfd_uptime_seconds", "", "Seconds since the service started.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Columnar storage shape and scan-path counters. The shape gauges walk
	// every table's published version per scrape (metered for polling, not
	// hot paths); the scan counters are process-wide atomics.
	reg.GaugeFunc("udfd_storage_tables", "", "Tables in the store.",
		func() int64 { return int64(s.store.StorageStats().Tables) })
	reg.GaugeFunc("udfd_storage_segments", "", "Published column segments across all tables.",
		func() int64 { return int64(s.store.StorageStats().Segments) })
	reg.GaugeFunc("udfd_storage_rows", "", "Published rows across all tables.",
		func() int64 { return s.store.StorageStats().Rows })
	reg.GaugeFunc("udfd_storage_column_bytes", "", "Estimated bytes held by published column segments.",
		func() int64 { return s.store.StorageStats().ColumnBytes })
	counter("udfd_zero_copy_scans_total", "Batch scans served zero-copy from column segments.",
		storage.ZeroCopyScans)
	counter("udfd_pivoted_scans_total", "Scans that materialized a row-major pivot of a table version.",
		storage.PivotedScans)
	counter("udfd_segments_skipped_total", "Column segments bounded scans skipped because their zones ruled the predicate out.",
		storage.SegmentsSkipped)
	counter("udfd_storage_index_rows_hashed_total", "Rows hashed into the shared per-column hash indexes.",
		storage.IndexRowsHashed)

	m.slowQueries = reg.Counter("udfd_slow_queries_total", "",
		"Queries at or above the slow-query threshold.")

	m.queryDur = reg.Histogram("udfd_query_duration_seconds",
		"Query service time: plan lookup plus execution, to stream close.")
	m.streamDur = reg.Histogram("udfd_stream_duration_seconds",
		"HTTP /stream request lifetime (first byte to last row).")
	m.execDur = reg.Histogram("udfd_exec_duration_seconds",
		"DDL/DML script execution time.")
	m.txnCommitDur = reg.Histogram("udfd_txn_commit_duration_seconds",
		"Transaction COMMIT time (publish + WAL append).")
	m.walFsyncDur = reg.Histogram("udfd_wal_fsync_duration_seconds",
		"Individual WAL fsync latency.")
	m.checkpointDur = reg.Histogram("udfd_checkpoint_duration_seconds",
		"Checkpoint time (snapshot write + WAL truncate).")
	m.admissionWait = reg.Histogram("udfd_admission_wait_seconds",
		"Time queries spent blocked on a full worker pool (blocking acquisitions only).")
	m.ddlWait = reg.Histogram("udfd_ddl_wait_seconds",
		"Time statements spent blocked on the DDL gate.")

	s.metrics = m
	s.admission.observeWait = m.admissionWait.Observe
}

// registerDurableMetrics adds the WAL/checkpoint series (durable services
// only) and routes WAL fsync latencies into the histogram.
func (s *Service) registerDurableMetrics() {
	reg := s.metrics.reg
	stats := func(fn func(engine.DurabilityStats) int64) func() int64 {
		return func() int64 { return fn(s.durable.Stats()) }
	}
	reg.GaugeFunc("udfd_wal_bytes", "", "Live WAL segment bytes.",
		stats(func(d engine.DurabilityStats) int64 { return d.WALBytes }))
	reg.CounterFunc("udfd_wal_records_total", "", "WAL records appended since open.",
		stats(func(d engine.DurabilityStats) int64 { return d.WALRecords }))
	reg.CounterFunc("udfd_checkpoints_total", "", "Checkpoints taken since open.",
		stats(func(d engine.DurabilityStats) int64 { return d.Checkpoints }))
	reg.GaugeFunc("udfd_recovered_records", "", "Records replayed at open.",
		stats(func(d engine.DurabilityStats) int64 { return d.RecoveredRecords }))
	wal.SetFsyncObserver(s.metrics.walFsyncDur.Observe)
}

// Metrics returns the service's metrics registry (the /metrics source).
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }

// ObserveStreamDuration records one streaming request's lifetime (the HTTP
// layer calls it when a /stream response finishes).
func (s *Service) ObserveStreamDuration(d time.Duration) { s.metrics.streamDur.Observe(d) }

// Logger returns the service's structured logger.
func (s *Service) Logger() *slog.Logger { return s.metrics.logger }

// nextTraceID resolves a query's trace ID: the caller's (header / DSN /
// explicit WithTraceID) when present, else a generated "<base>-<seq>" where
// base is derived from the service start time — unique per process, cheap,
// and grep-able across the slow-query log and client-side records.
func (s *Service) nextTraceID(ctx context.Context) string {
	if ctx != nil {
		if id, ok := TraceIDFrom(ctx); ok {
			return id
		}
	}
	return fmt.Sprintf("%s-%d", s.metrics.traceBase, s.metrics.traceSeq.Add(1))
}

// maybeLogSlow emits the structured slow-query line when the query's
// service time meets the configured threshold (0 disables). wait is the
// admission + gate wait before execution started; elapsed is plan lookup +
// execution to stream close.
func (s *Service) maybeLogSlow(traceID string, sess *Session, eng *engine.Engine, sql string,
	prep *engine.Prepared, hit bool, wait, elapsed time.Duration, rowsReturned int64, qerr error) {
	m := s.metrics
	if m.slowQuery <= 0 || elapsed < m.slowQuery {
		return
	}
	m.slowQueries.Inc()
	attrs := []any{
		"trace_id", traceID,
		"session", sess.ID,
		"sql", truncateSQL(sql),
		"mode", eng.Mode.String(),
		"cache_hit", hit,
		"wait", wait.Round(time.Microsecond).String(),
		"elapsed", elapsed.Round(time.Microsecond).String(),
		"rows", rowsReturned,
	}
	if prep != nil {
		attrs = append(attrs,
			"rewritten", prep.Rewritten,
			"parallelism", prep.Parallelism,
			"vectorized", eng.Profile.Vectorized,
		)
	}
	if qerr != nil {
		attrs = append(attrs, "err", qerr.Error())
	}
	m.logger.Warn("slow query", attrs...)
}

// truncateSQL bounds logged statement text (slow-query lines should never
// dominate the log).
func truncateSQL(sql string) string {
	sql = strings.Join(strings.Fields(sql), " ")
	const max = 240
	if len(sql) > max {
		return sql[:max] + "…"
	}
	return sql
}

// LatencyStats summarizes a latency histogram for the /stats JSON snapshot
// (microsecond quantiles; the full distribution is on /metrics).
type LatencyStats struct {
	Count    int64 `json:"count"`
	P50Micro int64 `json:"p50_us"`
	P95Micro int64 `json:"p95_us"`
	P99Micro int64 `json:"p99_us"`
}

func latencyStats(h *obs.Histogram) LatencyStats {
	return LatencyStats{
		Count:    h.Count(),
		P50Micro: h.Quantile(0.50).Microseconds(),
		P95Micro: h.Quantile(0.95).Microseconds(),
		P99Micro: h.Quantile(0.99).Microseconds(),
	}
}
