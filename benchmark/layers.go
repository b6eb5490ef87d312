package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// The traced run. Its time is split in four: a quarter with tracing off (the
// base for trace.overhead_frac), half with boundary spans on, and the rest
// for the layer replay and, on the paper_* workloads, the cells of
// Figs. 10-12. End-to-end metrics never come from here.

func (m *measurement) traced(rec *recorder, res *result) error {
	total := time.Duration(m.opt.seconds * float64(time.Second))
	mt := res.Metrics

	baseSamples, baseWall := m.phase(total/4, nil)
	base := summarize(baseSamples, baseWall, m.sp.tail)

	before := m.counters()
	var fsync0 histogram
	if m.wl != nil {
		var err error
		if fsync0, err = m.sys.node.fsyncHistogram(); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	peak := newHeapSampler()
	rec.on.Store(true)
	samples, wall := m.phase(total/2, rec)
	rec.on.Store(false)
	heapPeak := peak.stop()
	runtime.ReadMemStats(&ms1)
	after := m.counters()
	s := summarize(samples, wall, m.sp.tail)
	res.Attempted = base.n + s.n
	if s.n == s.failed || base.n == base.failed {
		return fmt.Errorf("%s: no statement succeeded", m.sp.name)
	}
	done := float64(s.n)

	mt["trace.overhead_frac"] = s.p50/base.p50 - 1
	mt["client.stmt_p99_ms"] = s.p99
	mt["client.failed_frac"] = ratio(float64(s.failed+base.failed), float64(res.Attempted))
	mt["process.allocs_per_stmt"] = float64(ms1.Mallocs-ms0.Mallocs) / done
	mt["process.alloc_bytes_per_stmt"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / done
	mt["process.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	mt["process.heap_peak_mb"] = heapPeak

	hits, misses := after.cacheHits-before.cacheHits, after.cacheMisses-before.cacheMisses
	hitFrac := ratio(float64(hits), float64(hits+misses))
	mt["server.cache_hit_frac"] = hitFrac
	mt["server.cache_evictions"] = float64(after.cacheEvictions - before.cacheEvictions)
	mt["server.admission_waits"] = float64(after.admissionWaits - before.admissionWaits)
	mt["server.query_hist_p50_us"] = float64(after.queryHistP50us)
	zc, pv := after.zeroCopyScans-before.zeroCopyScans, after.pivotedScans-before.pivotedScans
	mt["storage.zero_copy_scan_frac"] = ratio(float64(zc), float64(zc+pv))

	nodes := []*node{m.sys.node}
	if m.sys.cluster != nil {
		nodes = m.sys.cluster.shards
	}
	var loading time.Duration
	var columnBytes int64
	for _, n := range nodes {
		loading += n.loading
		columnBytes += n.counters().columnBytes
	}
	mt["storage.load_rows_per_s"] = float64(m.userRows) / loading.Seconds()
	mt["storage.column_bytes_per_user_byte"] = float64(columnBytes) / float64(m.userBytes)

	rowsPerStmt := m.boundaries(rec, mt)
	if m.wl != nil {
		fsync1, err := m.sys.node.fsyncHistogram()
		if err != nil {
			return err
		}
		m.walMetrics(mt, samples, s, before, after, fsync1.since(fsync0))
	}
	if m.sys.cluster != nil {
		mt["shard.single.p50_ms"] = s.perShape[0]
		mt["shard.concat.p50_ms"] = s.perShape[1]
		mt["shard.merge.p50_ms"] = s.perShape[2]
		var opened int64
		for _, n := range m.sys.cluster.shards {
			opened += n.http.conns.Load()
		}
		mt["shard.conns_opened"] = float64(opened)
	}

	replayed, layerMedians, err := m.replayLayers(rec, total/4)
	if err != nil {
		return err
	}
	for name, v := range layerMedians {
		mt[name] = v
	}
	frontEnd := mt["parser.parse_us"] + mt["core.algebrize_us"] + mt["core.rewrite_us"] + mt["core.normalize_us"] + mt["plan.build_us"]
	missFrac := 1 - hitFrac
	if m.sys.cluster != nil {
		missFrac = 0 // every text was warmed on its shard
	}
	inEngine := missFrac*frontEnd + mt["exec.run_us"]
	if rows := median(rowsPerStmt); rows > 0 {
		mt["server.encode_us_per_row"] = max(0, mt["server.handler_us"]-missFrac*mt["engine.prepare_us"]-mt["exec.run_us"]) / rows
	}
	mt["trace.accounted_frac"] = (inEngine + mt["client.transport_us"] + mt["shard.router_self_us"]) / (s.p50 * 1e3)

	if err := m.paperCells(mt); err != nil {
		return err
	}

	path := filepath.Join(os.TempDir(), fmt.Sprintf("udfbench-spans-%s-%d.jsonl", m.sp.name, m.opt.seed))
	mt["trace.spans"] = float64(len(rec.spans))
	if err := rec.writeFile(path); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := m.opt.report
	fmt.Fprintf(w, "%s seed=%d traced: %d statements untraced (p50 %.4f ms), %d traced (p50 %.4f ms); %d spans in %s\n",
		m.sp.name, m.opt.seed, base.n, base.p50, s.n, s.p50, len(rec.spans), path)
	fmt.Fprintf(w, "  layer replay: %d statements; front end %.1f us at miss fraction %.3f, exec %.1f us, transport %.1f us, router %.1f us: %.0f%% of the client's p50\n",
		replayed, frontEnd, missFrac, mt["exec.run_us"], mt["client.transport_us"], mt["shard.router_self_us"], 100*mt["trace.accounted_frac"])
	return nil
}

// heapSampler polls HeapInuse while a phase runs.
type heapSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			h.peak = max(h.peak, ms.HeapInuse)
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the polling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// ---------------------------------------------------------------------------
// Boundary spans
// ---------------------------------------------------------------------------

// boundaries turns the client / handler / router / leg spans into metrics and
// returns the rows each traced statement returned.
func (m *measurement) boundaries(rec *recorder, mt map[string]float64) (rowsPerStmt []float64) {
	var transport, handler, routerSelf, legs, gap, gather []float64
	var legCount, routed int
	var flushes, streamBytes, streamRows int64
	for _, group := range rec.byStatement() {
		self := selfTimes(group)
		var legEnds []int64
		var router *span
		for i := range group {
			sp := &group[i]
			switch sp.Name {
			case spanClient:
				transport = append(transport, float64(self[i])/1e3)
				rowsPerStmt = append(rowsPerStmt, float64(sp.Rows))
				if sp.Path == "/stream" {
					streamRows += int64(sp.Rows)
				}
			case spanServer:
				handler = append(handler, float64(sp.dur())/1e3)
				if sp.Path == "/stream" {
					flushes += int64(sp.Flushes)
					streamBytes += sp.Bytes
				}
			case spanRouter:
				router = sp
				routerSelf = append(routerSelf, float64(self[i])/1e3)
			case spanLeg:
				legs = append(legs, float64(sp.dur())/1e3)
				legEnds = append(legEnds, sp.End)
			}
		}
		if router != nil {
			routed++
			legCount += len(legEnds)
		}
		if router != nil && len(legEnds) > 1 {
			first, last := legEnds[0], legEnds[0]
			for _, e := range legEnds {
				first, last = min(first, e), max(last, e)
			}
			gap = append(gap, float64(last-first)/1e3)
			gather = append(gather, float64(router.End-last)/1e3)
		}
	}
	mt["client.transport_us"] = median(transport)
	if m.sys.cluster != nil {
		handler = legs // each leg is a server.NewHandler call on a shard
		mt["shard.router_self_us"] = median(routerSelf)
		mt["shard.requests_per_stmt"] = ratio(float64(legCount), float64(routed))
		mt["shard.leg_p50_us"] = median(legs)
		mt["shard.straggler_gap_us"] = median(gap)
		mt["shard.gather_us"] = median(gather)
	}
	mt["server.handler_us"] = median(handler)
	mt["server.stream_flushes_per_row"] = ratio(float64(flushes), float64(streamRows))
	mt["server.stream_bytes_per_row"] = ratio(float64(streamBytes), float64(streamRows))
	return rowsPerStmt
}

// ---------------------------------------------------------------------------
// WAL and checkpoints
// ---------------------------------------------------------------------------

// walMetrics covers the traced phase only: fsyncs is the fsync histogram's
// growth over it, and phase() restarted the write log's WAL byte count.
func (m *measurement) walMetrics(mt map[string]float64, samples []sample, s summary, before, after counters, fsyncs histogram) {
	wl := m.wl
	batches := float64(s.perShapeN[shapeWrite])
	mt["wal.records_per_batch"] = ratio(float64(after.walRecords-before.walRecords), batches)
	mt["wal.group_syncs"] = float64(after.groupSyncs - before.groupSyncs)
	mt["wal.fsyncs_per_batch"] = ratio(float64(fsyncs.total()), batches)
	mt["wal.fsync_p50_us"] = fsyncs.quantile(0.50) * 1e6
	mt["wal.fsync_p95_us"] = fsyncs.quantile(0.95) * 1e6

	// What the user handed over per row: an 8-byte key and the value text.
	written := batches * rowsPerBatch * float64(8+len(kvValue(0)))
	wl.mu.Lock()
	walBytes := wl.walBytes + after.walBytes - wl.lastWAL
	mt["wal.checkpoint_ms"] = median(wl.ckptMillis)
	var stalls []float64
	for _, win := range wl.checkpoints {
		var worst int64
		for _, x := range samples {
			if x.start < win[1] && x.start+x.lat > win[0] {
				worst = max(worst, x.lat)
			}
		}
		stalls = append(stalls, float64(worst)/1e6)
	}
	wl.mu.Unlock()
	mt["wal.checkpoint_stall_ms"] = median(stalls)
	mt["wal.bytes_per_user_byte"] = ratio(float64(walBytes), written)
	mt["wal.disk_bytes_per_user_byte"] = ratio(float64(dirBytes(m.sys.dataDir)), float64(m.userBytes)+written)

	var static []float64
	for _, x := range samples {
		if !x.failed && int(x.shape) < shapeKV {
			static = append(static, float64(x.lat)/1e3)
		}
	}
	mt["server.read_static_p50_us"] = median(static)
	mt["server.read_after_write_p50_us"] = s.perShape[shapeKV] * 1e3
}

// dirBytes sums the sizes of the files directly in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------------

// replayLayers pushes the workload's distinct statements through each
// layer's public entry point (see node.replay) until the budget is spent,
// recording one span per call. It returns how many it replayed and the
// median of every per-layer figure.
func (m *measurement) replayLayers(rec *recorder, budget time.Duration) (int, map[string]float64, error) {
	n, session := m.sys.node, m.sys.session
	if m.sys.cluster != nil {
		// Shard sessions belong to the router; the shared default session ""
		// has the same settings as {}.
		n, session = m.sys.cluster.shards[0], ""
	}
	cols := map[string][]float64{}
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	deadline := time.Now().Add(budget)
	count := 0
	for _, d := range m.sched.distinct {
		if !time.Now().Before(deadline) {
			break
		}
		if m.sys.cluster != nil {
			ct, err := m.sys.cluster.classifyTime(d.sql)
			if err != nil {
				return 0, nil, err
			}
			add("shard.classify_us", us(ct))
		}
		start := rec.now()
		lt, err := n.replay(session, d.sql)
		if err != nil {
			return 0, nil, fmt.Errorf("layer replay: %s: %w", d.sql, err)
		}
		count++
		stmt := rec.nextStmt()
		rec.add(span{Stmt: stmt, Name: spanReplay, Start: start, End: rec.now(), Shape: d.shape, Rows: int(lt.rows)})
		at64 := start
		for _, l := range []struct {
			name string
			d    time.Duration
		}{
			{"server.normalize_sql_us", lt.normalizeSQL}, {"parser.parse_us", lt.parse},
			{"core.algebrize_us", lt.algebrize}, {"core.rewrite_us", lt.rewrite},
			{"core.normalize_us", lt.normalize}, {"plan.build_us", lt.plan},
			{"engine.prepare_us", lt.prepare}, {"exec.run_us", lt.run},
		} {
			add(l.name, us(l.d))
			rec.add(span{Stmt: stmt, Name: spanReplayP + l.name, Parent: spanReplay, Start: at64, End: at64 + l.d.Nanoseconds()})
			at64 += l.d.Nanoseconds()
		}
		add("core.rule_firings", float64(lt.ruleFirings))
		add("exec.udf_calls", float64(lt.udfCalls))
		add("exec.embedded_plan_builds", float64(lt.planBuilds))
		if lt.rows > 0 {
			add("exec.rows_processed_per_row", float64(lt.rowsProcessed)/float64(lt.rows))
		}
	}
	medians := make(map[string]float64, len(cols))
	for name, v := range cols {
		medians[name] = median(v)
	}
	return count, medians, nil
}

// ---------------------------------------------------------------------------
// The cells of Figs. 10-12
// ---------------------------------------------------------------------------

const (
	cellReps = 3
	// vecIterativeCap bounds exp1's iterative-on-vectorized cell, which
	// takes 2.8 s at 90 000 invocations. Its ratio uses a rewritten base
	// measured under the same cap. The cap must be the first conjunct:
	// predicates are evaluated in the order written.
	vecIterativeCap = 10_000
)

// paperCells measures, on the paper_* workloads only, each figure's cells
// through fresh wire sessions: the full-table grid on paper_rewritten and
// paper_iterative, the 10-key cells on paper_smalln.
func (m *measurement) paperCells(mt map[string]float64) error {
	if !strings.HasPrefix(m.sp.name, "paper_") {
		return nil
	}
	wc := newWireClient(m.sys.front)
	defer wc.close()
	// Every cell of one statement must return the same rows, whatever the
	// mode and executor: the paper's guarantee.
	answers := map[string]digest{}
	cell := func(settings, sql string) (float64, error) {
		id, err := wc.openSession(settings)
		if err != nil {
			return 0, err
		}
		body := statementBody(id, sql)
		var ms []float64
		for i := 0; i < cellReps; i++ {
			r, err := wc.query(body, "")
			if err != nil {
				return 0, err
			}
			if want, ok := answers[sql]; ok && r.got != want {
				return 0, fmt.Errorf("paper cell %s: answer differs from another mode's: %s", settings, sql)
			}
			answers[sql] = r.got
			ms = append(ms, r.latency.Seconds()*1e3)
		}
		return median(ms), nil
	}
	w := m.opt.report
	if m.sp.name == "paper_smalln" {
		for e := range paperShapes {
			for _, mode := range []string{"rewrite", "iterative", "costbased"} {
				v, err := cell(fmt.Sprintf(`{"mode":%q}`, mode), paperSmall(e, 11))
				if err != nil {
					return err
				}
				mt[fmt.Sprintf("paper.exp%d.n10.%s_ms", e+1, mode)] = v
			}
		}
		return nil
	}
	for e := range paperShapes {
		for _, ex := range []struct {
			name string
			vec  bool
		}{{"row", false}, {"vec", true}} {
			sql := paperFull(e, 0)
			capped := e == 0 && ex.vec
			if capped {
				sql = strings.Replace(sql, "where ", fmt.Sprintf("where orderkey <= %d and ", vecIterativeCap), 1)
			}
			rewrite, err := cell(fmt.Sprintf(`{"mode":"rewrite","vectorized":%v}`, ex.vec), sql)
			if err != nil {
				return err
			}
			iterative, err := cell(fmt.Sprintf(`{"mode":"iterative","vectorized":%v}`, ex.vec), sql)
			if err != nil {
				return err
			}
			mt[fmt.Sprintf("paper.exp%d.iterative_%s_ms", e+1, ex.name)] = iterative
			mt[fmt.Sprintf("paper.exp%d.speedup_%s", e+1, ex.name)] = iterative / rewrite
			fmt.Fprintf(w, "  exp%d %s: iterative %.3f ms / rewritten %.3f ms = %.2fx", e+1, ex.name, iterative, rewrite, iterative/rewrite)
			if capped {
				fmt.Fprintf(w, " (both at %d invocations)", vecIterativeCap)
				if rewrite, err = cell(`{"mode":"rewrite","vectorized":true}`, paperFull(e, 0)); err != nil {
					return err
				}
			}
			fmt.Fprintln(w)
			mt[fmt.Sprintf("paper.exp%d.rewrite_%s_ms", e+1, ex.name)] = rewrite
		}
	}
	return nil
}
