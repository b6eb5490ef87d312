package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// options are the settings of one run.
type options struct {
	seed    int64
	size    sizes
	seconds float64
	trace   bool
	setups  int       // set-ups per run; setup_s is their median
	scratch string    // where data directories go (the span file goes under os.TempDir())
	report  io.Writer // the by-name metric listing
}

// result is what one run of one workload found. Its JSON form is one line of
// a -out file and the input of -compare.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Premise lists the ways the workload stopped being what its name says.
	Premise []string `json:"premise,omitempty"`
}

// premise records one way the workload stopped being what its name says.
func (r *result) premise(format string, args ...any) {
	r.Premise = append(r.Premise, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// The system under test, stood up for one workload
// ---------------------------------------------------------------------------

type system struct {
	sp      *spec
	front   string // base URL the clients talk to
	node    *node
	cluster *cluster
	dataDir string
	session string // the wire session every statement runs in
}

// construct builds the topology and opens the workload's sessions: the first
// part of set-up.
func construct(sp *spec, load []loadTable, dataDir string, rec *recorder) (*system, error) {
	sys := &system{sp: sp}
	var wrapNode, wrapRouter, wrapLeg middleware
	if rec != nil {
		wrapNode = spanMiddleware(rec, spanServer, spanClient)
		wrapRouter = spanMiddleware(rec, spanRouter, spanClient)
		wrapLeg = spanMiddleware(rec, spanLeg, spanRouter)
	}
	var err error
	switch sp.topo {
	case topoSingle:
		sys.node, err = startNode(load, "", wrapNode)
	case topoDurable:
		sys.dataDir = dataDir
		sys.node, err = startNode(load, dataDir, wrapNode)
	case topoSharded:
		sys.cluster, err = startCluster(load, wrapRouter, wrapLeg)
	}
	if err != nil {
		return nil, err
	}
	if sys.cluster != nil {
		sys.front = sys.cluster.front.url
	} else {
		sys.front = sys.node.http.url
	}
	wc := newWireClient(sys.front)
	defer wc.close()
	if sys.session, err = wc.openSession(sp.session); err != nil {
		sys.close()
		return nil, fmt.Errorf("session %s: %w", sp.session, err)
	}
	return sys, nil
}

func (s *system) close() error {
	if s.cluster != nil {
		s.cluster.close()
		return nil
	}
	return s.node.close()
}

// render turns the schedule's distinct statements into ready requests.
func (s *system) render(sched *schedule, expect []digest) []request {
	reqs := make([]request, len(sched.distinct))
	for i, d := range sched.distinct {
		reqs[i] = request{shape: d.shape, kind: d.kind, body: statementBody(s.session, d.sql),
			want: expect[i], rewritten: d.rewritten}
	}
	return reqs
}

// warmUp is the second part of set-up: every warm statement once, checked.
func (s *system) warmUp(sched *schedule, reqs []request, fails *failureLog) error {
	c := &clientLoop{id: -1, wc: newWireClient(s.front), fails: fails}
	defer c.wc.close()
	if s.sp.topo == topoDurable {
		var buf bytes.Buffer
		for first := int64(0); first < kvPreloadRows; first += rowsPerBatch {
			buf.Reset()
			kvBatchScript(&buf, -1, first)
			if _, err := c.wc.exec(s.session, buf.String()); err != nil {
				return fmt.Errorf("bench_kv preload: %w", err)
			}
		}
	}
	for _, i := range sched.warm {
		if _, ok := c.issue(&reqs[i], ""); !ok {
			return fmt.Errorf("warm-up statement failed: %s", sched.distinct[i].sql)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// mixed_rw_durable: statements that depend on what has been acknowledged
// ---------------------------------------------------------------------------

// writeLog is what the two writers did, for the check after reopening.
type writeLog struct {
	node    *node
	fails   *failureLog
	every   int
	batches atomic.Int64

	mu          sync.Mutex
	acked       [][]int64  // per client: first row number of each acknowledged batch
	checkpoints [][2]int64 // [start, end] ns since the phase began
	ckptMillis  []float64  // POST /checkpoint round trips
	walBytes    int64      // WAL bytes appended in the current phase, summed between checkpoints
	lastWAL     int64      // WAL size right after the previous checkpoint (or at the phase's start)
	begin       time.Time  // of the current phase
}

// kvClient is one client's moving parts.
type kvClient struct {
	log       *writeLog
	id        int
	session   string
	nextRow   int64
	lastFirst int64 // first row of the newest acknowledged batch, -1 before any
	script    bytes.Buffer
	req       request
	wc        *wireClient
}

func (k *kvClient) write() *request {
	k.script.Reset()
	kvBatchScript(&k.script, k.id, k.nextRow)
	k.req = request{shape: shapeWrite, kind: kindExec, body: statementBody(k.session, k.script.String()), rowsMoved: rowsPerBatch}
	return &k.req
}

func (k *kvClient) lookup(i int) *request {
	key := kvKey(-1, int64(i%kvPreloadRows))
	if k.lastFirst >= 0 {
		key = kvKey(k.id, k.lastFirst+int64(i%rowsPerBatch))
	}
	k.req = request{shape: shapeKV, kind: kindQuery, body: statementBody(k.session, kvLookupSQL(key)),
		want: kvDigest(key, kvValue(key))}
	return &k.req
}

// afterWrite books an acknowledged batch and, on every n-th batch overall,
// checkpoints before this client's next statement.
func (k *kvClient) afterWrite(s *sample) {
	first := k.nextRow
	k.nextRow += rowsPerBatch
	if s.failed {
		return
	}
	k.lastFirst = first
	l := k.log
	l.mu.Lock()
	l.acked[k.id] = append(l.acked[k.id], first)
	l.mu.Unlock()
	if n := l.batches.Add(1); l.every > 0 && n%int64(l.every) == 0 {
		before := l.node.counters().walBytes
		start := time.Since(l.begin)
		d, err := k.wc.checkpoint()
		if err != nil {
			l.fails.add("client %d: checkpoint: %v", k.id, err)
			return
		}
		after := l.node.counters().walBytes
		l.mu.Lock()
		l.checkpoints = append(l.checkpoints, [2]int64{start.Nanoseconds(), (start + d).Nanoseconds()})
		l.ckptMillis = append(l.ckptMillis, d.Seconds()*1e3)
		l.walBytes += before - l.lastWAL
		l.lastWAL = after
		l.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

// newClients builds the workload's closed-loop clients over rendered
// requests. wl is non-nil for mixed_rw_durable.
func (s *system) newClients(sched *schedule, reqs []request, fails *failureLog, wl *writeLog) []*clientLoop {
	clients := make([]*clientLoop, len(sched.clients))
	for ci, order := range sched.clients {
		c := &clientLoop{id: ci, wc: newWireClient(s.front), fails: fails, pos: sched.startAt, samples: make([]sample, 0, 1<<16)}
		if wl == nil {
			c.next = func(i int) *request { return &reqs[order[i%len(order)]] }
		} else {
			k := &kvClient{log: wl, id: ci, session: s.session, lastFirst: -1, wc: c.wc}
			c.next = func(i int) *request {
				switch op := order[i%len(order)]; op {
				case opWrite:
					return k.write()
				case opKV:
					return k.lookup(i)
				default:
					return &reqs[op]
				}
			}
			c.after = func(req *request, sm *sample) {
				if req.shape == shapeWrite {
					k.afterWrite(sm)
				}
			}
		}
		clients[ci] = c
	}
	return clients
}

// resetSamples empties every client's samples between phases. Positions in
// the schedules carry on, so the cold cycle keeps its reuse distance.
func resetSamples(clients []*clientLoop) {
	for _, c := range clients {
		c.samples = c.samples[:0]
	}
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// runWorkload does everything for one workload and one seed: inputs,
// reference answers, set-up, measurement, checks, metrics.
func runWorkload(sp *spec, opt options) (*result, error) {
	res := &result{Workload: sp.name, Seed: opt.seed, Trace: opt.trace, Metrics: map[string]float64{}}
	fails := &failureLog{}

	// Inputs, from the seed alone.
	data := generate(opt.seed, opt.size)
	sched := sp.build(rand.New(rand.NewSource(opt.seed^0x5eed)), opt.size)
	var userBytes, userRows int64
	for _, t := range data {
		userBytes += t.userBytes()
		userRows += int64(len(t.rows))
	}
	load := convertRows(data)

	// Reference answers: outside set-up and outside the clock.
	ref, err := newOracle(load)
	if err != nil {
		return nil, err
	}
	expect := make([]digest, len(sched.distinct))
	for i, d := range sched.distinct {
		if expect[i], err = ref.expect(d.sql, d.kind == kindStream); err != nil {
			return nil, err
		}
	}

	// Set-up, several times; the last one is measured on.
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}
	var sys *system
	var reqs []request
	setupSecs := make([]float64, 0, opt.setups)
	for i := 0; i < opt.setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			if sys.dataDir != "" {
				_ = os.RemoveAll(sys.dataDir)
			}
		}
		dir := ""
		if sp.topo == topoDurable {
			dir = filepath.Join(opt.scratch, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if sys, err = construct(sp, load, dir, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		built := time.Since(t0)
		reqs = sys.render(sched, expect)
		t1 := time.Now()
		if err := sys.warmUp(sched, reqs, fails); err != nil {
			_ = sys.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, (built + time.Since(t1)).Seconds())
	}
	defer func() {
		_ = sys.close()
		if sys.dataDir != "" {
			_ = os.RemoveAll(sys.dataDir)
		}
	}()
	load = nil // the benchmark's copy of the rows must not count as the program's heap
	heapMB := heapInuseMB()

	var wl *writeLog
	if sp.topo == topoDurable {
		wl = &writeLog{node: sys.node, fails: fails, every: sp.checkpointEvery, acked: make([][]int64, len(sched.clients))}
	}
	clients := sys.newClients(sched, reqs, fails, wl)
	defer func() {
		for _, c := range clients {
			c.wc.close()
		}
	}()
	m := &measurement{sp: sp, sys: sys, sched: sched, clients: clients, wl: wl, opt: opt,
		userBytes: userBytes, userRows: userRows, setupSecs: setupSecs, heapMB: heapMB}

	if opt.trace {
		err = m.traced(rec, res)
	} else {
		err = m.untraced(res)
	}
	if err != nil {
		return nil, err
	}
	if wl != nil {
		m.verifyDurable(res)
	}
	res.Failed = fails.count
	res.Correct = res.Failed == 0 && len(res.Premise) == 0
	return res, nil
}

// measurement is the state shared by the untraced and the traced run.
type measurement struct {
	sp        *spec
	sys       *system
	sched     *schedule
	clients   []*clientLoop
	wl        *writeLog
	opt       options
	userBytes int64
	userRows  int64
	setupSecs []float64
	heapMB    float64
}

// phase runs the clients for d and returns their samples and the wall time.
func (m *measurement) phase(d time.Duration, rec *recorder) ([]sample, time.Duration) {
	resetSamples(m.clients)
	if m.wl != nil {
		m.wl.begin = time.Now()
		m.wl.checkpoints, m.wl.ckptMillis = nil, nil
		m.wl.walBytes, m.wl.lastWAL = 0, m.sys.node.counters().walBytes
	}
	wall := runPhase(m.clients, d, rec)
	var all []sample
	for _, c := range m.clients {
		all = append(all, c.samples...)
	}
	return all, wall
}

// summary is the end-to-end view of a phase.
type summary struct {
	n, failed               int
	p50, p75, p90, p95, p99 float64         // ms, all statements
	tail, ttfr, geomean     float64         // ms
	perShape                map[int]float64 // median ms by shape
	perShapeN               map[int]int
	stmtsPerS, rowsPerS     float64
}

func summarize(samples []sample, wall time.Duration, tail float64) summary {
	s := summary{n: len(samples), perShape: map[int]float64{}, perShapeN: map[int]int{}}
	var lat, ttfr []float64
	byShape := map[int][]float64{}
	var rows int64
	for _, x := range samples {
		if x.failed {
			s.failed++
			continue
		}
		ms := float64(x.lat) / 1e6
		lat = append(lat, ms)
		ttfr = append(ttfr, float64(x.ttfr)/1e6)
		byShape[int(x.shape)] = append(byShape[int(x.shape)], ms)
		rows += int64(x.rows)
	}
	sorted := sortedCopy(lat)
	s.p50, s.p75, s.p90 = quantile(sorted, 0.5), quantile(sorted, 0.75), quantile(sorted, 0.9)
	s.p95, s.p99, s.tail = quantile(sorted, 0.95), quantile(sorted, 0.99), quantile(sorted, tail)
	s.ttfr = median(ttfr)
	var medians []float64
	for shape, v := range byShape {
		s.perShape[shape] = median(v)
		s.perShapeN[shape] = len(v)
		medians = append(medians, s.perShape[shape])
	}
	s.geomean = geomean(medians)
	s.stmtsPerS = float64(len(lat)) / wall.Seconds()
	s.rowsPerS = float64(rows) / wall.Seconds()
	return s
}

// untraced is the run the end-to-end metrics come from.
func (m *measurement) untraced(res *result) error {
	before := m.counters()
	routesBefore := m.routes()
	samples, wall := m.phase(time.Duration(m.opt.seconds*float64(time.Second)), nil)
	s := summarize(samples, wall, m.sp.tail)
	res.Attempted = s.n
	if s.n == s.failed {
		return fmt.Errorf("%s: no statement succeeded", m.sp.name)
	}
	res.Metrics["setup_s"] = median(m.setupSecs)
	res.Metrics["heap_mb"] = m.heapMB
	res.Metrics["stmt_p50_ms"] = s.p50
	res.Metrics["stmt_tail_ms"] = s.tail
	res.Metrics["shape_geomean_ms"] = s.geomean
	res.Metrics["ttfr_p50_ms"] = s.ttfr
	res.Metrics["stmts_per_s"] = s.stmtsPerS
	res.Metrics["rows_per_s"] = s.rowsPerS
	m.checkPremises(res, samples, before, routesBefore)
	// stmt_tail_ms is a fixed percentile per workload, and a time-bounded run
	// of a slower program has fewer samples: fail rather than report a tail
	// with too few samples beyond it. (The smoke test's dataset and run
	// length are not what the percentiles were sized for.)
	ok := s.n - s.failed
	past := beyond(ok, int(math.Round(m.sp.tail*1000)))
	if m.opt.size == fullSize && past < minBeyond {
		res.premise("%s: stmt_tail_ms is p%.0f but only %d of %d samples lie beyond it, fewer than %d",
			m.sp.name, m.sp.tail*100, past, ok, minBeyond)
	}

	w := m.opt.report
	fmt.Fprintf(w, "%s seed=%d: %d statements in %.2fs, %d failed; %d closed-loop client(s); set-ups %.3f s\n",
		m.sp.name, m.opt.seed, s.n, wall.Seconds(), s.failed, len(m.clients), m.setupSecs)
	fmt.Fprintf(w, "  stmt_tail_ms is p%.0f of %d samples (%d beyond; the sample supports p%.0f)\n",
		m.sp.tail*100, ok, past, supportedTail(ok)*100)
	fmt.Fprintf(w, "  latency ms: p50 %.4f  p75 %.4f  p90 %.4f  p95 %.4f  p99 %.4f\n", s.p50, s.p75, s.p90, s.p95, s.p99)
	for i, name := range m.sp.shapes {
		if n := s.perShapeN[i]; n > 0 {
			fmt.Fprintf(w, "  shape %-20s p50 %10.4f ms  n=%d\n", name, s.perShape[i], n)
		}
	}
	return nil
}

// counters reads the front node's counters (the zero value on the sharded
// topology, whose per-shard counters no premise uses).
func (m *measurement) counters() counters {
	if m.sys.node == nil {
		return counters{}
	}
	return m.sys.node.counters()
}

func (m *measurement) routes() routeCounts {
	if m.sys.cluster == nil {
		return routeCounts{}
	}
	return m.sys.cluster.routeCounts()
}

// checkPremises fails the run when a workload stopped being what it says.
// (A paper_rewritten reply that was not fully decorrelated is caught per
// statement, in clientLoop.issue.)
func (m *measurement) checkPremises(res *result, samples []sample, before counters, routesBefore routeCounts) {
	after := m.counters()
	hits, misses := after.cacheHits-before.cacheHits, after.cacheMisses-before.cacheMisses
	hitFrac := ratio(float64(hits), float64(hits+misses))
	switch m.sp.name {
	case "hot_statements":
		if hitFrac < 0.99 {
			res.premise("hot_statements: plan cache hit fraction %.4f < 0.99", hitFrac)
		}
	case "cold_statements":
		if hitFrac > 0.01 {
			res.premise("cold_statements: plan cache hit fraction %.4f > 0.01", hitFrac)
		}
	}
	if m.sys.cluster != nil {
		var want routeCounts
		for _, x := range samples {
			switch x.shape {
			case 0:
				want.single++
			case 1:
				want.concat++
			case 2:
				want.merge++
			}
		}
		now := m.routes()
		got := routeCounts{now.single - routesBefore.single, now.concat - routesBefore.concat,
			now.merge - routesBefore.merge, now.rejected - routesBefore.rejected}
		if got != want {
			res.premise("shard_routes: router classes %+v differ from the schedule's %+v", got, want)
		}
	}
}

// verifyDurable closes the node, reopens its data directory and looks for
// every row of every acknowledged batch.
func (m *measurement) verifyDurable(res *result) {
	if err := m.sys.node.close(); err != nil {
		res.premise("mixed_rw_durable: closing the node: %v", err)
		return
	}
	keys, recovery, err := reopenDurable(m.sys.dataDir)
	if err != nil {
		res.premise("mixed_rw_durable: reopening %s: %v", m.sys.dataDir, err)
		return
	}
	acked, missing := 0, 0
	for c, firsts := range m.wl.acked {
		for _, first := range firsts {
			for i := int64(0); i < rowsPerBatch; i++ {
				acked++
				if !keys[kvKey(c, first+i)] {
					missing++
				}
			}
		}
	}
	if missing > 0 {
		res.premise("mixed_rw_durable: %d of %d acknowledged rows missing after reopen", missing, acked)
	}
	if m.opt.trace {
		res.Metrics["wal.recovery_ms"] = recovery.Seconds() * 1e3
	}
	fmt.Fprintf(m.opt.report, "  durability: %d acknowledged rows, %d missing after reopen; recovery %.1f ms; %d checkpoints\n",
		acked, missing, recovery.Seconds()*1e3, len(m.wl.checkpoints))
}
