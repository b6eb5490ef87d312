package main

// sut.go is the only file that touches the program under test. Two kinds of
// dependency live here and nowhere else:
//
//   - Go constructors needed to stand a node up in-process (engine.New,
//     engine.OpenDurable, ExecScript, CreateIndex, Load,
//     server.NewServiceFromEngine, server.NewHandler, shard.New,
//     shard.NewHandler, shard.Hash) and the counters the layers already
//     export (Service.Stats, DurabilityStats, Router.Snapshot, exec.Counters,
//     core.Result.Trace);
//   - the wire surface every end-to-end path uses (POST /session, /query,
//     /stream, /exec, /checkpoint, GET /metrics, the wire v1 Accept header
//     and the JSON shapes of requests and replies).
//
// Executor and mode are chosen through the /session JSON only. The layer
// replay (traced runs) borrows the engine view of such a session, so it
// runs with exactly the settings the wire asked for.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"udfdecorr/internal/core"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/server"
	"udfdecorr/internal/shard"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// planCacheCapacity is the service's plan cache size the hot pool must fit
// in and the cold cycle must overflow.
var planCacheCapacity = server.DefaultOptions().CacheSize

const numShards = 3

// ---------------------------------------------------------------------------
// Rows and digests
// ---------------------------------------------------------------------------

// loadTable is one generated table converted to the program's row type.
type loadTable struct {
	name     string
	shardCol int // column index of the shard key, -1 for replicated tables
	rows     []storage.Row
}

// convertRows turns generated cells into storage rows, once, outside any
// timed region.
func convertRows(tables []tableData) []loadTable {
	out := make([]loadTable, 0, len(tables))
	for _, t := range tables {
		lt := loadTable{name: t.name, shardCol: -1, rows: make([]storage.Row, len(t.rows))}
		for _, def := range tableDefs {
			if def.name != t.name || def.shardKey == "" {
				continue
			}
			for i, col := range strings.Split(def.cols, ",") {
				if strings.Fields(col)[0] == def.shardKey {
					lt.shardCol = i
				}
			}
		}
		for i, r := range t.rows {
			row := make(storage.Row, len(r))
			for j, c := range r {
				switch v := c.(type) {
				case int64:
					row[j] = sqltypes.NewInt(v)
				case float64:
					row[j] = sqltypes.NewFloat(v)
				case string:
					row[j] = sqltypes.NewString(v)
				}
			}
			lt.rows[i] = row
		}
		out = append(out, lt)
	}
	return out
}

// digest is an order-independent fingerprint of a result: row count plus the
// sum of per-row FNV-64a hashes over the wire rendering of each cell.
type digest struct {
	rows int
	sum  uint64
}

// FNV-1a, 64 bit, spelled out so that the per-row check allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func (d *digest) addRow(cells []string) {
	h := uint64(fnvOffset)
	for _, c := range cells {
		h = (fnvAdd(h, c) ^ 0x1f) * fnvPrime // cell separator
	}
	d.rows++
	d.sum += h
}

// addLine folds one raw NDJSON row line in without decoding it; used for
// /stream where both sides see byte-identical row lines.
func (d *digest) addLine(line []byte) {
	d.rows++
	d.sum += fnvAdd(fnvOffset, line)
}

// kvDigest is the expected reply to a bench_kv key lookup.
func kvDigest(k int64, v string) digest {
	var d digest
	d.addRow([]string{strconv.FormatInt(k, 10), "'" + v + "'"})
	return d
}

// ---------------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------------

// populate installs schema, UDFs, indexes and rows on a fresh engine.
// shardIdx < 0 loads everything; otherwise only this shard's partition of
// the sharded tables (and all of the replicated ones).
//
// It returns the time spent inside Load, for storage.load_rows_per_s.
func populate(e *engine.Engine, data []loadTable, ddl bool, shardIdx int) (time.Duration, error) {
	if ddl {
		if err := e.ExecScript(schemaSQL(false) + udfSQL); err != nil {
			return 0, fmt.Errorf("schema: %w", err)
		}
	}
	for _, ix := range secondaryIndexes {
		if err := e.CreateIndex(ix[0], ix[1]); err != nil {
			return 0, fmt.Errorf("index %s(%s): %w", ix[0], ix[1], err)
		}
	}
	var loading time.Duration
	for _, t := range data {
		rows := t.rows
		if shardIdx >= 0 && t.shardCol >= 0 {
			rows = nil
			for _, r := range t.rows {
				if shard.Hash(r[t.shardCol], numShards) == shardIdx {
					rows = append(rows, r)
				}
			}
		}
		t0 := time.Now()
		if err := e.Load(t.name, rows); err != nil {
			return 0, fmt.Errorf("load %s: %w", t.name, err)
		}
		loading += time.Since(t0)
	}
	return loading, nil
}

// node is one server process image: engine, query service, HTTP listener.
type node struct {
	eng     *engine.Engine
	svc     *server.Service
	http    *listener
	loading time.Duration // time spent in Load
}

// startNode stands up a single node holding the whole dataset. A non-empty
// dataDir makes it durable (WAL + checkpoints, fsync=always, the default
// policy). wrap, if set, is the tracing middleware around the handler.
func startNode(data []loadTable, dataDir string, wrap middleware) (*node, error) {
	var e *engine.Engine
	if dataDir == "" {
		e = engine.New(engine.SYS1, engine.ModeRewrite)
	} else {
		var err error
		e, err = engine.OpenDurable(dataDir, engine.SYS1, engine.ModeRewrite, engine.DurabilityOptions{})
		if err != nil {
			return nil, err
		}
	}
	loading, err := populate(e, data, true, -1)
	if err != nil {
		return nil, err
	}
	n, err := serveNode(e, wrap)
	if err == nil {
		n.loading = loading
	}
	return n, err
}

func serveNode(e *engine.Engine, wrap middleware) (*node, error) {
	svc := server.NewServiceFromEngine(e, server.DefaultOptions())
	l, err := listen(wrap.apply(server.NewHandler(svc)))
	if err != nil {
		return nil, err
	}
	return &node{eng: e, svc: svc, http: l}, nil
}

// close stops the listener and seals the WAL of a durable node.
func (n *node) close() error {
	n.http.close()
	if n.eng.Durable != nil {
		return n.eng.Durable.Close()
	}
	return nil
}

// reopenDurable recovers a closed durable node's data directory and returns
// every key of bench_kv plus the time recovery took.
func reopenDurable(dataDir string) (map[int64]bool, time.Duration, error) {
	t0 := time.Now()
	e, err := engine.OpenDurable(dataDir, engine.SYS1, engine.ModeIterative, engine.DurabilityOptions{})
	if err != nil {
		return nil, 0, err
	}
	recovery := time.Since(t0)
	defer e.Durable.Close()
	res, err := e.Query("select k from bench_kv")
	if err != nil {
		return nil, 0, err
	}
	keys := make(map[int64]bool, len(res.Rows))
	for _, r := range res.Rows {
		k, err := strconv.ParseInt(r[0].String(), 10, 64)
		if err != nil {
			return nil, 0, err
		}
		keys[k] = true
	}
	return keys, recovery, nil
}

// cluster is the sharded tier: three volatile shard nodes and a router.
type cluster struct {
	shards []*node
	router *shard.Router
	front  *listener
}

// startCluster starts empty shards and a router, sends schema and UDFs
// through the router (so its catalog knows the shard keys), then places rows
// directly on each shard with the router's own hash.
func startCluster(data []loadTable, wrapRouter, wrapLeg middleware) (*cluster, error) {
	c := &cluster{}
	urls := make([]string, numShards)
	for i := 0; i < numShards; i++ {
		n, err := serveNode(engine.New(engine.SYS1, engine.ModeRewrite), wrapLeg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.shards = append(c.shards, n)
		urls[i] = n.http.url
	}
	r, err := shard.New(urls)
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = r
	c.front, err = listen(wrapRouter.apply(shard.NewHandler(r)))
	if err != nil {
		c.close()
		return nil, err
	}
	wc := newWireClient(c.front.url)
	defer wc.close()
	sess, err := wc.openSession("{}")
	if err == nil {
		_, err = wc.exec(sess, schemaSQL(true)+udfSQL)
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("DDL through router: %w", err)
	}
	for i, n := range c.shards {
		if n.loading, err = populate(n.eng, data, false, i); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) close() {
	if c.front != nil {
		c.front.close()
	}
	for _, n := range c.shards {
		_ = n.close()
	}
}

// routeCounts are the router's per-class statement counters.
type routeCounts struct{ single, concat, merge, rejected int64 }

func (c *cluster) routeCounts() routeCounts {
	s := c.router.Snapshot()
	return routeCounts{s.SingleShard, s.ScatterConcat, s.ScatterMerge, s.Rejected}
}

// classifyTime times the router's shard-feasibility pass on one statement.
func (c *cluster) classifyTime(sql string) (time.Duration, error) {
	t0 := time.Now()
	_, err := c.router.Classify(sql)
	return time.Since(t0), err
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

// oracle is the reference engine: a separate single node in iterative mode
// on the row executor — UDFs run tuple-at-a-time through the interpreter,
// the semantics the paper's rewrite must preserve.
type oracle struct{ eng *engine.Engine }

func newOracle(data []loadTable) (*oracle, error) {
	e := engine.New(engine.SYS1, engine.ModeIterative)
	if _, err := populate(e, data, true, -1); err != nil {
		return nil, err
	}
	return &oracle{e}, nil
}

// expect computes the digest of a statement's reference answer. stream
// selects the /stream line rendering (see digest.addLine).
func (o *oracle) expect(sql string, stream bool) (digest, error) {
	res, err := o.eng.Query(sql)
	if err != nil {
		return digest{}, fmt.Errorf("oracle: %s: %w", sql, err)
	}
	var d digest
	cells := make([]string, len(res.Cols))
	for _, r := range res.Rows {
		for i, v := range r {
			cells[i] = v.String()
		}
		if stream {
			line, _ := json.Marshal(struct {
				Row []string `json:"row"`
			}{cells})
			d.addLine(line)
		} else {
			d.addRow(cells)
		}
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Counters the layers export
// ---------------------------------------------------------------------------

// counters is a snapshot of what the service, storage and WAL count.
type counters struct {
	cacheHits, cacheMisses, cacheEvictions int64
	admissionWaits                         int64
	queryHistP50us                         int64
	zeroCopyScans, pivotedScans            int64
	columnBytes                            int64
	walRecords, walBytes, groupSyncs       int64
	checkpoints                            int64
}

func (n *node) counters() counters {
	st := n.svc.Stats()
	c := counters{
		cacheHits:      st.Cache.Hits,
		cacheMisses:    st.Cache.Misses,
		cacheEvictions: st.Cache.Evictions,
		admissionWaits: st.Parallel.AdmissionWaits,
		queryHistP50us: st.QueryLatency.P50Micro,
		zeroCopyScans:  st.Storage.ZeroCopyScans,
		pivotedScans:   st.Storage.PivotedScans,
		columnBytes:    st.Storage.ColumnBytes,
	}
	if d := st.Durability; d != nil {
		c.walRecords, c.walBytes, c.groupSyncs, c.checkpoints = d.WALRecords, d.WALBytes, d.GroupSyncs, d.Checkpoints
	}
	return c
}

// fsyncHistogram scrapes GET /metrics for the WAL fsync latency histogram.
// The program prints bounds only up to the highest populated bucket, so two
// scrapes may differ in length: subtract them with histogram.since.
func (n *node) fsyncHistogram() (histogram, error) {
	var h histogram
	resp, err := http.Get(n.http.url + "/metrics")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	const prefix = `udfd_wal_fsync_duration_seconds_bucket{le="`
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.Index(rest, `"} `)
		if q < 0 {
			continue
		}
		n, err := strconv.ParseInt(rest[q+3:], 10, 64)
		if err != nil {
			return h, err
		}
		le := rest[:q]
		b := infBound
		if le != "+Inf" {
			if b, err = strconv.ParseFloat(le, 64); err != nil {
				return h, err
			}
		}
		h.bounds, h.cum = append(h.bounds, b), append(h.cum, n)
	}
	return h, sc.Err()
}

// ---------------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------------

// layerTimes is one statement pushed through each layer's public entry
// point in turn, outside HTTP: what engine.Prepare + RunContext do, one
// span per call.
type layerTimes struct {
	normalizeSQL, parse, algebrize, rewrite, normalize, plan time.Duration
	prepare                                                  time.Duration // engine.Prepare as one call, measured separately
	run                                                      time.Duration // RunContext + drain, no encoding
	ruleFirings                                              int
	rows, rowsProcessed, udfCalls, planBuilds                int64
}

// replay runs sql through the layers using the engine view of the given
// wire session.
func (n *node) replay(session, sql string) (layerTimes, error) {
	var lt layerTimes
	sess, ok := n.svc.Session(session)
	if !ok {
		return lt, fmt.Errorf("replay: unknown session %q", session)
	}
	eng := sess.Engine()

	t := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(t)
		t = now
	}
	_ = server.NormalizeSQL(sql)
	lap(&lt.normalizeSQL)
	sel, err := parser.ParseQuery(sql)
	lap(&lt.parse)
	if err != nil {
		return lt, err
	}
	rel, err := core.NewAlgebrizer(eng.Cat).Query(sel)
	lap(&lt.algebrize)
	if err != nil {
		return lt, err
	}
	target := rel
	if eng.Mode != engine.ModeIterative {
		res, err := core.NewDecorrelator(eng.Cat).Rewrite(rel)
		lap(&lt.rewrite)
		if err != nil {
			return lt, err
		}
		lt.ruleFirings = len(res.Trace)
		if res.Decorrelated {
			target = res.Rel
		}
	}
	t = time.Now()
	target = core.Normalize(eng.Cat, target)
	lap(&lt.normalize)
	if _, _, _, err := eng.Planner.BuildExplain(target); err != nil {
		return lt, err
	}
	lap(&lt.plan)

	prep, err := eng.Prepare(sql)
	lap(&lt.prepare)
	if err != nil {
		return lt, err
	}
	rows, err := eng.RunContext(context.Background(), prep)
	if err != nil {
		return lt, err
	}
	for rows.Next() {
		lt.rows++
	}
	err = rows.Err()
	_ = rows.Close()
	lap(&lt.run)
	c := rows.Counters()
	lt.rowsProcessed, lt.udfCalls, lt.planBuilds = c.RowsProcessed, c.UDFCalls, c.PlanBuilds
	return lt, err
}

// ---------------------------------------------------------------------------
// Wire client
// ---------------------------------------------------------------------------

const (
	wireV1Accept = "application/vnd.udfd.v1+json"
	traceHeader  = "X-Trace-Id"
)

// wireClient is one closed-loop client: one HTTP connection, one request in
// flight.
type wireClient struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // reply body, reused
}

func newWireClient(base string) *wireClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &wireClient{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *wireClient) close() { c.hc.CloseIdleConnections() }

// envelope is the wire v1 reply.
type envelope struct {
	V      int             `json:"v"`
	Result json.RawMessage `json:"result"`
	Error  *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// reply is what the client learned from one statement.
type reply struct {
	ttfr      time.Duration // until the first result row could be in hand
	latency   time.Duration // until the reply was read completely
	got       digest
	rewritten bool
	udfCalls  int64
}

// statementBody renders the shared /query, /stream, /exec request body.
func statementBody(session, sql string) []byte {
	b, _ := json.Marshal(struct {
		Session string `json:"session"`
		SQL     string `json:"sql"`
	}{session, sql})
	return b
}

func (c *wireClient) do(path string, body []byte, traceID string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wireV1Accept)
	if traceID != "" {
		req.Header.Set(traceHeader, traceID)
	}
	return c.hc.Do(req)
}

// roundTrip posts body and decodes the v1 envelope's result into out.
func (c *wireClient) roundTrip(path string, body []byte, traceID string, out any) (ttfr, latency time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.do(path, body, traceID)
	if err != nil {
		return 0, 0, err
	}
	ttfr = time.Since(t0)
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	latency = time.Since(t0)
	if err != nil {
		return ttfr, latency, err
	}
	var env envelope
	if err := json.Unmarshal(c.buf.Bytes(), &env); err != nil {
		return ttfr, latency, fmt.Errorf("%s: bad reply: %w", path, err)
	}
	if env.Error != nil {
		return ttfr, latency, fmt.Errorf("%s: %s: %s", path, env.Error.Code, env.Error.Message)
	}
	if resp.StatusCode != http.StatusOK || env.V != 1 {
		return ttfr, latency, fmt.Errorf("%s: HTTP %d, wire v%d", path, resp.StatusCode, env.V)
	}
	if out != nil {
		if err := json.Unmarshal(env.Result, out); err != nil {
			return ttfr, latency, fmt.Errorf("%s: bad result: %w", path, err)
		}
	}
	return ttfr, latency, nil
}

// openSession creates a session from a /session JSON settings object such as
// {"mode":"rewrite","vectorized":true}.
func (c *wireClient) openSession(settingsJSON string) (string, error) {
	var out struct {
		Session string `json:"session"`
	}
	_, _, err := c.roundTrip("/session", []byte(settingsJSON), "", &out)
	return out.Session, err
}

// query posts a /query body. The reply is read completely inside the timed
// window; decoding rows for the check happens after it.
func (c *wireClient) query(body []byte, traceID string) (reply, error) {
	var out struct {
		Rows      [][]string `json:"rows"`
		Rewritten bool       `json:"rewritten"`
		UDFCalls  int64      `json:"udf_calls"`
	}
	ttfr, lat, err := c.roundTrip("/query", body, traceID, &out)
	r := reply{ttfr: ttfr, latency: lat, rewritten: out.Rewritten, udfCalls: out.UDFCalls}
	for _, row := range out.Rows {
		r.got.addRow(row)
	}
	return r, err
}

// exec posts an /exec script body; the ack is the reply.
func (c *wireClient) exec(session, script string) (reply, error) {
	return c.execBody(statementBody(session, script), "")
}

func (c *wireClient) execBody(body []byte, traceID string) (reply, error) {
	var out struct {
		OK bool `json:"ok"`
	}
	ttfr, lat, err := c.roundTrip("/exec", body, traceID, &out)
	if err == nil && !out.OK {
		err = fmt.Errorf("/exec: not acknowledged")
	}
	return reply{ttfr: ttfr, latency: lat}, err
}

// checkpoint forces a snapshot + log truncation on a durable node.
func (c *wireClient) checkpoint() (time.Duration, error) {
	_, lat, err := c.roundTrip("/checkpoint", nil, "", nil)
	return lat, err
}

// stream posts a /stream body and consumes the NDJSON cursor: header line,
// row lines (fingerprinted raw, never decoded), trailer. ttfr is the time
// until the first row line has been read.
func (c *wireClient) stream(body []byte, traceID string) (reply, error) {
	var r reply
	t0 := time.Now()
	resp, err := c.do("/stream", body, traceID)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return r, fmt.Errorf("/stream: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var last []byte
	for n := 0; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return r, fmt.Errorf("/stream: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case n == 0:
			var hdr struct {
				Rewritten bool `json:"rewritten"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil {
				return r, fmt.Errorf("/stream: bad header: %w", err)
			}
			r.rewritten = hdr.Rewritten
		case bytes.HasPrefix(line, []byte(`{"row":`)):
			if r.got.rows == 0 {
				r.ttfr = time.Since(t0)
			}
			r.got.addLine(line)
		default:
			last = append(last[:0], line...)
		}
	}
	r.latency = time.Since(t0)
	if r.got.rows == 0 {
		r.ttfr = r.latency
	}
	var trailer struct {
		Done     bool   `json:"done"`
		RowCount int    `json:"row_count"`
		UDFCalls int64  `json:"udf_calls"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(last, &trailer); err != nil {
		return r, fmt.Errorf("/stream: bad trailer %q: %w", last, err)
	}
	if !trailer.Done || trailer.RowCount != r.got.rows {
		return r, fmt.Errorf("/stream: trailer done=%v rows=%d (read %d) error=%q",
			trailer.Done, trailer.RowCount, r.got.rows, trailer.Error)
	}
	r.udfCalls = trailer.UDFCalls
	return r, nil
}
