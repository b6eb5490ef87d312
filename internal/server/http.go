package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/repl"
	"udfdecorr/internal/wire"
)

// NewHandler builds the HTTP/JSON API over a service:
//
//	POST /session  {"mode","profile","vectorized","parallelism","timeout_ms"} -> {"session"}
//	POST /session/close {"session"}                 -> {"ok"}
//	POST /query    {"session","sql"}                -> rows + metadata
//	POST /stream   {"session","sql"}                -> NDJSON row stream
//	POST /exec     {"session","script"}             -> {"ok"}
//	POST /explain  {"session","sql"}                -> {"explain"}
//	POST /explain?analyze=1 {"session","sql"}       -> {"explain"} (executes, per-operator stats)
//	POST /checkpoint                                -> {"checkpoints","wal_bytes"}
//	GET  /stats                                     -> Stats
//	GET  /metrics                                   -> Prometheus text exposition
//	GET  /healthz                                   -> role, WAL position, replication lag
//	GET  /repl/snapshot                             -> latest checkpoint image (durable only)
//	GET  /repl/wal?segment=N&offset=K               -> framed WAL records (durable only)
//
// Every JSON endpoint answers with the one wire envelope (see internal/wire),
// whatever the request's Accept header says: results under "result",
// failures as typed {code, message} errors whose HTTP status comes from
// wire's code table, with the node's role and, on a read-only follower, the
// leader's address in the structured leader_hint field. /stream is NDJSON
// outside the envelope (format in internal/wire/stream.go, flushed per row)
// and /metrics is Prometheus text.
//
// /query and /exec are two routes over one statement handler: /query expects
// a single SELECT and returns its rows, /exec runs a DDL/DML/txn script and
// returns {"ok":true}. Both accept the statement text under "sql" or
// "script".
//
// The empty session ID addresses a shared default session (SYS1, rewrite
// mode). Row values are rendered in SQL literal syntax (strings quoted,
// NULL bare) so clients can compare results unambiguously.
//
// /query and /stream honor an X-Trace-Id request header (the query's trace
// ID, grep-able in the slow-query log) and echo the effective ID — given or
// generated — back on the response.
//
// Both /query and /stream execute under the request context: a client that
// disconnects (or a session statement timeout that fires) cancels the query
// at the next row/batch boundary and releases its worker slots; the query
// counts as cancelled, not errored, in /stats.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/session", func(w http.ResponseWriter, r *http.Request) { handleSession(svc, w, r) })
	mux.HandleFunc("/session/close", func(w http.ResponseWriter, r *http.Request) { handleSessionClose(svc, w, r) })
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) { handleStatement(svc, w, r, kindQuery) })
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) { handleStream(svc, w, r) })
	mux.HandleFunc("/exec", func(w http.ResponseWriter, r *http.Request) { handleStatement(svc, w, r, kindExec) })
	mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) { handleExplain(svc, w, r) })
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) { handleCheckpoint(svc, w, r) })
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) { handleStats(svc, w, r) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { handleMetrics(svc, w, r) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { handleHealthz(svc, w, r) })
	if svc.durable != nil {
		// A durable service is a valid replication source: its WAL stream and
		// checkpoint are served regardless of role, so chained topologies
		// (follower-of-follower) stay possible once a node is promoted.
		repl.NewLeaderHandlers(svc.durable.WAL(), svc.durable.Dir()).Register(mux)
	}
	return mux
}

// handleHealthz is the readiness probe: the node's replication role, its WAL
// position (the durable tip on a leader, the applied stream position on a
// follower), and replication lag. A follower whose tail loop died fatally
// reports 503 so load balancers stop routing reads to a stale replica.
func handleHealthz(svc *Service, w http.ResponseWriter, r *http.Request) {
	if !readRequest(svc, w, r, http.MethodGet, nil) {
		return
	}
	role := svc.Role()
	resp := map[string]any{"role": string(role)}
	healthy := true
	if st, ok := svc.ReplStatus(); ok {
		resp["repl"] = st
		if role == RoleFollower && st.Fatal {
			healthy = false
		}
	}
	if svc.durable != nil {
		tip := svc.durable.WAL().StreamTip()
		resp["wal"] = map[string]any{
			"segment": tip.Segment,
			"offset":  tip.Offset,
			"records": tip.Records,
		}
	}
	resp["healthy"] = healthy
	status := http.StatusOK
	if !healthy {
		status = http.StatusServiceUnavailable
	}
	wire.WriteOK(w, string(role), status, resp)
}

// handleMetrics serves the Prometheus text exposition. It reads the same
// live sources as /stats, so the two surfaces always agree.
func handleMetrics(svc *Service, w http.ResponseWriter, r *http.Request) {
	if !readRequest(svc, w, r, http.MethodGet, nil) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = svc.Metrics().WritePrometheus(w)
}

// traceContext attaches the X-Trace-Id request header (if any) to the
// request context so the service adopts it as the query's trace ID.
func traceContext(r *http.Request) context.Context {
	ctx := r.Context()
	if id := r.Header.Get(wire.TraceHeader); id != "" {
		ctx = WithTraceID(ctx, id)
	}
	return ctx
}

// handleCheckpoint forces a snapshot + log truncation on a durable service
// (operators and the durability CI use it to bound recovery time).
func handleCheckpoint(svc *Service, w http.ResponseWriter, r *http.Request) {
	if !readRequest(svc, w, r, http.MethodPost, nil) {
		return
	}
	if err := svc.Checkpoint(); err != nil {
		fail(svc, w, wire.CodeInternal, fmt.Errorf("checkpoint: %w", err))
		return
	}
	st := svc.Stats()
	ok(svc, w, map[string]any{
		"checkpoints": st.Durability.Checkpoints,
		"wal_bytes":   st.Durability.WALBytes,
	})
}

type sessionRequest struct {
	Mode       string `json:"mode"`
	Profile    string `json:"profile"`
	Vectorized bool   `json:"vectorized"`
	// Parallelism is the intra-query worker degree (0 adopts the server's
	// default; effective on the vectorized executor).
	Parallelism int `json:"parallelism"`
	// TimeoutMS is the per-statement timeout in milliseconds (0 = none).
	TimeoutMS int64 `json:"timeout_ms"`
}

type sessionResponse struct {
	Session     string `json:"session"`
	Mode        string `json:"mode"`
	Profile     string `json:"profile"`
	Vectorized  bool   `json:"vectorized"`
	Parallelism int    `json:"parallelism"`
	TimeoutMS   int64  `json:"timeout_ms"`
}

type explainResponse struct {
	Explain string `json:"explain"`
}

// ok answers with a success envelope carrying the node's role.
func ok(svc *Service, w http.ResponseWriter, result any) {
	wire.WriteOK(w, string(svc.Role()), http.StatusOK, result)
}

// wireError types err for the wire: a follower's write rejection is
// READ_ONLY with the leader as its hint; anything else takes the code the
// handler names for this failure.
func wireError(err error, code wire.Code) *wire.RemoteError {
	var ro *ReadOnlyError
	if errors.As(err, &ro) {
		return &wire.RemoteError{Code: wire.CodeReadOnly, Message: err.Error(), LeaderHint: ro.Leader}
	}
	return wire.AsRemote(err, code)
}

// fail answers with err's error envelope.
func fail(svc *Service, w http.ResponseWriter, code wire.Code, err error) {
	wire.WriteError(w, string(svc.Role()), wireError(err, code))
}

// readRequest is wire.ReadRequest answering in the node's role.
func readRequest(svc *Service, w http.ResponseWriter, r *http.Request, method string, v any) bool {
	return wire.ReadRequest(w, r, string(svc.Role()), method, v)
}

// decodeStatement parses a statement body and resolves its session.
func decodeStatement(svc *Service, w http.ResponseWriter, r *http.Request) (*Session, *wire.Statement, bool) {
	var req wire.Statement
	if !readRequest(svc, w, r, http.MethodPost, &req) {
		return nil, nil, false
	}
	sess, found := svc.Session(req.Session)
	if !found {
		fail(svc, w, wire.CodeUnknownSession, fmt.Errorf("unknown session %q", req.Session))
		return nil, nil, false
	}
	return sess, &req, true
}

func handleSession(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !readRequest(svc, w, r, http.MethodPost, &req) {
		return
	}
	profile := engine.SYS1
	if req.Profile != "" {
		p, err := ParseProfile(req.Profile)
		if err != nil {
			fail(svc, w, wire.CodeBadRequest, err)
			return
		}
		profile = p
	}
	mode := engine.ModeRewrite
	if req.Mode != "" {
		m, err := ParseMode(req.Mode)
		if err != nil {
			fail(svc, w, wire.CodeBadRequest, err)
			return
		}
		mode = m
	}
	profile.Vectorized = req.Vectorized
	profile.Parallelism = req.Parallelism
	if profile.Parallelism == 0 {
		profile.Parallelism = svc.DefaultParallelism()
	}
	sess := svc.CreateSession(profile, mode)
	if req.TimeoutMS > 0 {
		sess.SetTimeout(time.Duration(req.TimeoutMS) * time.Millisecond)
	}
	ok(svc, w, sessionResponse{
		Session:     sess.ID,
		Mode:        mode.String(),
		Profile:     profile.Name,
		Vectorized:  profile.Vectorized,
		Parallelism: profile.Parallelism,
		TimeoutMS:   req.TimeoutMS,
	})
}

func handleSessionClose(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req wire.Statement
	if !readRequest(svc, w, r, http.MethodPost, &req) {
		return
	}
	svc.CloseSession(req.Session)
	ok(svc, w, wire.Ack{OK: true})
}

// stmtKind parameterizes the one statement handler behind /query and /exec:
// the decode / session-resolution / error paths are identical, only the
// service call and the success payload differ.
type stmtKind int

const (
	kindQuery stmtKind = iota // single SELECT, returns rows
	kindExec                  // DDL/DML/txn script, returns ok
)

func handleStatement(svc *Service, w http.ResponseWriter, r *http.Request, kind stmtKind) {
	sess, req, found := decodeStatement(svc, w, r)
	if !found {
		return
	}
	switch kind {
	case kindQuery:
		handleQuery(svc, w, r, sess, req)
	case kindExec:
		if err := svc.ExecContext(r.Context(), sess, req.Text()); err != nil {
			fail(svc, w, wire.CodeBadRequest, err)
			return
		}
		ok(svc, w, wire.Ack{OK: true})
	}
}

// handleQuery drains the statement's cursor straight into a /query reply.
// The cursor is closed before the first byte reaches the socket: closing
// releases the DDL gate and the admission slots and absorbs the counters,
// so a slow client cannot hold the gate.
func handleQuery(svc *Service, w http.ResponseWriter, r *http.Request, sess *Session, req *wire.Statement) {
	st, err := svc.QueryStream(traceContext(r), sess, req.Text(), StreamOpts{})
	if err != nil {
		fail(svc, w, wire.CodeBadRequest, err)
		return
	}
	defer st.Rows.Close() // on a panic; the drain closes it below
	reply := wire.NewQueryReply(st.Rows.Columns())
	for st.Rows.Next() {
		reply.ValueRow(st.Rows.Row())
	}
	st.Rows.Close()
	if err := st.Rows.Err(); err != nil {
		reply.Discard()
		fail(svc, w, wire.CodeBadRequest, err)
		return
	}
	c := st.Rows.Counters()
	w.Header().Set(wire.TraceHeader, st.TraceID)
	reply.Write(w, string(svc.Role()), &wire.QueryResult{
		Rewritten:  st.Rows.Rewritten(),
		CacheHit:   st.CacheHit,
		ElapsedUS:  time.Since(st.Started).Microseconds(),
		UDFCalls:   c.UDFCalls,
		PlanBuilds: c.PlanBuilds,
		Morsels:    c.Morsels,
		Workers:    c.Workers,
	})
}

func handleStream(svc *Service, w http.ResponseWriter, r *http.Request) {
	sess, req, found := decodeStatement(svc, w, r)
	if !found {
		return
	}
	st, err := svc.QueryStream(traceContext(r), sess, req.Text(), StreamOpts{})
	if err != nil {
		fail(svc, w, wire.CodeBadRequest, err)
		return
	}
	defer st.Rows.Close()
	defer func(start time.Time) { svc.ObserveStreamDuration(time.Since(start)) }(time.Now())

	w.Header().Set(wire.TraceHeader, st.TraceID)
	sw := wire.NewStreamWriter(w, wire.StreamHeader{
		Cols: st.Rows.Columns(), Rewritten: st.Rows.Rewritten(), CacheHit: st.CacheHit})
	defer sw.Close()

	for st.Rows.Next() {
		if err := sw.ValueRow(st.Rows.Row()); err != nil {
			// Client went away mid-stream; the request context cancels the
			// query, st.Rows.Close (deferred) releases its slots.
			return
		}
	}
	st.Rows.Close() // settle Err and absorb parallel counters
	if err := st.Rows.Err(); err != nil {
		sw.Fail(wireError(err, wire.CodeBadRequest))
		return
	}
	c := st.Rows.Counters()
	sw.Done(wire.StreamTrailer{
		ElapsedUS: time.Since(st.Started).Microseconds(),
		UDFCalls:  c.UDFCalls,
		Morsels:   c.Morsels,
		Workers:   c.Workers,
	})
}

func handleExplain(svc *Service, w http.ResponseWriter, r *http.Request) {
	sess, req, found := decodeStatement(svc, w, r)
	if !found {
		return
	}
	var out string
	var err error
	if v := r.URL.Query().Get("analyze"); v == "1" || v == "true" {
		out, err = svc.ExplainAnalyze(traceContext(r), sess, req.Text())
	} else {
		out, err = svc.Explain(sess, req.Text())
	}
	if err != nil {
		fail(svc, w, wire.CodeBadRequest, err)
		return
	}
	ok(svc, w, explainResponse{Explain: out})
}

func handleStats(svc *Service, w http.ResponseWriter, r *http.Request) {
	if !readRequest(svc, w, r, http.MethodGet, nil) {
		return
	}
	ok(svc, w, svc.Stats())
}
