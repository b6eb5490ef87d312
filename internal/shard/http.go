// The router's HTTP surface: the same wire API the shards serve (one
// envelope, the same typed codes and statuses, the same NDJSON stream), over
// the same endpoints, so single-node clients point at a router unchanged.
package shard

import (
	"net/http"

	"udfdecorr/internal/parser"
	"udfdecorr/internal/wire"
)

// role is the envelope role of every router response.
const role = "router"

// NewHandler builds the router's HTTP API: /session, /session/close,
// /query, /exec, /stream, /explain, /stats and /healthz, answering every
// JSON endpoint with the one wire envelope (see internal/wire) whatever the
// request's Accept header says, and /stream as NDJSON under the one flush
// policy of wire.StreamWriter.
// /query and /exec are two routes over one statement handler, like the
// single-node server's: a SELECT is classified and scattered, anything else
// is routed as a DDL/INSERT script. A request's X-Trace-Id is echoed and
// forwarded on every shard request it causes.
func NewHandler(r *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/session", func(w http.ResponseWriter, req *http.Request) { handleSession(r, w, req) })
	mux.HandleFunc("/session/close", func(w http.ResponseWriter, req *http.Request) { handleSessionClose(r, w, req) })
	mux.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) { handleStatement(r, w, req) })
	mux.HandleFunc("/exec", func(w http.ResponseWriter, req *http.Request) { handleStatement(r, w, req) })
	mux.HandleFunc("/stream", func(w http.ResponseWriter, req *http.Request) { handleStream(r, w, req) })
	mux.HandleFunc("/explain", func(w http.ResponseWriter, req *http.Request) { handleExplain(r, w, req) })
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		if wire.ReadRequest(w, req, role, http.MethodGet, nil) {
			ok(w, r.Snapshot())
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if wire.ReadRequest(w, req, role, http.MethodGet, nil) {
			ok(w, map[string]any{"ok": true, "shards": r.NumShards()})
		}
	})
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if id := req.Header.Get(wire.TraceHeader); id != "" {
			w.Header().Set(wire.TraceHeader, id)
			req = req.WithContext(wire.WithTraceID(req.Context(), id))
		}
		mux.ServeHTTP(w, req)
	})
}

func ok(w http.ResponseWriter, result any) { wire.WriteOK(w, role, http.StatusOK, result) }

// fail answers with err's error envelope; router errors carry their own
// codes, anything untyped is INTERNAL.
func fail(w http.ResponseWriter, err error) {
	wire.WriteError(w, role, wire.AsRemote(err, wire.CodeInternal))
}

func decodeStatement(r *Router, w http.ResponseWriter, req *http.Request) (*Session, *wire.Statement, bool) {
	var body wire.Statement
	if !wire.ReadRequest(w, req, role, http.MethodPost, &body) {
		return nil, nil, false
	}
	sess, err := r.Session(body.Session)
	if err != nil {
		fail(w, err)
		return nil, nil, false
	}
	return sess, &body, true
}

func handleSession(r *Router, w http.ResponseWriter, req *http.Request) {
	settings := map[string]any{}
	if !wire.ReadRequest(w, req, role, http.MethodPost, &settings) {
		return
	}
	sess, err := r.CreateSession(req.Context(), settings)
	if err != nil {
		fail(w, err)
		return
	}
	out := map[string]any{"session": sess.ID, "shards": r.NumShards()}
	for k, v := range settings {
		out[k] = v
	}
	ok(w, out)
}

func handleSessionClose(r *Router, w http.ResponseWriter, req *http.Request) {
	var body wire.Statement
	if !wire.ReadRequest(w, req, role, http.MethodPost, &body) {
		return
	}
	if err := r.CloseSession(req.Context(), body.Session); err != nil {
		fail(w, err)
		return
	}
	ok(w, wire.Ack{OK: true})
}

// handleStatement serves /query and /exec: a body that parses as a SELECT
// routes through the query planner (classification + scatter/gather), any
// other script routes through Exec (DDL broadcast + INSERT hash-routing).
func handleStatement(r *Router, w http.ResponseWriter, req *http.Request) {
	sess, body, found := decodeStatement(r, w, req)
	if !found {
		return
	}
	text := body.Text()
	if _, err := parser.ParseQuery(text); err == nil {
		rows, _, err := r.Query(req.Context(), sess, text)
		if err != nil {
			fail(w, err)
			return
		}
		defer rows.Close()
		reply := wire.NewQueryReply(rows.Cols())
		for {
			row, err := rows.Next()
			if err != nil {
				reply.Discard()
				fail(w, err)
				return
			}
			if row == nil {
				break
			}
			reply.Row(row)
		}
		reply.Write(w, role, &wire.QueryResult{})
		return
	}
	if err := r.Exec(req.Context(), sess, text); err != nil {
		fail(w, err)
		return
	}
	ok(w, wire.Ack{OK: true})
}

// handleStream serves the NDJSON cursor: header, rows as they are gathered
// from the shards, trailer. Mid-scatter failures arrive in the trailer with
// their typed code, like a shard's own stream.
func handleStream(r *Router, w http.ResponseWriter, req *http.Request) {
	sess, body, found := decodeStatement(r, w, req)
	if !found {
		return
	}
	rows, _, err := r.Query(req.Context(), sess, body.Text())
	if err != nil {
		fail(w, err)
		return
	}
	defer rows.Close()
	sw := wire.NewStreamWriter(w, wire.StreamHeader{Cols: rows.Cols()})
	defer sw.Close()
	for {
		row, err := rows.Next()
		if err != nil {
			sw.Fail(wire.AsRemote(err, wire.CodeInternal))
			return
		}
		if row == nil {
			break
		}
		if sw.Row(row) != nil {
			return // client went away; closing the cursors cancels the legs
		}
	}
	sw.Done(wire.StreamTrailer{})
}

func handleExplain(r *Router, w http.ResponseWriter, req *http.Request) {
	sess, body, found := decodeStatement(r, w, req)
	if !found {
		return
	}
	out, err := r.Explain(req.Context(), sess, body.Text())
	if err != nil {
		fail(w, err)
		return
	}
	ok(w, map[string]string{"explain": out})
}
