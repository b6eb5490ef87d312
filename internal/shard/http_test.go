// HTTP-surface test of the router handler through the wire client: both
// statement routes, the NDJSON stream and the routing counters. The envelope
// shape, codes and statuses of every endpoint are pinned by contract_test.go.
package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"udfdecorr/internal/shard"
	"udfdecorr/internal/wire"
)

func TestRouterHTTP(t *testing.T) {
	c := startCluster(t, 3)
	ts := httptest.NewServer(shard.NewHandler(c.router))
	defer ts.Close()
	ctx := context.Background()
	wc := wire.NewClient(ts.URL)

	var sess struct {
		Session string `json:"session"`
		Shards  int    `json:"shards"`
		Mode    string `json:"mode"`
	}
	if err := wc.Post(ctx, "/session", map[string]any{"mode": "rewrite"}, &sess); err != nil {
		t.Fatal(err)
	}
	if sess.Session == "" || sess.Shards != 3 || sess.Mode != "rewrite" {
		t.Fatalf("session result = %+v", sess)
	}

	// /exec and /query are one handler: DDL + inserts through /query, a
	// SELECT through /exec.
	var ack wire.Ack
	err := wc.Post(ctx, "/query", wire.Statement{Session: sess.Session,
		Script: "create table pts (k int primary key, v int) shard key (k); insert into pts values (1, 10); insert into pts values (2, 20); insert into pts values (3, 30);"}, &ack)
	if err != nil || !ack.OK {
		t.Fatalf("exec via /query: ack=%+v err=%v", ack, err)
	}
	var q wire.QueryResult
	err = wc.Post(ctx, "/exec", wire.Statement{Session: sess.Session, SQL: "select k, v from pts where k = 2"}, &q)
	if err != nil || q.RowCount != 1 || len(q.Rows) != 1 || q.Rows[0][1] != "20" {
		t.Fatalf("query via /exec = %+v, err %v", q, err)
	}

	// Streaming: header, scattered rows, done trailer.
	cur, err := wc.Stream(ctx, wire.Statement{Session: sess.Session, SQL: "select k, v from pts"})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if len(cur.Header.Cols) != 2 {
		t.Fatalf("stream header cols = %v", cur.Header.Cols)
	}
	rows := 0
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		rows++
	}
	if tr := cur.Trailer(); rows != 3 || tr == nil || !tr.Done || tr.RowCount != 3 {
		t.Fatalf("stream shape: rows=%d trailer=%+v", rows, tr)
	}

	// /stats reports the routing counters.
	var snap shard.StatsSnapshot
	if err := wc.Get(ctx, "/stats", &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Shards != 3 || snap.InsertsRouted != 3 || snap.DDLBroadcast != 1 {
		t.Fatalf("stats = %+v", snap)
	}

	// A stream longer than the router's 32 KiB write buffer, gathered from
	// all three shards: every line whole, every row there, one done trailer.
	const wideRows = 1500
	pad := strings.Repeat("x", 40)
	var script strings.Builder
	script.WriteString("create table wide (k int primary key, v varchar) shard key (k);")
	for k := 0; k < wideRows; k++ {
		fmt.Fprintf(&script, " insert into wide values (%d, '%s%d');", k, pad, k)
	}
	if err := wc.Exec(ctx, sess.Session, script.String()); err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(wire.Statement{Session: sess.Session, SQL: "select k, v from wide"})
	resp, err := http.Post(ts.URL+"/stream", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 32<<10 || !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatalf("stream of %d bytes, want over 32 KiB ending in a newline", len(body))
	}
	lines := bytes.Split(body[:len(body)-1], []byte("\n"))
	seen := map[string]bool{}
	for i, raw := range lines {
		line, err := wire.DecodeStreamLine(raw)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		switch {
		case i == 0 && line.Header == nil, i == len(lines)-1 && line.Trailer == nil:
			t.Fatalf("line %d is %q", i, raw)
		case line.Trailer != nil:
			if tr := line.Trailer; !tr.Done || tr.RowCount != wideRows {
				t.Fatalf("trailer %+v, want done with %d rows", tr, wideRows)
			}
		case line.Row != nil:
			if len(line.Row) != 2 || line.Row[1] != "'"+pad+line.Row[0]+"'" {
				t.Fatalf("line %d is %q", i, raw)
			}
			seen[line.Row[0]] = true
		}
	}
	if len(lines) != wideRows+2 || len(seen) != wideRows {
		t.Fatalf("%d lines, %d distinct rows, want %d rows", len(lines), len(seen), wideRows)
	}
}

// TestRouterReusesShardConnections: a cursor that has seen its trailer must
// hand its connection back, so sequential statements open O(shards)
// connections, not O(statements). The shards end each response a moment
// after its last line, so the end-of-body marker is never already buffered
// when the router reads the trailer — the case in which releasing the cursor
// without draining it costs the connection.
func TestRouterReusesShardConnections(t *testing.T) {
	const shards, statements = 3, 200
	c := startClusterWith(t, shards, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			time.Sleep(time.Millisecond)
		})
	})
	ts := httptest.NewServer(shard.NewHandler(c.router))
	defer ts.Close()
	ctx := context.Background()
	wc := wire.NewClient(ts.URL)
	sess, err := wc.NewSession(ctx, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	script := "create table pts (k int primary key, v int) shard key (k);"
	for k := 0; k < 30; k++ {
		script += fmt.Sprintf(" insert into pts values (%d, %d);", k, k*10)
	}
	if err := wc.Exec(ctx, sess, script); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < statements; i++ {
		sql := "select k, v from pts" // scatter-concat
		if i%2 == 1 {
			sql = "select count(*), sum(v) from pts" // scatter-merge
		}
		res, err := wc.Query(ctx, sess, sql)
		if err != nil {
			t.Fatal(err)
		}
		if want := 30 - 29*(i%2); res.RowCount != want {
			t.Fatalf("statement %d: %d rows, want %d", i, res.RowCount, want)
		}
	}
	if got := c.conns.Load(); got > 2*shards {
		t.Fatalf("%d scatter statements opened %d shard connections, want at most %d", statements, got, 2*shards)
	}
}

// TestRouterForwardsTraceID: the X-Trace-Id of a router request reaches
// every shard the statement contacts, verbatim, and comes back in the
// envelope (or, for /stream, on the response header).
func TestRouterForwardsTraceID(t *testing.T) {
	const id = "t-123"
	var mu sync.Mutex
	seen := map[string][]string{} // "path shard" -> trace headers received
	c := startClusterWith(t, 3, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			key := fmt.Sprintf("%s %d", r.URL.Path, i)
			seen[key] = append(seen[key], r.Header.Get(wire.TraceHeader))
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	})
	ts := httptest.NewServer(shard.NewHandler(c.router))
	defer ts.Close()
	post := func(path string, body any) *http.Response {
		t.Helper()
		buf, _ := json.Marshal(body)
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(wire.TraceHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		return resp
	}
	envelope := func(resp *http.Response) wire.Envelope {
		t.Helper()
		defer resp.Body.Close()
		var env wire.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.TraceID != id {
			t.Errorf("envelope trace_id = %q, want %q", env.TraceID, id)
		}
		return env
	}
	var sess struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(envelope(post("/session", map[string]any{})).Result, &sess); err != nil {
		t.Fatal(err)
	}
	envelope(post("/exec", wire.Statement{Session: sess.Session,
		Script: "create table pts (k int primary key, v int) shard key (k); insert into pts values (1, 10);"}))
	envelope(post("/query", wire.Statement{Session: sess.Session, SQL: "select k, v from pts"}))
	resp := post("/stream", wire.Statement{Session: sess.Session, SQL: "select count(*) from pts"})
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(wire.TraceHeader); got != id {
		t.Errorf("/stream response X-Trace-Id = %q, want %q", got, id)
	}

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		// /session and the broadcast DDL reach every shard once; the /query
		// (scatter-concat) and the /stream (scatter-merge) each open one
		// /stream leg per shard.
		for path, want := range map[string]int{"/session": 1, "/exec": 1, "/stream": 2} {
			got := seen[fmt.Sprintf("%s %d", path, i)]
			if len(got) != want {
				t.Errorf("shard %d saw %d %s requests, want %d", i, len(got), path, want)
			}
			for _, h := range got {
				if h != id {
					t.Errorf("shard %d %s arrived with X-Trace-Id %q, want %q", i, path, h, id)
				}
			}
		}
	}
}

// TestRouterEmptyRowsMatchNode: a /query with no rows says "rows":[] from
// the router, as it does from a node, not null.
func TestRouterEmptyRowsMatchNode(t *testing.T) {
	c := startCluster(t, 2)
	ts := httptest.NewServer(shard.NewHandler(c.router))
	defer ts.Close()
	ctx := context.Background()
	router := wire.NewClient(ts.URL)
	sess, err := router.NewSession(ctx, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Exec(ctx, sess, "create table pts (k int primary key, v int) shard key (k); insert into pts values (1, 10);"); err != nil {
		t.Fatal(err)
	}
	const sql = "select k, v from pts where v > 100"
	var fromRouter, fromNode struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := router.Post(ctx, "/query", wire.Statement{Session: sess, SQL: sql}, &fromRouter); err != nil {
		t.Fatal(err)
	}
	if err := wire.NewClient(c.servers[0].URL).Post(ctx, "/query", wire.Statement{SQL: sql}, &fromNode); err != nil {
		t.Fatal(err)
	}
	if string(fromRouter.Rows) != "[]" || string(fromNode.Rows) != "[]" {
		t.Fatalf(`empty result: router "rows":%s, node "rows":%s; want [] from both`, fromRouter.Rows, fromNode.Rows)
	}
}
