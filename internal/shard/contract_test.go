// The wire contract of both handlers, in one table: every JSON endpoint of
// server.NewHandler and shard.NewHandler answers with the one envelope —
// v == 1, the node's role, a typed code whose HTTP status comes from wire's
// table — with or without an Accept header.
package shard_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/repl"
	"udfdecorr/internal/server"
	"udfdecorr/internal/shard"
	"udfdecorr/internal/wire"
)

type contractCase struct {
	name         string
	base         string // which handler
	method, path string
	body         string
	status       int
	code         wire.Code // "" = success
	role         string
	hint         string // expected leader_hint
}

func TestWireContract(t *testing.T) {
	// A leader with one table, and a follower of it.
	eng := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := eng.ExecScript("create table kv (k int primary key, v varchar); insert into kv values (1, 'a');"); err != nil {
		t.Fatal(err)
	}
	leader := httptest.NewServer(server.NewHandler(server.NewServiceFromEngine(eng, server.DefaultOptions())))
	defer leader.Close()
	fsvc := server.NewService(eng.Cat, eng.Store, server.DefaultOptions())
	fsvc.SetFollower("http://leader:8080", func() repl.Status { return repl.Status{} })
	follower := httptest.NewServer(server.NewHandler(fsvc))
	defer follower.Close()

	// A healthy 2-shard router, and one whose second shard has died; both
	// hold session rs-1, the sharded table pts and the replicated table rep.
	newRouter := func() (*cluster, *httptest.Server) {
		c := startCluster(t, 2)
		ts := httptest.NewServer(shard.NewHandler(c.router))
		t.Cleanup(ts.Close)
		sess, err := c.router.CreateSession(context.Background(), map[string]any{})
		if err != nil || sess.ID != "rs-1" {
			t.Fatalf("router session = %+v, %v", sess, err)
		}
		if err := c.router.Exec(context.Background(), sess, "create table pts (k int primary key, v int) shard key (k); create table rep (k int primary key); insert into pts values (1, 10); insert into pts values (2, 20);"); err != nil {
			t.Fatal(err)
		}
		return c, ts
	}
	_, router := newRouter()
	dead, lame := newRouter()
	dead.servers[1].Close()

	var cases []contractCase
	add := func(c contractCase) { cases = append(cases, c) }
	for _, h := range []struct {
		base, role, session, table string
	}{
		{leader.URL, "leader", "", "kv"},
		{router.URL, "router", "rs-1", "pts"},
	} {
		stmt := func(session, sql string) string {
			b, _ := json.Marshal(wire.Statement{Session: session, SQL: sql})
			return string(b)
		}
		sel := "select k, v from " + h.table
		posts := map[string]string{ // POST endpoint -> a body that succeeds
			"/session":       `{"mode":"iterative"}`,
			"/session/close": `{"session":"gone"}`,
			"/query":         stmt(h.session, sel),
			"/exec":          stmt(h.session, "insert into "+h.table+" values (7, 7);"),
			"/stream":        stmt(h.session, sel),
			"/explain":       stmt(h.session, sel),
		}
		if h.role == "router" {
			// The router has no default session to close idempotently.
			posts["/session/close"] = `{"session":"rs-1-not"}`
		}
		for path, body := range posts {
			if path == "/session/close" && h.role == "router" {
				add(contractCase{"close unknown session", h.base, "POST", path, body, 404, wire.CodeUnknownSession, h.role, ""})
			} else {
				add(contractCase{"success", h.base, "POST", path, body, 200, "", h.role, ""})
			}
			add(contractCase{"wrong method", h.base, "GET", path, "", 400, wire.CodeBadRequest, h.role, ""})
			add(contractCase{"bad body", h.base, "POST", path, `{"session":`, 400, wire.CodeBadRequest, h.role, ""})
		}
		for _, path := range []string{"/query", "/exec", "/stream", "/explain"} {
			add(contractCase{"unknown session", h.base, "POST", path, stmt("nope", sel), 404, wire.CodeUnknownSession, h.role, ""})
		}
		for _, path := range []string{"/stats", "/healthz"} {
			add(contractCase{"success", h.base, "GET", path, "", 200, "", h.role, ""})
			add(contractCase{"wrong method", h.base, "POST", path, "{}", 400, wire.CodeBadRequest, h.role, ""})
		}
		add(contractCase{"bad sql", h.base, "POST", "/query", stmt(h.session, "select nope from nowhere"), 400, wire.CodeBadRequest, h.role, ""})
	}
	kvInsert := `{"script":"insert into kv values (2, 'b');"}`
	ptsScan := `{"session":"rs-1","sql":"select k, v from pts"}`
	ptsOrdered := `{"session":"rs-1","sql":"select k from pts order by v"}`
	cases = append(cases,
		contractCase{"volatile checkpoint", leader.URL, "POST", "/checkpoint", "", 500, wire.CodeInternal, "leader", ""},
		contractCase{"wrong method", leader.URL, "GET", "/checkpoint", "", 400, wire.CodeBadRequest, "leader", ""},
		contractCase{"follower read", follower.URL, "POST", "/query", `{"sql":"select k from kv"}`, 200, "", "follower", ""},
		contractCase{"follower write", follower.URL, "POST", "/exec", kvInsert, 409, wire.CodeReadOnly, "follower", "http://leader:8080"},
		contractCase{"follower write via /query", follower.URL, "POST", "/query", kvInsert, 400, wire.CodeBadRequest, "follower", ""},
		contractCase{"follower txn", follower.URL, "POST", "/exec", `{"script":"begin;"}`, 409, wire.CodeReadOnly, "follower", "http://leader:8080"},
		contractCase{"unshardable", router.URL, "POST", "/query", ptsOrdered, 400, wire.CodeUnshardable, "router", ""},
		contractCase{"unshardable", router.URL, "POST", "/stream", ptsOrdered, 400, wire.CodeUnshardable, "router", ""},
		contractCase{"unshardable script", router.URL, "POST", "/exec", `{"session":"rs-1","script":"begin;"}`, 400, wire.CodeUnshardable, "router", ""},
		contractCase{"dead shard scatter", lame.URL, "POST", "/query", ptsScan, 502, wire.CodeShardUnavailable, "router", ""},
		contractCase{"dead shard scatter", lame.URL, "POST", "/stream", ptsScan, 502, wire.CodeShardUnavailable, "router", ""},
		contractCase{"dead shard broadcast", lame.URL, "POST", "/exec", `{"session":"rs-1","script":"insert into rep values (1);"}`, 502, wire.CodePartialFailure, "router", ""},
		contractCase{"dead shard session", lame.URL, "POST", "/session", `{}`, 502, wire.CodeShardUnavailable, "router", ""},
	)

	for _, tc := range cases {
		for _, accept := range []string{"", "application/vnd.udfd.v1+json", "text/html"} {
			name := strings.TrimPrefix(tc.base, "http://") + " " + tc.role + " " + tc.method + " " + tc.path + " " + tc.name + " accept=" + accept
			req, err := http.NewRequest(tc.method, tc.base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, tc.status, raw)
				continue
			}
			if tc.path == "/stream" && tc.code == "" {
				if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
					t.Errorf("%s: Content-Type %q, want NDJSON outside the envelope", name, ct)
				}
				continue
			}
			var env wire.Envelope
			if err := json.Unmarshal(raw, &env); err != nil || env.V != wire.V1 {
				t.Errorf("%s: not a v1 envelope: %s", name, raw)
				continue
			}
			if env.Role != tc.role || env.LeaderHint != tc.hint {
				t.Errorf("%s: role %q hint %q, want %q %q", name, env.Role, env.LeaderHint, tc.role, tc.hint)
			}
			switch {
			case tc.code == "":
				if env.Error != nil || len(env.Result) == 0 {
					t.Errorf("%s: want a result: %s", name, raw)
				}
			case env.Error == nil || env.Error.Code != tc.code || len(env.Result) != 0:
				t.Errorf("%s: want code %s: %s", name, tc.code, raw)
			case tc.status != tc.code.HTTPStatus():
				t.Errorf("%s: status %d is not the table's %d for %s", name, tc.status, tc.code.HTTPStatus(), tc.code)
			case tc.code == wire.CodeReadOnly && strings.Contains(env.Error.Message, "://"):
				t.Errorf("%s: READ_ONLY message still carries a URL: %q", name, env.Error.Message)
			}
		}
	}
}
