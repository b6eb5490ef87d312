package server_test

// Replication at the service layer: the read-only gate on follower roles
// (writes/DDL/txns rejected with a redirect hint, queries untouched), the
// /healthz readiness surface, the repl gauges on /metrics, and the leader's
// /repl endpoints mounted on a durable service's handler.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/repl"
	"udfdecorr/internal/server"
	"udfdecorr/internal/wire"
)

// followerService builds an in-memory service flipped into follower mode
// with a fixed replication status.
func followerService(t *testing.T, st repl.Status) *server.Service {
	t.Helper()
	e := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := e.ExecScript("create table kv (k int primary key, v varchar); insert into kv values (1, 'a');"); err != nil {
		t.Fatal(err)
	}
	svc := server.NewService(e.Cat, e.Store, server.DefaultOptions())
	svc.SetFollower("http://leader:8080", func() repl.Status { return st })
	return svc
}

func TestFollowerRejectsWritesServesReads(t *testing.T) {
	svc := followerService(t, repl.Status{LagRecords: 0})
	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)

	// Reads work.
	res, err := svc.Query(sess, "select k from kv;")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("replica read failed: %v", err)
	}
	// Writes, DDL, transactions and index DDL are rejected; the leader's
	// address travels in the typed error's field, not in its text.
	for _, script := range []string{
		"insert into kv values (2, 'b');",
		"create table other (k int primary key);",
		"begin;",
	} {
		err := svc.Exec(sess, script)
		if !errors.Is(err, server.ErrReadOnly) {
			t.Fatalf("Exec(%q) on replica: err=%v, want ErrReadOnly", script, err)
		}
		var ro *server.ReadOnlyError
		if !errors.As(err, &ro) || ro.Leader != "http://leader:8080" {
			t.Fatalf("read-only error lacks the structured leader: %v", err)
		}
		if strings.Contains(err.Error(), "://") {
			t.Fatalf("read-only message still carries a URL: %v", err)
		}
	}
	if err := svc.CreateIndex("kv", "v"); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("CreateIndex on replica: err=%v, want ErrReadOnly", err)
	}
	if got := svc.Role(); got != server.RoleFollower {
		t.Fatalf("Role() = %q, want follower", got)
	}

	// Promotion flips the gate open.
	if !svc.Promote() {
		t.Fatal("Promote() reported no flip")
	}
	if svc.Promote() {
		t.Fatal("second Promote() reported a flip")
	}
	if err := svc.Exec(sess, "insert into kv values (2, 'b');"); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if got := svc.Role(); got != server.RoleLeader {
		t.Fatalf("Role() after promotion = %q, want leader", got)
	}
}

func TestHealthzReportsRoleAndLag(t *testing.T) {
	svc := followerService(t, repl.Status{
		Segment: 3, Offset: 128, AppliedRecords: 42, LagRecords: 7, LeaderURL: "http://leader:8080",
	})
	srv := httptest.NewServer(server.NewHandler(svc))
	defer srv.Close()

	var hz struct {
		Role    string `json:"role"`
		Healthy bool   `json:"healthy"`
		Repl    struct {
			Segment        uint64 `json:"segment"`
			AppliedRecords int64  `json:"applied_records"`
			LagRecords     int64  `json:"lag_records"`
		} `json:"repl"`
	}
	if err := wire.NewClient(srv.URL).Get(context.Background(), "/healthz", &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Role != "follower" || !hz.Healthy {
		t.Fatalf("healthz = role %q healthy %v, want follower/true", hz.Role, hz.Healthy)
	}
	if hz.Repl.Segment != 3 || hz.Repl.AppliedRecords != 42 || hz.Repl.LagRecords != 7 {
		t.Fatalf("healthz repl = %+v", hz.Repl)
	}

	// The replication gauges are on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	text := string(body)
	if !strings.Contains(text, "udfd_repl_lag_records 7") {
		t.Fatalf("metrics missing lag gauge:\n%s", text)
	}
	if !strings.Contains(text, "udfd_repl_applied_total 42") {
		t.Fatalf("metrics missing applied counter:\n%s", text)
	}
}

func TestHealthzDeadTailIs503(t *testing.T) {
	svc := followerService(t, repl.Status{Fatal: true, LastError: "fell behind"})
	srv := httptest.NewServer(server.NewHandler(svc))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead tail: status %d, want 503", resp.StatusCode)
	}
}

// TestDurableHandlerServesReplEndpoints: any durable service is a valid
// replication source — /repl/wal streams what the WAL holds and /healthz
// reports the leader role with its durable tip.
func TestDurableHandlerServesReplEndpoints(t *testing.T) {
	dir := t.TempDir()
	svc, _ := openDurableService(t, dir)
	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	if err := svc.Exec(sess, "create table kv (k int primary key, v varchar); insert into kv values (1, 'a');"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewHandler(svc))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/repl/wal?segment=1&offset=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/repl/wal status %d, want 200", resp.StatusCode)
	}
	data, _ := io.ReadAll(resp.Body)
	if len(data) == 0 {
		t.Fatal("/repl/wal returned no frames for a log with records")
	}
	if resp.Header.Get("X-Repl-Tip-Records") == "" {
		t.Fatal("/repl/wal missing tip-records header")
	}

	var hz struct {
		Role string `json:"role"`
		WAL  struct {
			Records int64 `json:"records"`
		} `json:"wal"`
	}
	if err := wire.NewClient(srv.URL).Get(context.Background(), "/healthz", &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Role != "leader" {
		t.Fatalf("durable service role = %q, want leader", hz.Role)
	}
	if hz.WAL.Records == 0 {
		t.Fatal("healthz WAL position shows no records after writes")
	}
}
