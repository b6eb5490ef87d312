package server_test

// Service-level durability: the query service over a durable engine must
// persist concurrent Exec mutations, expose wal_bytes/checkpoints/
// recovered_records in /stats, checkpoint through the HTTP API, and come
// back with identical data after a restart.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
	"udfdecorr/internal/wal"
	"udfdecorr/internal/wire"
)

func openDurableService(t *testing.T, dir string) (*server.Service, *engine.Engine) {
	t.Helper()
	e, err := engine.OpenDurable(dir, engine.SYS1, engine.ModeRewrite,
		engine.DurabilityOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	return server.NewServiceFromEngine(e, server.DefaultOptions()), e
}

func TestServiceDurableRestart(t *testing.T) {
	dir := t.TempDir()
	svc, e := openDurableService(t, dir)
	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	if err := svc.Exec(sess, "create table kv (k int primary key, v varchar);"); err != nil {
		t.Fatal(err)
	}

	// Concurrent writers through the service: the DDL gate serializes them,
	// and every acknowledged script must survive the restart.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
			for i := 0; i < 25; i++ {
				script := fmt.Sprintf("insert into kv values (%d, 'w%d-%d');", w*1000+i, w, i)
				if err := svc.Exec(s, script); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := svc.Stats()
	if st.Durability == nil {
		t.Fatal("stats missing durability block")
	}
	if st.Durability.WALBytes == 0 {
		t.Fatal("wal_bytes is zero after 100 inserts")
	}

	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Durability.Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}

	if err := e.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, _ := openDurableService(t, dir)
	sess2 := svc2.CreateSession(engine.SYS1, engine.ModeRewrite)
	res, err := svc2.Query(sess2, "select count(*) from kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 100 {
		t.Fatalf("recovered %d rows, want 100", got)
	}
	if got := svc2.Stats().Durability.RecoveredRecords; got == 0 {
		t.Fatal("recovered_records is zero after restart with data")
	}
}

// kvInserts renders one INSERT into kv (k int, v varchar) per key lo..hi.
func kvInserts(lo, hi int) string {
	var b strings.Builder
	for k := lo; k <= hi; k++ {
		fmt.Fprintf(&b, "insert into kv values (%d, 'v%d');\n", k, k)
	}
	return b.String()
}

// TestServiceTransactionsDurableWithoutCheckpoint: a transaction committed
// through a session is logged — both as one BEGIN…COMMIT script and as
// BEGIN, INSERTs and COMMIT sent as separate requests — so it survives a
// restart with no checkpoint in between.
func TestServiceTransactionsDurableWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	svc, e := openDurableService(t, dir)
	setup := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	mustExec(t, svc, setup, "create table kv (k int primary key, v varchar);")

	one := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	mustExec(t, svc, one, "begin;\n"+kvInserts(1, 32)+"commit;")
	split := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	mustExec(t, svc, split, "begin;")
	mustExec(t, svc, split, kvInserts(33, 64))
	mustExec(t, svc, split, "commit;")

	if err := e.Durable.Close(); err != nil {
		t.Fatal(err)
	}
	svc2, e2 := openDurableService(t, dir)
	defer e2.Durable.Close()
	sess := svc2.CreateSession(engine.SYS1, engine.ModeRewrite)
	if n := queryInt(t, svc2, sess, "select count(*) from kv"); n != 64 {
		t.Fatalf("recovered %d rows, want 64", n)
	}
}

// TestServiceAutocommitScriptIsOneLogGroup: a session's script of 32
// autocommit INSERTs is logged as one BEGIN/TXN-INSERT/COMMIT group.
func TestServiceAutocommitScriptIsOneLogGroup(t *testing.T) {
	svc, e := openDurableService(t, t.TempDir())
	defer e.Durable.Close()
	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	mustExec(t, svc, sess, "create table kv (k int primary key, v varchar);")
	before := svc.Stats().Durability.WALRecords
	mustExec(t, svc, sess, kvInserts(1, 32))
	if n := svc.Stats().Durability.WALRecords - before; n != 3 {
		t.Fatalf("32-INSERT script: %d wal records, want 3", n)
	}
	if n := queryInt(t, svc, sess, "select count(*) from kv"); n != 32 {
		t.Fatalf("kv rows = %d, want 32", n)
	}
}

func TestServiceVolatileCheckpointRejected(t *testing.T) {
	svc := server.NewServiceFromEngine(engine.New(engine.SYS1, engine.ModeRewrite), server.DefaultOptions())
	if err := svc.Checkpoint(); err == nil {
		t.Fatal("expected volatile checkpoint to fail")
	}
}

func TestHTTPCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	svc, _ := openDurableService(t, dir)
	ts := httptest.NewServer(server.NewHandler(svc))
	defer ts.Close()

	c := wire.NewClient(ts.URL)
	if err := c.Exec(context.Background(), "", "create table kv (k int primary key, v varchar); insert into kv values (1,'a');"); err != nil {
		t.Fatalf("/exec: %v", err)
	}
	var out struct {
		Checkpoints int64 `json:"checkpoints"`
	}
	if err := c.Post(context.Background(), "/checkpoint", nil, &out); err != nil {
		t.Fatalf("/checkpoint: %v", err)
	}
	if out.Checkpoints != 1 {
		t.Fatalf("checkpoints = %v, want 1", out.Checkpoints)
	}

	// /stats must carry the durability block.
	var st server.Stats
	if err := c.Get(context.Background(), "/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil || st.Durability.Checkpoints != 1 {
		t.Fatalf("stats durability block wrong: %+v", st.Durability)
	}
}
