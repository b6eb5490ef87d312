package server_test

// Service-level transaction and concurrent-write tests: session
// BEGIN/COMMIT/ROLLBACK semantics across requests, snapshot isolation
// between sessions, DDL rejection inside transactions (one rule wherever the
// BEGIN came from), the commit-latency metric, and the narrowed DDL gate
// (concurrent INSERT writers making progress alongside readers).

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
)

func mustExec(t *testing.T, svc *server.Service, sess *server.Session, script string) {
	t.Helper()
	if err := svc.Exec(sess, script); err != nil {
		t.Fatalf("exec %q: %v", script, err)
	}
}

func queryInt(t *testing.T, svc *server.Service, sess *server.Session, sql string) int64 {
	t.Helper()
	res, err := svc.Query(sess, sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("query %q: unexpected shape %v", sql, res.Rows)
	}
	n, _ := res.Rows[0][0].AsInt()
	return n
}

func TestSessionTransactionAcrossRequests(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	writer := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	observer := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	mustExec(t, svc, writer, "create table txacct (id int primary key, bal int);")

	// Statements of one transaction arrive as separate requests.
	mustExec(t, svc, writer, "begin;")
	mustExec(t, svc, writer, "insert into txacct values (1, 100);")
	mustExec(t, svc, writer, "insert into txacct values (2, 200);")

	if n := queryInt(t, svc, observer, "select count(*) from txacct"); n != 0 {
		t.Fatalf("observer sees %d uncommitted rows", n)
	}
	// The writer's own queries read through the transaction.
	if n := queryInt(t, svc, writer, "select count(*) from txacct"); n != 2 {
		t.Fatalf("writer sees %d of its own rows", n)
	}

	mustExec(t, svc, writer, "commit;")
	if n := queryInt(t, svc, observer, "select count(*) from txacct"); n != 2 {
		t.Fatalf("observer sees %d rows after commit", n)
	}
}

func TestSessionTransactionRollbackAndErrors(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	mustExec(t, svc, sess, "create table txkv (k int primary key, v int);")

	mustExec(t, svc, sess, "begin; insert into txkv values (1, 1);")
	mustExec(t, svc, sess, "rollback;")
	if n := queryInt(t, svc, sess, "select count(*) from txkv"); n != 0 {
		t.Fatalf("rolled-back rows visible: %d", n)
	}

	if err := svc.Exec(sess, "commit;"); err == nil {
		t.Fatal("COMMIT without BEGIN must fail")
	}
	mustExec(t, svc, sess, "begin;")
	if err := svc.Exec(sess, "begin;"); err == nil {
		t.Fatal("nested BEGIN must fail")
	}
	// DDL inside a transaction is rejected, and the transaction survives.
	if err := svc.Exec(sess, "create table nope (x int primary key);"); err == nil {
		t.Fatal("DDL inside a transaction must fail")
	}
	mustExec(t, svc, sess, "insert into txkv values (9, 9);")
	mustExec(t, svc, sess, "commit;")
	if n := queryInt(t, svc, sess, "select count(*) from txkv"); n != 1 {
		t.Fatalf("rows after commit = %d", n)
	}
}

func TestCloseSessionRollsBackOpenTransaction(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	mustExec(t, svc, sess, "create table txgone (k int primary key);")
	mustExec(t, svc, sess, "begin; insert into txgone values (1);")
	svc.CloseSession(sess.ID)

	other := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	if n := queryInt(t, svc, other, "select count(*) from txgone"); n != 0 {
		t.Fatalf("closed session leaked %d uncommitted rows", n)
	}
}

// newEmptyService builds a service over an empty volatile engine.
func newEmptyService() *server.Service {
	return server.NewServiceFromEngine(engine.New(engine.SYS1, engine.ModeIterative), server.DefaultOptions())
}

// TestSessionTransactionBesideDDL: a BEGIN in a script that also creates a
// table opens the session's transaction, as it does in a DDL-free script,
// so the next request's COMMIT publishes the buffered row.
func TestSessionTransactionBesideDDL(t *testing.T) {
	svc := newEmptyService()
	sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	observer := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	mustExec(t, svc, sess, "create table x (k int); begin; insert into x values (1);")
	if n := queryInt(t, svc, observer, "select count(*) from x"); n != 0 {
		t.Fatalf("observer sees %d uncommitted rows", n)
	}
	mustExec(t, svc, sess, "commit;")
	if n := queryInt(t, svc, observer, "select count(*) from x"); n != 1 {
		t.Fatalf("rows after commit = %d, want 1", n)
	}
}

// TestDDLRefusedInsideTransaction: DDL after a BEGIN is refused with one
// error whether the BEGIN came in an earlier request or earlier in the same
// script, nothing is created, and the transaction stays open.
func TestDDLRefusedInsideTransaction(t *testing.T) {
	svc := newEmptyService()
	earlier := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	mustExec(t, svc, earlier, "begin;")
	same := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	for name, run := range map[string]func() error{
		"begin in an earlier request": func() error { return svc.Exec(earlier, "create table y (k int);") },
		"begin in the same script":    func() error { return svc.Exec(same, "begin; create table y (k int);") },
	} {
		if err := run(); err == nil || err.Error() != "cannot run DDL inside a transaction" {
			t.Errorf("%s: got %v, want the DDL-inside-a-transaction error", name, err)
		}
	}
	if _, ok := svc.Catalog().Table("y"); ok {
		t.Fatal("refused DDL created table y")
	}
	mustExec(t, svc, earlier, "rollback;")
	mustExec(t, svc, same, "rollback;")
}

// TestTxnCommitMetricCountsSessionCommits: every session COMMIT, in a
// DDL-free script or beside DDL, adds one observation to the commit-latency
// histogram; autocommit runs add none.
func TestTxnCommitMetricCountsSessionCommits(t *testing.T) {
	svc := newEmptyService()
	sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	commits := func() string {
		t.Helper()
		var b bytes.Buffer
		if err := svc.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if n, ok := strings.CutPrefix(line, "udfd_txn_commit_duration_seconds_count "); ok {
				return n
			}
		}
		t.Fatal("udfd_txn_commit_duration_seconds_count missing from /metrics")
		return ""
	}
	steps := []struct{ script, want string }{
		{"create table m (k int);", "0"},
		{"begin; insert into m values (1); commit;", "1"},
		{"insert into m values (2);", "1"},
		{"create table m2 (k int); begin; insert into m values (3);", "1"},
		{"commit;", "2"},
	}
	for _, st := range steps {
		mustExec(t, svc, sess, st.script)
		if got := commits(); got != st.want {
			t.Fatalf("after %q: commit count = %s, want %s", st.script, got, st.want)
		}
	}
}

// TestConcurrentWritersAndReaders exercises the narrowed DDL gate under
// -race: INSERT scripts run on the shared side, so writers proceed
// concurrently with readers, and every acknowledged row is visible at the
// end.
func TestConcurrentWritersAndReaders(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	setup := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	mustExec(t, svc, setup, "create table txload (k int primary key, v varchar);")

	const (
		writers = 4
		batches = 25
		rows    = 8
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
			defer svc.CloseSession(sess.ID)
			for b := 0; b < batches; b++ {
				var script string
				for i := 0; i < rows; i++ {
					k := w*1_000_000 + b*rows + i
					script += "insert into txload values (" + strconv.Itoa(k) + ", 'x');\n"
				}
				if err := svc.Exec(sess, script); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
			defer svc.CloseSession(sess.ID)
			prev := int64(-1)
			for i := 0; i < 50; i++ {
				n := queryInt(t, svc, sess, "select count(*) from txload")
				if n < prev {
					t.Errorf("row count went backwards: %d -> %d", prev, n)
					return
				}
				prev = n
			}
		}()
	}
	wg.Wait()
	if n := queryInt(t, svc, setup, "select count(*) from txload"); n != writers*batches*rows {
		t.Fatalf("final rows = %d, want %d", n, writers*batches*rows)
	}
}

// TestConcurrentSessionTransactions: independent sessions committing
// transactions concurrently all land, atomically.
func TestConcurrentSessionTransactions(t *testing.T) {
	svc := newBenchService(t, server.DefaultOptions())
	setup := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	mustExec(t, svc, setup, "create table txa (k int primary key);")
	mustExec(t, svc, setup, "create table txb (k int primary key);")

	const sessions = 6
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
			defer svc.CloseSession(sess.ID)
			script := fmt.Sprintf("begin; insert into txa values (%d); insert into txb values (%d); commit;", s, s)
			if err := svc.Exec(sess, script); err != nil {
				t.Errorf("session %d: %v", s, err)
			}
		}(s)
	}
	wg.Wait()
	na := queryInt(t, svc, setup, "select count(*) from txa")
	nb := queryInt(t, svc, setup, "select count(*) from txb")
	if na != sessions || nb != sessions {
		t.Fatalf("committed rows a=%d b=%d, want %d each", na, nb, sessions)
	}
}
