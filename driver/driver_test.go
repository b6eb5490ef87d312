package udfsql_test

// The differential corpus replayed through the standard library interface:
// every corpus query must produce the same row multiset through
// sql.DB/sql.Rows — on the row and vectorized executors, at parallelism 1
// and 4 — as the iterative row engine queried directly. Plus driver-level
// context-cancellation semantics (mid-stream cancel returns the context
// error, restores worker slots, leaks no goroutines) and DSN parsing.

import (
	"bytes"
	"context"
	"database/sql"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	udfsql "udfdecorr/driver"
	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/repl"
	"udfdecorr/internal/server"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wal"
)

// canonicalRows is the shared multiset canonicalization (floats at 9
// significant digits; see bench.CanonicalRows).
func canonicalRows(rows [][]string) string { return bench.CanonicalRows(rows) }

// renderValue matches sqltypes.Value.String() for driver.Value payloads.
func renderValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return sqltypes.NewFloat(x).String()
	case string:
		return sqltypes.NewString(x).String()
	case bool:
		return sqltypes.NewBool(x).String()
	default:
		return fmt.Sprintf("%v", x)
	}
}

func engineRowsToStrings(rows []storage.Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		out[i] = cells
	}
	return out
}

func dbQueryStrings(t *testing.T, db *sql.DB, sqlText string) [][]string {
	t.Helper()
	rows, err := db.Query(sqlText)
	if err != nil {
		t.Fatalf("db.Query: %v", err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for rows.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		cells := make([]string, len(cols))
		for i, v := range vals {
			cells[i] = renderValue(v)
		}
		out = append(out, cells)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func newBenchService(t testing.TB) *server.Service {
	t.Helper()
	boot, err := bench.NewEngine(engine.SYS1, engine.ModeRewrite, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.ExecScript(bench.ExtraUDFs); err != nil {
		t.Fatal(err)
	}
	return server.NewServiceFromEngine(boot, server.Options{CacheSize: 64, MaxConcurrent: 8})
}

func TestDriverDifferentialCorpus(t *testing.T) {
	// Shrink morsels so parallelism 4 really fans out over the small
	// fixture instead of clamping to one worker.
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64

	svc := newBenchService(t)
	// Ground truth: the iterative row engine over the same shared data.
	truth := engine.NewShared(svc.Catalog(), svc.Store(), engine.SYS1, engine.ModeIterative)

	combos := []struct {
		name string
		opts udfsql.Options
	}{
		{"row/serial", udfsql.Options{Mode: engine.ModeRewrite, Profile: engine.SYS1}},
		{"vec/serial", udfsql.Options{Mode: engine.ModeRewrite, Profile: engine.SYS1, Vectorized: true, Parallelism: 1}},
		{"vec/parallel4", udfsql.Options{Mode: engine.ModeRewrite, Profile: engine.SYS1, Vectorized: true, Parallelism: 4}},
		{"row/iterative", udfsql.Options{Mode: engine.ModeIterative, Profile: engine.SYS2}},
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			db := sql.OpenDB(udfsql.NewConnector(svc, combo.opts))
			defer db.Close()
			for _, q := range bench.Corpus {
				want, err := truth.Query(q.SQL)
				if err != nil {
					t.Fatalf("%s: ground truth: %v", q.Name, err)
				}
				got := dbQueryStrings(t, db, q.SQL)
				if canonicalRows(got) != canonicalRows(engineRowsToStrings(want.Rows)) {
					t.Fatalf("%s: rows through database/sql differ from engine ground truth", q.Name)
				}
			}
		})
	}
}

func TestDriverStreamingCancel(t *testing.T) {
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64

	boot := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := boot.ExecScript(`create table big (k int, v int);`); err != nil {
		t.Fatal(err)
	}
	const n = 30_000
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 11)}
	}
	boot.MustLoadInts("big", rows)
	svc := server.NewServiceFromEngine(boot, server.Options{CacheSize: 16, MaxConcurrent: 4})

	for _, parallel := range []int{0, 4} {
		parallel := parallel
		t.Run(fmt.Sprintf("parallelism=%d", parallel), func(t *testing.T) {
			opts := udfsql.Options{Mode: engine.ModeRewrite, Profile: engine.SYS1}
			if parallel > 0 {
				opts.Vectorized = true
				opts.Parallelism = parallel
			}
			db := sql.OpenDB(udfsql.NewConnector(svc, opts))
			defer db.Close()

			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			sqlRows, err := db.QueryContext(ctx, "select k from big where v >= 0")
			if err != nil {
				cancel()
				t.Fatal(err)
			}
			if !sqlRows.Next() {
				t.Fatalf("no first row: %v", sqlRows.Err())
			}
			cancel()
			got := 1
			for sqlRows.Next() {
				got++
			}
			if err := sqlRows.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Err() = %v, want context.Canceled", err)
			}
			if got >= n {
				t.Fatalf("scanned all %d rows despite cancellation", got)
			}
			sqlRows.Close()

			// Workers unwind; goroutine count returns to baseline (the
			// database/sql pool goroutines are included in the baseline).
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d running, baseline %d",
						runtime.NumGoroutine(), baseline)
				}
				time.Sleep(5 * time.Millisecond)
			}

			// The connection and service stay usable.
			var count int64
			if err := db.QueryRow("select count(*) from big").Scan(&count); err != nil {
				t.Fatal(err)
			}
			if count != n {
				t.Fatalf("count(*) = %d, want %d", count, n)
			}
		})
	}
	if c := svc.Stats().QueriesCancelled; c < 2 {
		t.Fatalf("queries_cancelled = %d, want >= 2", c)
	}
}

func TestDriverDSNAndRegistry(t *testing.T) {
	svc := newBenchService(t)
	udfsql.RegisterService("dsn-test", svc)

	db, err := sql.Open("udfsql", "dsn-test?mode=costbased&profile=sys2&vectorized=on&parallelism=2&timeout=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var one int64
	if err := db.QueryRow("select count(*) from customer").Scan(&one); err != nil {
		t.Fatal(err)
	}
	if one != int64(bench.SmallConfig().Customers) {
		t.Fatalf("count = %d", one)
	}

	for _, bad := range []string{
		"unregistered",
		"dsn-test?mode=nope",
		"dsn-test?bogus=1",
		"dsn-test?timeout=-3s",
	} {
		db, err := sql.Open("udfsql", bad)
		if err == nil {
			// Open defers driver errors to first use for non-DriverContext
			// drivers; ours surfaces them at Open. Either way Ping must fail.
			if perr := db.Ping(); perr == nil {
				t.Fatalf("DSN %q unexpectedly usable", bad)
			}
			db.Close()
		}
	}
}

func TestDriverExecDDLAndTimeout(t *testing.T) {
	boot := engine.New(engine.SYS1, engine.ModeRewrite)
	svc := server.NewServiceFromEngine(boot, server.DefaultOptions())
	db := sql.OpenDB(udfsql.NewConnector(svc, udfsql.Options{
		Mode: engine.ModeIterative, Profile: engine.SYS1, Timeout: 40 * time.Millisecond}))
	defer db.Close()

	if _, err := db.Exec(`
create table t (k int);
insert into t values (1);
create function spin(int n) returns int as
begin
  int i = 0;
  while i < n
  begin
    i = i + 1;
  end
  return i;
end
`); err != nil {
		t.Fatal(err)
	}
	var k int64
	if err := db.QueryRow("select k from t").Scan(&k); err != nil || k != 1 {
		t.Fatalf("scan after DDL: k=%d err=%v", k, err)
	}
	// The DSN timeout applies per statement.
	err := db.QueryRow("select spin(100000000) from t").Scan(&k)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("runaway UDF through driver returned %v, want context.DeadlineExceeded", err)
	}
}

// TestDriverTransactions: database/sql Tx pins the connection, so BEGIN,
// the statements, and COMMIT/ROLLBACK all address one service session —
// uncommitted rows stay invisible to other connections.
func TestDriverTransactions(t *testing.T) {
	boot := engine.New(engine.SYS1, engine.ModeRewrite)
	svc := server.NewServiceFromEngine(boot, server.DefaultOptions())
	db := sql.OpenDB(udfsql.NewConnector(svc, udfsql.Options{
		Mode: engine.ModeIterative, Profile: engine.SYS1}))
	defer db.Close()

	if _, err := db.Exec("create table t (k int primary key);"); err != nil {
		t.Fatal(err)
	}

	count := func() int64 {
		var n int64
		if err := db.QueryRow("select count(*) from t").Scan(&n); err != nil {
			t.Fatal(err)
		}
		return n
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("insert into t values (1);"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("insert into t values (2);"); err != nil {
		t.Fatal(err)
	}
	// Another connection from the pool must not see the uncommitted rows.
	if n := count(); n != 0 {
		t.Fatalf("uncommitted rows visible outside the tx: %d", n)
	}
	// The tx's own reads see them.
	var n int64
	if err := tx.QueryRow("select count(*) from t").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("tx sees %d of its own rows", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 2 {
		t.Fatalf("rows after commit = %d", n)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("insert into t values (3);"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 2 {
		t.Fatalf("rows after rollback = %d", n)
	}
}

// TestDriverTransactionsDurable: a db.Begin/Commit transaction on a durable
// service reaches the log, so it survives a restart with no checkpoint.
func TestDriverTransactionsDurable(t *testing.T) {
	dir := t.TempDir()
	open := func() (*engine.Engine, *sql.DB) {
		e, err := engine.OpenDurable(dir, engine.SYS1, engine.ModeRewrite,
			engine.DurabilityOptions{Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		svc := server.NewServiceFromEngine(e, server.DefaultOptions())
		return e, sql.OpenDB(udfsql.NewConnector(svc, udfsql.Options{
			Mode: engine.ModeIterative, Profile: engine.SYS1}))
	}
	e, db := open()
	if _, err := db.Exec("create table t (k int primary key);"); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 32; k++ {
		if _, err := tx.Exec(fmt.Sprintf("insert into t values (%d);", k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := e.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	e, db = open()
	defer e.Durable.Close()
	defer db.Close()
	var n int64
	if err := db.QueryRow("select count(*) from t").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 32 {
		t.Fatalf("recovered %d rows, want 32", n)
	}
}

// TestDriverTraceAndExplainAnalyze covers the trace DSN label (each query
// gets a "<label>-<n>" trace ID, visible in the server's slow-query log) and
// the EXPLAIN ANALYZE interception (one "plan" column, per-operator stats).
func TestDriverTraceAndExplainAnalyze(t *testing.T) {
	var logBuf safeBuffer
	boot, err := bench.NewEngine(engine.SYS1, engine.ModeRewrite, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.ExecScript(bench.ExtraUDFs); err != nil {
		t.Fatal(err)
	}
	opts := server.DefaultOptions()
	opts.SlowQueryThreshold = time.Nanosecond // every query logs
	opts.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	svc := server.NewServiceFromEngine(boot, opts)
	udfsql.RegisterService("trace-test", svc)

	db, err := sql.Open("udfsql", "trace-test?trace=myjob")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var n int64
	if err := db.QueryRow("select count(*) from customer").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if logged := logBuf.String(); !strings.Contains(logged, "trace_id=myjob-1") {
		t.Errorf("slow-query log missing driver trace ID:\n%s", logged)
	}

	rows, err := db.Query("EXPLAIN ANALYZE select custkey, lvl(custkey) from customer where custkey < 10")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", cols)
	}
	var plan strings.Builder
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		plan.WriteString(line + "\n")
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rows=", "time="} {
		if !strings.Contains(plan.String(), want) {
			t.Errorf("EXPLAIN ANALYZE plan missing %q:\n%s", want, plan.String())
		}
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer (the slog handler may be
// written from query goroutines while the test reads it).
type safeBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDriverLeaderFollow: a write rejected by a read-only replica whose
// structured leader hint names a registered service is replayed on the
// leader transparently; reads stay on the replica; transactions do not
// redirect; and a hint pointing at another read-only service fails with the
// typed error instead of hopping again (depth-1 guard).
func TestDriverLeaderFollow(t *testing.T) {
	mkSvc := func() *server.Service {
		e := engine.New(engine.SYS1, engine.ModeRewrite)
		if err := e.ExecScript("create table kv (k int primary key, v varchar); insert into kv values (1, 'a');"); err != nil {
			t.Fatal(err)
		}
		return server.NewServiceFromEngine(e, server.DefaultOptions())
	}
	leader, replica := mkSvc(), mkSvc()
	replica.SetFollower("follow-leader", func() repl.Status { return repl.Status{} })
	udfsql.RegisterService("follow-leader", leader)
	udfsql.RegisterService("follow-replica", replica)

	db, err := sql.Open("udfsql", "follow-replica")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One pooled connection so the redirect companion is provably reused.
	db.SetMaxOpenConns(1)

	if _, err := db.Exec("insert into kv values (2, 'b');"); err != nil {
		t.Fatalf("redirected write failed: %v", err)
	}
	if _, err := db.Exec("insert into kv values (3, 'c');"); err != nil {
		t.Fatalf("second redirected write failed: %v", err)
	}

	// The writes landed on the leader; the replica's store is untouched and
	// reads through the DSN still come from it.
	ldb, err := sql.Open("udfsql", "follow-leader")
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	if got := dbQueryStrings(t, ldb, "select count(*) from kv"); got[0][0] != "3" {
		t.Fatalf("leader row count = %v, want 3", got)
	}
	if got := dbQueryStrings(t, db, "select count(*) from kv"); got[0][0] != "1" {
		t.Fatalf("replica read = %v, want the replica's own 1 row", got)
	}

	// Transactions stay typed rejections: BEGIN pins the follower session.
	if _, err := db.Begin(); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("Begin on replica = %v, want ErrReadOnly", err)
	}

	// A hint naming another read-only service must fail typed, not loop.
	second := mkSvc()
	second.SetFollower("follow-replica", func() repl.Status { return repl.Status{} })
	udfsql.RegisterService("follow-second", second)
	sdb, err := sql.Open("udfsql", "follow-second")
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if _, err := sdb.Exec("insert into kv values (9, 'z');"); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("follower-to-follower hint = %v, want ErrReadOnly", err)
	}

	// An unregistered hint surfaces the original rejection.
	third := mkSvc()
	third.SetFollower("http://nowhere:1", func() repl.Status { return repl.Status{} })
	udfsql.RegisterService("follow-third", third)
	tdb, err := sql.Open("udfsql", "follow-third")
	if err != nil {
		t.Fatal(err)
	}
	defer tdb.Close()
	if _, err := tdb.Exec("insert into kv values (9, 'z');"); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("unresolvable hint = %v, want ErrReadOnly", err)
	}
}
