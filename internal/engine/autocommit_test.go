package engine_test

// Autocommit grouping: a script's maximal run of INSERTs outside
// BEGIN/COMMIT commits as one transaction — one BEGIN/TXN-INSERT/COMMIT log
// group with one fsync, one publish — and a run cut short by an error or a
// cancellation still commits the statements before it. Engine.Load commits
// through the same group.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
	"udfdecorr/internal/wal"
)

// openAlwaysSync opens a durable engine that fsyncs every log append, with
// a kv table already created.
func openAlwaysSync(t *testing.T, dir string) *engine.Engine {
	t.Helper()
	e, err := engine.OpenDurable(dir, engine.SYS1, engine.ModeRewrite,
		engine.DurabilityOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	if _, ok := e.Cat.Table("kv"); !ok {
		if err := e.ExecScript("create table kv (k int primary key, v int);"); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// execScript parses src and runs it through Exec under ctx with
// script-local transactions.
func execScript(ctx context.Context, e *engine.Engine, src string) error {
	script, err := parser.ParseScript(src)
	if err != nil {
		return err
	}
	return e.Exec(ctx, script, nil)
}

// countFsyncs counts WAL log-file fsyncs until the test ends.
func countFsyncs(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	wal.SetFsyncObserver(func(time.Duration) { n.Add(1) })
	t.Cleanup(func() { wal.SetFsyncObserver(nil) })
	return &n
}

// insertScript renders INSERTs into kv for keys lo..hi.
func insertScript(lo, hi int) string {
	var b strings.Builder
	for k := lo; k <= hi; k++ {
		fmt.Fprintf(&b, "insert into kv values (%d, %d);\n", k, k)
	}
	return b.String()
}

// logTypes closes the engine's log and reads back the record types in log
// order.
func logTypes(t *testing.T, e *engine.Engine, dir string) []byte {
	t.Helper()
	if err := e.Durable.Close(); err != nil {
		t.Fatal(err)
	}
	var types []byte
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone}, func(rec wal.Record) error {
		types = append(types, rec.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return types
}

func assertTypes(t *testing.T, got []byte, want ...byte) {
	t.Helper()
	if string(got) != string(want) {
		t.Fatalf("log record types = %v, want %v", got, want)
	}
}

func TestAutocommitScriptIsOneLogGroup(t *testing.T) {
	dir := t.TempDir()
	e := openAlwaysSync(t, dir)
	before := e.Durable.Stats().WALRecords
	fsyncs := countFsyncs(t)

	if err := e.ExecScript(insertScript(1, 32)); err != nil {
		t.Fatal(err)
	}
	if n := fsyncs.Load(); n != 1 {
		t.Fatalf("32-INSERT script: %d fsyncs, want 1", n)
	}
	if n := e.Durable.Stats().WALRecords - before; n != 3 {
		t.Fatalf("32-INSERT script: %d wal records, want 3 (begin, txn-insert, commit)", n)
	}
	if n := countOf(t, e, "kv"); n != 32 {
		t.Fatalf("kv rows = %d, want 32", n)
	}
	assertTypes(t, logTypes(t, e, dir), wal.RecDDL, wal.RecBegin, wal.RecTxnInsert, wal.RecCommit)
}

func TestAutocommitDDLSplitsRuns(t *testing.T) {
	dir := t.TempDir()
	e := openAlwaysSync(t, dir)
	err := e.ExecScript(insertScript(1, 4) +
		"create table other (x int primary key);\n" +
		insertScript(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if n := countOf(t, e, "kv"); n != 8 {
		t.Fatalf("kv rows = %d, want 8", n)
	}
	assertTypes(t, logTypes(t, e, dir),
		wal.RecDDL,
		wal.RecBegin, wal.RecTxnInsert, wal.RecCommit,
		wal.RecDDL,
		wal.RecBegin, wal.RecTxnInsert, wal.RecCommit)
}

// assertPrefixDurable checks that exactly keys 1..16 are visible, and still
// are after the log is closed (no checkpoint) and the directory reopened.
func assertPrefixDurable(t *testing.T, e *engine.Engine, dir string) {
	t.Helper()
	if n := countOf(t, e, "kv"); n != 16 {
		t.Fatalf("kv rows = %d, want the 16 statements before the failure", n)
	}
	if err := e.Durable.Close(); err != nil {
		t.Fatal(err)
	}
	re := openAlwaysSync(t, dir)
	defer re.Durable.Close()
	res, err := re.Query("select count(*), min(k), max(k) from kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]); got != "[16 1 16]" {
		t.Fatalf("recovered count/min/max = %s, want [16 1 16]", got)
	}
}

func TestAutocommitErrorCommitsPrefix(t *testing.T) {
	dir := t.TempDir()
	e := openAlwaysSync(t, dir)
	script := insertScript(1, 16) + "insert into kv values (17);\n" + insertScript(18, 32)
	err := e.ExecScript(script)
	if err == nil || !strings.Contains(err.Error(), "1 values for 2 columns") {
		t.Fatalf("arity error at statement 17: got %v", err)
	}
	assertPrefixDurable(t, e, dir)
}

// cancelAtCheck cancels itself on its n-th Err call. Scripts check Err once
// before each statement, so n = 17 cancels between statements 16 and 17.
type cancelAtCheck struct {
	context.Context
	cancel func()
	left   int
}

func (c *cancelAtCheck) Err() error {
	c.left--
	if c.left == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

func TestAutocommitCancelBetweenStatementsCommitsPrefix(t *testing.T) {
	dir := t.TempDir()
	e := openAlwaysSync(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := execScript(&cancelAtCheck{Context: ctx, cancel: cancel, left: 17}, e, insertScript(1, 32))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel before statement 17: got %v, want context.Canceled", err)
	}
	assertPrefixDurable(t, e, dir)
}

func TestAutocommitCancelInsideStatementCommitsPrefix(t *testing.T) {
	dir := t.TempDir()
	e := openAlwaysSync(t, dir)
	if err := e.ExecScript(`create function spin(int n) returns int as
begin
  int i = 0;
  while i < n
  begin
    i = i + 1;
  end
  return i;
end`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	script := insertScript(1, 16) + "insert into kv values (17, spin(1000000000));\n" + insertScript(18, 32)
	if err := execScript(ctx, e, script); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout inside statement 17: got %v, want context.DeadlineExceeded", err)
	}
	assertPrefixDurable(t, e, dir)
}

// TestAutocommitReadsOwnRun: a UDF in an INSERT's values counting the same
// table sees the earlier rows of its run, exactly as it did when every
// INSERT published on its own.
func TestAutocommitReadsOwnRun(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var e *engine.Engine
			if durable {
				e = openAlwaysSync(t, t.TempDir())
				defer e.Durable.Close()
			} else {
				e = engine.New(engine.SYS1, engine.ModeRewrite)
				if err := e.ExecScript("create table kv (k int primary key, v int);"); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.ExecScript(`create function cnt(int d) returns int as
begin
  int n;
  select count(*) into :n from kv;
  return n;
end`); err != nil {
				t.Fatal(err)
			}
			var script strings.Builder
			for k := 1; k <= 5; k++ {
				fmt.Fprintf(&script, "insert into kv values (%d, cnt(0));\n", k)
			}
			script.WriteString("create table other (x int primary key);\n")
			for k := 6; k <= 8; k++ {
				fmt.Fprintf(&script, "insert into kv values (%d, cnt(0));\n", k)
			}
			if err := e.ExecScript(script.String()); err != nil {
				t.Fatal(err)
			}
			res, err := e.Query("select k, v from kv order by k")
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range res.Rows {
				if k, v := row[0].Int(), row[1].Int(); v != k-1 {
					t.Fatalf("row %d: k=%d v=%d, want v=%d (the rows before it)", i, k, v, k-1)
				}
			}
			if len(res.Rows) != 8 {
				t.Fatalf("kv rows = %d, want 8", len(res.Rows))
			}
		})
	}
}

// TestAutocommitLogFailureVetoesRun: when the log cannot take the group,
// no row of the run — or of a loaded batch — becomes visible.
func TestAutocommitLogFailureVetoesRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(e *engine.Engine) error
	}{
		{"insert_run", func(e *engine.Engine) error { return e.ExecScript(insertScript(1, 8)) }},
		{"load", func(e *engine.Engine) error { return e.Load("kv", kvRows(1, 8)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := openAlwaysSync(t, t.TempDir())
			if err := e.Durable.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tc.write(e); err == nil {
				t.Fatal("write on a closed log must fail")
			}
			if n := countOf(t, e, "kv"); n != 0 {
				t.Fatalf("vetoed write published %d rows", n)
			}
		})
	}
}

// kvRows renders rows (k, k) of kv for keys lo..hi.
func kvRows(lo, hi int) []storage.Row {
	rows := make([]storage.Row, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		rows = append(rows, storage.Row{sqltypes.NewInt(int64(k)), sqltypes.NewInt(int64(k))})
	}
	return rows
}

// TestLoadIsOneLogGroup: Engine.Load commits through the store's batch
// hook like any transaction — one BEGIN/TXN-INSERT/COMMIT group and one
// fsync, no legacy RecInsert — whether it runs on the durable engine or on
// a session view over its store, and the rows survive a reopen with no
// checkpoint in between.
func TestLoadIsOneLogGroup(t *testing.T) {
	for _, view := range []string{"durable", "shared"} {
		t.Run(view, func(t *testing.T) {
			dir := t.TempDir()
			e := openAlwaysSync(t, dir)
			loader := e
			if view == "shared" {
				loader = engine.NewShared(e.Cat, e.Store, engine.SYS1, engine.ModeRewrite)
			}
			fsyncs := countFsyncs(t)
			if err := loader.Load("kv", kvRows(1, 1000)); err != nil {
				t.Fatal(err)
			}
			if n := fsyncs.Load(); n != 1 {
				t.Fatalf("1000-row Load: %d fsyncs, want 1", n)
			}
			if n := countOf(t, e, "kv"); n != 1000 {
				t.Fatalf("kv rows = %d, want 1000", n)
			}
			assertTypes(t, logTypes(t, e, dir), wal.RecDDL, wal.RecBegin, wal.RecTxnInsert, wal.RecCommit)

			re := openAlwaysSync(t, dir)
			defer re.Durable.Close()
			if n := countOf(t, re, "kv"); n != 1000 {
				t.Fatalf("kv rows after reopen = %d, want 1000", n)
			}
		})
	}
}
