package engine_test

// Transaction tests: BEGIN/COMMIT/ROLLBACK through scripts and the Txn API,
// snapshot isolation (read-your-writes inside, invisibility outside until
// commit, all-or-nothing across tables), and the durability contract —
// committed transactions survive restart, uncommitted log suffixes are
// discarded.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"udfdecorr/internal/ast"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/wal"
)

const txnSchema = `
create table acct (id int primary key, bal int);
create table audit (id int primary key, note varchar);
`

func txnEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := e.ExecScript(txnSchema); err != nil {
		t.Fatal(err)
	}
	return e
}

func countOf(t *testing.T, e *engine.Engine, table string) int64 {
	t.Helper()
	res, err := e.Query("select count(*) from " + table)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Rows[0][0].AsInt()
	return n
}

func TestScriptTxnCommit(t *testing.T) {
	e := txnEngine(t)
	err := e.ExecScript(`
begin transaction;
insert into acct values (1, 100);
insert into audit values (1, 'open');
commit;
`)
	if err != nil {
		t.Fatal(err)
	}
	if n := countOf(t, e, "acct"); n != 1 {
		t.Fatalf("acct rows = %d", n)
	}
	if n := countOf(t, e, "audit"); n != 1 {
		t.Fatalf("audit rows = %d", n)
	}
}

func TestScriptTxnRollback(t *testing.T) {
	e := txnEngine(t)
	err := e.ExecScript(`
begin;
insert into acct values (1, 100);
rollback;
insert into acct values (2, 50);
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("select id from acct")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("acct rows = %d", len(res.Rows))
	}
	if id, _ := res.Rows[0][0].AsInt(); id != 2 {
		t.Fatalf("surviving id = %d", id)
	}
}

func TestScriptTxnDanglingBeginRollsBack(t *testing.T) {
	e := txnEngine(t)
	if err := e.ExecScript("begin; insert into acct values (1, 1);"); err != nil {
		t.Fatal(err)
	}
	if n := countOf(t, e, "acct"); n != 0 {
		t.Fatalf("dangling BEGIN published %d rows", n)
	}
}

func TestScriptTxnErrors(t *testing.T) {
	e := txnEngine(t)
	if err := e.ExecScript("commit;"); err == nil {
		t.Fatal("COMMIT without BEGIN must fail")
	}
	if err := e.ExecScript("rollback;"); err == nil {
		t.Fatal("ROLLBACK without BEGIN must fail")
	}
	if err := e.ExecScript("begin; begin;"); err == nil {
		t.Fatal("nested BEGIN must fail")
	}
}

// TestTxnInvisibleUntilCommit: statements run while a Txn is open must not
// see its rows; statements run through the Txn's snapshot+overlay must.
func TestTxnInvisibleUntilCommit(t *testing.T) {
	e := txnEngine(t)
	txn := e.Begin()
	script, err := parser.ParseScript("insert into acct values (1, 100);")
	if err != nil {
		t.Fatal(err)
	}
	ins := script.Inserts[0]
	if err := txn.Insert(context.Background(), ins); err != nil {
		t.Fatal(err)
	}

	// Outside: invisible.
	if n := countOf(t, e, "acct"); n != 0 {
		t.Fatalf("uncommitted row visible outside the txn: %d", n)
	}

	// Inside (snapshot + overlay): read-your-writes.
	p, err := e.Prepare("select count(*) from acct")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Run(context.Background(), p, engine.RunOpts{Txn: txn})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("txn does not see its own write: count=%d", n)
	}

	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := countOf(t, e, "acct"); n != 1 {
		t.Fatalf("committed row missing: %d", n)
	}
}

// TestTxnSnapshotIgnoresConcurrentCommits: a Txn keeps reading its Begin-time
// snapshot even after another writer commits.
func TestTxnSnapshotIgnoresConcurrentCommits(t *testing.T) {
	e := txnEngine(t)
	if err := e.ExecScript("insert into acct values (1, 10);"); err != nil {
		t.Fatal(err)
	}
	txn := e.Begin()
	if err := e.ExecScript("insert into acct values (2, 20);"); err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare("select count(*) from acct")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Run(context.Background(), p, engine.RunOpts{Txn: txn})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("snapshot saw a post-Begin commit: count=%d", n)
	}
	txn.Rollback()
	if n := countOf(t, e, "acct"); n != 2 {
		t.Fatalf("store rows = %d", n)
	}
}

func TestTxnFinishedIsDead(t *testing.T) {
	e := txnEngine(t)
	txn := e.Begin()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("double commit must fail")
	}
	script, _ := parser.ParseScript("insert into acct values (1, 1);")
	if err := txn.Insert(context.Background(), script.Inserts[0]); err == nil {
		t.Fatal("insert after commit must fail")
	}
}

// TestTxnSlotRacingBegins: BEGINs racing on one slot open exactly one
// transaction, and a reader sees either no transaction or that one.
func TestTxnSlotRacingBegins(t *testing.T) {
	e := txnEngine(t)
	begin, err := parser.ParseScript("begin;")
	if err != nil {
		t.Fatal(err)
	}
	var slot engine.TxnSlot
	var won atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e.Exec(context.Background(), begin, &slot) == nil {
				won.Add(1)
			}
			if slot.Txn() == nil {
				t.Error("reader saw no transaction after a BEGIN returned")
			}
		}()
	}
	wg.Wait()
	if n := won.Load(); n != 1 {
		t.Fatalf("%d racing BEGINs succeeded, want 1", n)
	}
	slot.Rollback()
	if slot.Txn() != nil {
		t.Fatal("Rollback left the transaction in the slot")
	}
}

// TestDurableTxnCommitSurvivesRestart: a committed multi-table transaction
// replays whole after reopen.
func TestDurableTxnCommitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	if err := e.ExecScript(txnSchema); err != nil {
		t.Fatal(err)
	}
	err := e.ExecScript(`
begin;
insert into acct values (1, 100);
insert into audit values (1, 'open');
commit;
begin;
insert into acct values (2, 200);
rollback;
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	if n := countOf(t, re, "acct"); n != 1 {
		t.Fatalf("recovered acct rows = %d", n)
	}
	if n := countOf(t, re, "audit"); n != 1 {
		t.Fatalf("recovered audit rows = %d", n)
	}
}

// TestDurableUncommittedSuffixDiscarded: a transaction whose commit record
// never reached the log (crash mid-transaction) must vanish on recovery,
// while everything acknowledged before it survives.
func TestDurableUncommittedSuffixDiscarded(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	if err := e.ExecScript(txnSchema); err != nil {
		t.Fatal(err)
	}
	if err := e.ExecScript("insert into acct values (1, 10);"); err != nil {
		t.Fatal(err)
	}
	if err := e.Durable.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window by appending the transaction's prefix
	// straight to the log without its commit record (the engine never does
	// this — that's the point of the recovery test).
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone}, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendAll(
		wal.BeginRecord(99),
		wal.TxnInsertRecord(99, "acct", [][]sqltypes.Value{
			{sqltypes.NewInt(2), sqltypes.NewInt(20)},
		}),
	); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	res, err := re.Query("select id from acct")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("recovered %d rows; the uncommitted suffix must be discarded", len(res.Rows))
	}
	if id, _ := res.Rows[0][0].AsInt(); id != 1 {
		t.Fatalf("recovered id = %d", id)
	}

	// A fresh transaction on the recovered engine gets a txid past the
	// discarded one's, and a clean commit works.
	if err := re.ExecScript("begin; insert into acct values (3, 30); commit;"); err != nil {
		t.Fatal(err)
	}
	if n := countOf(t, re, "acct"); n != 2 {
		t.Fatalf("post-recovery commit rows = %d", n)
	}
}

// TestExecOrdering: parsed scripts execute in source order across statement
// kinds (table created, row inserted, txn committed — all interleaved).
func TestExecOrdering(t *testing.T) {
	e := engine.New(engine.SYS1, engine.ModeRewrite)
	script, err := parser.ParseScript(`
create table a (x int primary key);
insert into a values (1);
begin;
insert into a values (2);
commit;
create table b (y int primary key);
insert into b values (7);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Stmts) != 7 {
		t.Fatalf("parsed %d ordered statements", len(script.Stmts))
	}
	if _, ok := script.Stmts[2].(*ast.TxnStmt); !ok {
		t.Fatalf("statement 2 is %T, want TxnStmt", script.Stmts[2])
	}
	if err := e.Exec(context.Background(), script, nil); err != nil {
		t.Fatal(err)
	}
	if n := countOf(t, e, "a"); n != 2 {
		t.Fatalf("a rows = %d", n)
	}
	if n := countOf(t, e, "b"); n != 1 {
		t.Fatalf("b rows = %d", n)
	}
}
