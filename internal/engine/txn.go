// Multi-statement transactions. A Txn pins a store-wide snapshot at Begin
// and buffers INSERTs; queries run inside the transaction read the pinned
// snapshot plus the buffered rows (read-your-writes), and Commit publishes
// every buffered table atomically — no snapshot anywhere can observe half a
// transaction. On durable stores Commit write-ahead-logs the transaction as
// one contiguous Begin/insert/Commit record run with one fsync (the store's
// batch hook, installed by OpenDurable, so every engine view logs), and
// recovery either replays all of it or (when the commit record never
// reached disk) none. INSERT is the only DML the engine has, so
// transactions are append-only and snapshot-isolation write conflicts
// cannot arise.
//
// INSERTs outside BEGIN/COMMIT are transactions too: a script's maximal run
// of them buffers in one implicit Txn (Autocommit) that commits when any
// other statement starts, at script end, or before an error at a later
// statement is returned — one log group and one publish per run.
package engine

import (
	"context"
	"errors"
	"fmt"

	"udfdecorr/internal/ast"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/storage"
)

// Txn is one in-flight transaction. It is single-client state (like a
// session): not safe for concurrent use, though any number of transactions
// may run concurrently with each other and with queries.
type Txn struct {
	eng    *Engine
	snap   *storage.Snapshot
	order  []*storage.Table // first-write order, for deterministic logging
	writes map[*storage.Table][]storage.Row
	done   bool
}

// Begin starts a transaction reading from the current consistent cut.
func (e *Engine) Begin() *Txn {
	return &Txn{eng: e, snap: e.Store.Snapshot(), writes: map[*storage.Table][]storage.Row{}}
}

// Snapshot returns the transaction's pinned read snapshot.
func (t *Txn) Snapshot() *storage.Snapshot { return t.snap }

// Overlay returns the buffered uncommitted rows per table, in the shape
// exec.Ctx.SetSnapshot consumes.
func (t *Txn) Overlay() map[*storage.Table][]storage.Row { return t.writes }

// Pending reports the number of buffered rows.
func (t *Txn) Pending() int {
	n := 0
	for _, rows := range t.writes {
		n += len(rows)
	}
	return n
}

// Insert evaluates an INSERT's value expressions (constants and pure scalar
// expressions; UDF calls inside them read through the transaction snapshot)
// and buffers the row until Commit.
func (t *Txn) Insert(goctx context.Context, ins *ast.InsertStmt) error {
	if t.done {
		return errors.New("engine: transaction already committed or rolled back")
	}
	st, ok := t.eng.Store.Table(ins.Table)
	if !ok {
		return fmt.Errorf("unknown table %q", ins.Table)
	}
	ectx := exec.NewCtxContext(goctx, t.eng.Interp)
	ectx.SetSnapshot(t.snap, t.writes)
	row, err := t.eng.evalInsertRow(ectx, ins)
	if err != nil {
		return err
	}
	if _, buffered := t.writes[st]; !buffered {
		t.order = append(t.order, st)
	}
	t.writes[st] = append(t.writes[st], row)
	return nil
}

// Commit publishes every buffered row atomically. On durable stores the
// transaction is logged (and fsynced per the log's policy) before anything
// becomes visible; a logging error vetoes the whole transaction. Commit
// finishes the transaction either way.
func (t *Txn) Commit() error {
	if t.done {
		return errors.New("engine: transaction already committed or rolled back")
	}
	t.done = true
	if len(t.order) == 0 {
		return nil
	}
	writes := make([]storage.TableWrite, 0, len(t.order))
	for _, st := range t.order {
		writes = append(writes, storage.TableWrite{Table: st, Rows: t.writes[st]})
	}
	return t.eng.Store.AppendBatch(writes)
}

// Rollback discards the buffered writes. Nothing was logged or published,
// so there is nothing to undo.
func (t *Txn) Rollback() {
	t.done = true
	t.writes = nil
	t.order = nil
}

// Autocommit is the implicit transaction around a script's autocommit
// INSERTs (those outside BEGIN/COMMIT). Insert buffers into a Txn begun on
// first use; Commit publishes the run so far, and the caller commits it
// whenever a statement other than such an INSERT starts. Finish ends the
// script: the run commits even when the script stopped with an error at a
// later statement, so the statements before the failing one stay applied.
type Autocommit struct {
	eng *Engine
	txn *Txn
}

// Autocommit starts an empty autocommit run on the engine view.
func (e *Engine) Autocommit() *Autocommit { return &Autocommit{eng: e} }

// Insert adds an autocommit INSERT to the run; reads inside its value
// expressions see the run's earlier rows.
func (a *Autocommit) Insert(ctx context.Context, ins *ast.InsertStmt) error {
	if a.txn == nil {
		a.txn = a.eng.Begin()
	}
	return a.txn.Insert(ctx, ins)
}

// Commit publishes the run (no-op when it is empty) and starts a new one.
func (a *Autocommit) Commit() error {
	if a.txn == nil {
		return nil
	}
	txn := a.txn
	a.txn = nil
	return txn.Commit()
}

// Finish commits the run and returns the script's outcome: err (the
// statement error that stopped the script, or nil) joined with the commit's.
func (a *Autocommit) Finish(err error) error {
	if cerr := a.Commit(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}
