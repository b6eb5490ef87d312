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
// of them buffers in one implicit Txn (an autocommit run) that commits when
// any other statement starts, at script end, or before an error at a later
// statement is returned — one log group and one publish per run.
//
// BEGIN/COMMIT/ROLLBACK statements keep their transaction in a TxnSlot: a
// query-service session owns one, so a transaction spans requests, while
// Exec with a nil slot makes it script-local.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

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

// errDDLInTxn refuses CREATE statements while a transaction is open: DDL is
// not transactional, so it could neither roll back nor wait for COMMIT.
var errDDLInTxn = errors.New("cannot run DDL inside a transaction")

// TxnSlot holds the transaction a BEGIN opened until its COMMIT or ROLLBACK,
// across Exec calls. It is safe for concurrent use; the zero value is an
// empty slot.
type TxnSlot struct {
	mu  sync.Mutex
	txn *Txn
	// ObserveCommit, when set, receives the duration of every COMMIT through
	// the slot.
	ObserveCommit func(time.Duration)
}

// Txn returns the open transaction, or nil.
func (s *TxnSlot) Txn() *Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn
}

// Rollback discards the open transaction, if any.
func (s *TxnSlot) Rollback() {
	if txn := s.take(); txn != nil {
		txn.Rollback()
	}
}

// take detaches and returns the open transaction (nil if none).
func (s *TxnSlot) take() *Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	txn := s.txn
	s.txn = nil
	return txn
}

// control executes BEGIN, COMMIT or ROLLBACK against the slot. BEGIN is an
// atomic check-and-set, so two racing BEGINs cannot both win.
func (s *TxnSlot) control(e *Engine, kind ast.TxnKind) error {
	switch kind {
	case ast.TxnBegin:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn != nil {
			return errors.New("BEGIN: transaction already in progress")
		}
		s.txn = e.Begin()
		return nil
	case ast.TxnCommit:
		txn := s.take()
		if txn == nil {
			return errors.New("COMMIT: no transaction in progress")
		}
		start := time.Now()
		err := txn.Commit()
		if s.ObserveCommit != nil {
			s.ObserveCommit(time.Since(start))
		}
		return err
	default:
		txn := s.take()
		if txn == nil {
			return errors.New("ROLLBACK: no transaction in progress")
		}
		txn.Rollback()
		return nil
	}
}

// autocommit is the implicit transaction around a script's autocommit
// INSERTs (those outside BEGIN/COMMIT). insert buffers into a Txn begun on
// first use; commit publishes the run so far, and Exec commits it whenever
// a statement other than such an INSERT starts. finish ends the script: the
// run commits even when the script stopped with an error at a later
// statement, so the statements before the failing one stay applied.
type autocommit struct {
	eng *Engine
	txn *Txn
}

// insert adds an autocommit INSERT to the run; reads inside its value
// expressions see the run's earlier rows.
func (a *autocommit) insert(ctx context.Context, ins *ast.InsertStmt) error {
	if a.txn == nil {
		a.txn = a.eng.Begin()
	}
	return a.txn.Insert(ctx, ins)
}

// commit publishes the run (no-op when it is empty) and starts a new one.
func (a *autocommit) commit() error {
	if a.txn == nil {
		return nil
	}
	txn := a.txn
	a.txn = nil
	return txn.Commit()
}

// finish commits the run and returns the script's outcome: err (the
// statement error that stopped the script, or nil) joined with the commit's.
func (a *autocommit) finish(err error) error {
	if cerr := a.commit(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}
