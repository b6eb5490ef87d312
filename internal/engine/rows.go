// Streaming query API: Rows is a pull cursor over an executing plan, and Run
// is the one way to start one (Query materializes a cursor). A Rows lazily
// drives the underlying exec.Node — batch-wise when the plan has a native
// vectorized path, row-wise otherwise — so the first row is visible before
// the last is computed, and a cancelled or timed-out context stops
// execution at the next row/batch boundary with context.Canceled /
// context.DeadlineExceeded.
package engine

import (
	"context"
	"fmt"

	"udfdecorr/internal/exec"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// Rows is a streaming query result cursor:
//
//	p, err := eng.Prepare(sql)
//	if err != nil { ... }
//	rows, err := eng.Run(ctx, p, engine.RunOpts{})
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var k int64
//	    var name string
//	    if err := rows.Scan(&k, &name); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is single-goroutine (like the plan's execution context). It closes
// itself when the stream ends or fails, so resources (and any OnClose hook)
// release promptly even without an explicit Close; Close stays idempotent
// and is still required when abandoning a cursor early.
type Rows struct {
	cols      []string
	rewritten bool
	ectx      *exec.Ctx

	it    exec.Iter      // row path (nil when the plan is batch-native)
	bit   exec.BatchIter // batch path
	batch *exec.Batch    // current batch (owned by bit, valid until next pull)
	bpos  int            // next live index in batch

	cur      storage.Row
	row      storage.Row // the batch path's reused current row
	err      error
	closed   bool
	returned int64 // rows handed to the caller (Next/Materialize)
	onClose  func(err error)

	// EXPLAIN ANALYZE state: the profiler attached to ectx, the plan root it
	// measured, and the plan header (mode/executor/choices) captured at start.
	prof   *exec.Profiler
	root   exec.Node
	header string
}

// RunOpts selects how Run executes a prepared statement.
type RunOpts struct {
	// Txn runs the statement inside an open transaction: it reads the
	// transaction's pinned snapshot plus its own uncommitted rows. Nil pins
	// the store's current consistent cut, so every statement is
	// snapshot-consistent: concurrent commits never surface mid-scan.
	Txn *Txn
	// Analyze enables per-operator instrumentation (EXPLAIN ANALYZE): every
	// operator edge is wrapped with a timing shim, and after the stream ends
	// Rows.Analyze renders the annotated plan tree. Results are identical to
	// an uninstrumented run.
	Analyze bool
}

// Run starts executing a prepared query under ctx, returning a pull cursor.
// No rows are produced until Next is called (pipeline breakers — sorts,
// aggregations — still do their work on the first pull). The Prepared may
// have been compiled by a different engine view over the same catalog and
// store (the shared plan cache path): UDF calls resolve through this
// engine's interpreter via the context.
func (e *Engine) Run(ctx context.Context, p *Prepared, opts RunOpts) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ectx := exec.NewCtxContext(ctx, e.Interp)
	if opts.Txn != nil {
		ectx.SetSnapshot(opts.Txn.snap, opts.Txn.writes)
	} else {
		ectx.SetSnapshot(e.Store.Snapshot(), nil)
	}
	r := &Rows{cols: p.Cols, rewritten: p.Rewritten, ectx: ectx}
	if opts.Analyze {
		r.prof = ectx.EnableProfiling()
		r.root = p.Node
		r.header = p.Describe(e.Mode, e.Profile.Vectorized)
	}
	if _, ok := p.Node.(exec.BatchNode); ok {
		bit, err := exec.OpenBatches(p.Node, ectx)
		if err != nil {
			return nil, err
		}
		r.bit = bit
	} else {
		it, err := exec.OpenRows(p.Node, ectx)
		if err != nil {
			return nil, err
		}
		r.it = it
	}
	return r, nil
}

// RunContext is Run with default options: outside any transaction, without
// instrumentation.
func (e *Engine) RunContext(ctx context.Context, p *Prepared) (*Rows, error) {
	return e.Run(ctx, p, RunOpts{})
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.cols }

// Rewritten reports whether the decorrelated form is executing.
func (r *Rows) Rewritten() bool { return r.rewritten }

// Next advances to the next row, reporting false at end of stream or on
// error (distinguish with Err).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if err := r.ectx.Cancelled(); err != nil {
		r.fail(err)
		return false
	}
	if r.it != nil {
		row, ok, err := r.it.Next()
		if err != nil {
			r.fail(err)
			return false
		}
		if !ok {
			r.finish()
			return false
		}
		r.cur = row
		r.returned++
		return true
	}
	for {
		if r.batch != nil && r.bpos < r.batch.Len() {
			// One row is reused for the whole stream: Row's result is valid
			// only until the next Next, so no row is allocated per result
			// row. It is non-nil even at width 0, as Scan reads nil as no
			// current row.
			if r.row == nil || cap(r.row) < r.batch.Width() {
				r.row = make(storage.Row, r.batch.Width())
			}
			r.row = r.row[:r.batch.Width()]
			p := r.batch.LiveAt(r.bpos)
			for i, col := range r.batch.Cols {
				r.row[i] = col[p]
			}
			r.cur = r.row
			r.bpos++
			r.returned++
			return true
		}
		b, ok, err := r.bit.NextBatch(exec.DefaultBatchSize)
		if err != nil {
			r.fail(err)
			return false
		}
		if !ok {
			r.finish()
			return false
		}
		r.batch, r.bpos = b, 0
	}
}

// Row returns the current row (valid until the next Next call).
func (r *Rows) Row() storage.Row { return r.cur }

// Scan copies the current row into dest, one target per column. Supported
// targets: *sqltypes.Value, *any, *int64, *float64, *string, *bool (numeric
// targets convert between int and float; NULL only scans into *sqltypes.Value
// or *any).
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("engine: Scan called without a current row")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("engine: Scan got %d targets for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		v := r.cur[i]
		switch t := d.(type) {
		case *sqltypes.Value:
			*t = v
		case *any:
			*t = v.Go()
		case *int64:
			iv, ok := v.AsInt()
			if !ok {
				return fmt.Errorf("engine: column %d (%s) is %s, not scannable into int64", i, r.cols[i], v.Kind())
			}
			*t = iv
		case *float64:
			fv, ok := v.AsFloat()
			if !ok {
				return fmt.Errorf("engine: column %d (%s) is %s, not scannable into float64", i, r.cols[i], v.Kind())
			}
			*t = fv
		case *string:
			if v.Kind() != sqltypes.KindString {
				return fmt.Errorf("engine: column %d (%s) is %s, not scannable into string", i, r.cols[i], v.Kind())
			}
			*t = v.Str()
		case *bool:
			if v.Kind() != sqltypes.KindBool {
				return fmt.Errorf("engine: column %d (%s) is %s, not scannable into bool", i, r.cols[i], v.Kind())
			}
			*t = v.Bool()
		default:
			return fmt.Errorf("engine: unsupported Scan target %T for column %d", d, i)
		}
	}
	return nil
}

// Err returns the error that terminated the stream, if any. End of stream
// is not an error; cancellation surfaces as context.Canceled (or
// DeadlineExceeded) from the offending pull.
func (r *Rows) Err() error { return r.err }

// Counters snapshots the execution counters. Parallel workers' counters are
// absorbed when their operator drains or closes, so read after the stream
// finished (Next returned false) or after Close for complete numbers.
func (r *Rows) Counters() exec.Counters { return *r.ectx.Counters }

// RowsReturned reports how many rows the caller has consumed so far (the
// final count once the stream ends). The slow-query log records it.
func (r *Rows) RowsReturned() int64 { return r.returned }

// Analyze renders the annotated per-operator plan tree of a cursor started
// with RunOpts.Analyze ("" otherwise). Call after the stream finished —
// parallel workers' stats are absorbed on close, and operator times keep
// accumulating until then.
func (r *Rows) Analyze() string {
	if r.prof == nil {
		return ""
	}
	return r.header + exec.FormatTree(r.root, r.prof)
}

// OnClose registers a hook invoked exactly once when the cursor closes
// (explicitly, at end of stream, or on error), receiving the terminal error
// (nil on clean completion). The query service uses it to release worker
// slots and the DDL gate as soon as a stream ends.
func (r *Rows) OnClose(fn func(err error)) {
	if r.closed {
		fn(r.err)
		return
	}
	r.onClose = fn
}

// fail records the terminal error and releases resources.
func (r *Rows) fail(err error) {
	r.err = err
	r.cur = nil
	_ = r.Close()
}

// finish marks clean end of stream and releases resources.
func (r *Rows) finish() {
	r.cur = nil
	_ = r.Close()
}

// Close releases the cursor's resources: it stops and drains any parallel
// workers (absorbing their counters) and fires the OnClose hook. Closing a
// cursor abandoned under a cancelled context records the context error so
// Err (and the hook) see the cancellation. Idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var cerr error
	if r.it != nil {
		cerr = r.it.Close()
	} else if r.bit != nil {
		cerr = r.bit.Close()
	}
	if r.err == nil {
		if err := r.ectx.Cancelled(); err != nil {
			r.err = err
		} else if cerr != nil {
			// A failed teardown is a failed query: Err and the OnClose hook
			// must agree with what Close returns.
			r.err = cerr
		}
	}
	if r.onClose != nil {
		fn := r.onClose
		r.onClose = nil
		fn(r.err)
	}
	return cerr
}

// Materialize drains the remaining stream into a Result and closes the
// cursor. On the batch path rows are carved out arena-wise per batch, so
// Query keeps its pre-streaming materialization cost.
func (r *Rows) Materialize() (*Result, error) {
	defer r.Close()
	if r.err != nil {
		return nil, r.err
	}
	var rows []storage.Row
	if r.bit != nil && !r.closed {
		// Remainder of a batch already pulled via Next, if any.
		for r.batch != nil && r.bpos < r.batch.Len() {
			rows = append(rows, r.batch.Row(r.batch.LiveAt(r.bpos)))
			r.bpos++
			r.returned++
		}
		for {
			if err := r.ectx.Cancelled(); err != nil {
				r.fail(err)
				return nil, err
			}
			b, ok, err := r.bit.NextBatch(exec.DefaultBatchSize)
			if err != nil {
				r.fail(err)
				return nil, err
			}
			if !ok {
				break
			}
			r.returned += int64(b.Len())
			rows = b.AppendTo(rows)
		}
	} else {
		for r.Next() {
			rows = append(rows, r.cur)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	// Close before snapshotting counters: parallel operators absorb worker
	// counters on close.
	if err := r.Close(); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Result{Cols: r.cols, Rows: rows, Counters: *r.ectx.Counters, Rewritten: r.rewritten}, nil
}
