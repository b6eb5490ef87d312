// Package exec implements the physical execution engine: volcano-style
// iterators (scans, index lookups, filters, projections, nested-loop and
// hash joins, hash aggregation, sorting), a correlated Apply operator
// for iterative plans, a compiled expression evaluator, and the UDF
// interpreter that provides the paper's baseline of tuple-at-a-time UDF
// invocation.
package exec

import (
	"context"
	"fmt"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// Counters collects execution metrics used by the experiment harness.
type Counters struct {
	UDFCalls      int64 // scalar UDF invocations
	QueryExecs    int64 // embedded query executions inside UDFs
	PlanBuilds    int64 // embedded query plan constructions
	RowsProcessed int64
	Morsels       int64 // morsels executed by parallel pipeline workers
	Workers       int64 // parallel workers launched
}

// absorb adds a parallel worker's counters into c.
func (c *Counters) absorb(o *Counters) {
	c.UDFCalls += o.UDFCalls
	c.QueryExecs += o.QueryExecs
	c.PlanBuilds += o.PlanBuilds
	c.RowsProcessed += o.RowsProcessed
	c.Morsels += o.Morsels
	c.Workers += o.Workers
}

// Ctx is the per-query execution context: a stack of variable bindings
// (UDF locals, bind parameters, correlation values) divided into frames,
// the UDF interpreter, the UDF call depth, and metric counters. A Ctx is
// not safe for concurrent use; concurrent queries each get their own Ctx
// (all cross-query state — catalog, storage, cached plans — lives behind
// locks in those packages).
//
// The bindings of every frame live in one slice, innermost last, and
// frames holds where each frame starts in it. A frame holds a handful of
// names (a call's parameters and locals, an Apply's correlation values),
// so a lookup scans from the top down to the innermost call frame instead
// of hashing the name, and pushing or popping a frame moves an offset: a
// call allocates nothing once the slices have grown to the deepest frame.
type Ctx struct {
	vars     []binding
	frames   []int // frames[i] is the index in vars where frame i starts
	base     int   // the innermost UDF-call frame, where name lookup stops
	Interp   *Interp
	Counters *Counters
	depth    int // current UDF call nesting (bounded by maxCallDepth)

	// goctx carries the caller's cancellation signal; done caches its Done
	// channel (nil for non-cancellable contexts, keeping Cancelled a single
	// nil check on the hot path). Operators poll Cancelled at their pull
	// boundaries: per row on the volcano path, per NextBatch on the
	// vectorized path, and per statement in the UDF interpreter.
	goctx context.Context
	done  <-chan struct{}

	// snap pins the storage versions every scan in this execution reads
	// (including embedded statements inside UDFs, which share the Ctx), so a
	// statement sees one consistent cut no matter how many appends publish
	// while it runs. nil falls back to each table's current version.
	// overlay carries a transaction's uncommitted rows per table
	// (read-your-writes); nil outside explicit transactions.
	snap    *storage.Snapshot
	overlay map[*storage.Table][]storage.Row

	// prof collects per-operator execution stats for EXPLAIN ANALYZE; nil
	// (the default) keeps instrumentation entirely off the execution path.
	prof *Profiler

	// pipe is the shared state of the parallel pipeline a worker runs (its
	// scan's morsel source, its probes' join tables); nil outside workers.
	pipe *pipeline
}

// NewCtx returns a non-cancellable context with one (global) frame.
func NewCtx(interp *Interp) *Ctx {
	return NewCtxContext(context.Background(), interp)
}

// NewCtxContext returns a context whose execution is cancelled when goctx
// is: operators return goctx.Err() (unwrapped, so errors.Is sees
// context.Canceled / DeadlineExceeded) at the next pull boundary.
func NewCtxContext(goctx context.Context, interp *Interp) *Ctx {
	if goctx == nil {
		goctx = context.Background()
	}
	return &Ctx{
		frames:   []int{0},
		Interp:   interp,
		Counters: &Counters{},
		goctx:    goctx,
		done:     goctx.Done(),
	}
}

// SetSnapshot pins the storage snapshot (and optional transaction overlay)
// scans resolve through. Call before opening the plan.
func (c *Ctx) SetSnapshot(sn *storage.Snapshot, overlay map[*storage.Table][]storage.Row) {
	c.snap = sn
	c.overlay = overlay
}

// TableVersion resolves a table to the pinned version plus any uncommitted
// transaction-local rows layered on top of it.
func (c *Ctx) TableVersion(t *storage.Table) (*storage.TableVersion, []storage.Row) {
	var ov []storage.Row
	if c.overlay != nil {
		ov = c.overlay[t]
	}
	if c.snap != nil {
		return c.snap.Version(t), ov
	}
	return t.Version(), ov
}

// TableRows resolves a table to the rows a scan in this execution reads:
// the pinned version's rows, plus the transaction overlay when one is
// active (the combined slice is only materialized on that rare path).
func (c *Ctx) TableRows(t *storage.Table) []storage.Row {
	v, ov := c.TableVersion(t)
	base := v.Rows()
	if len(ov) == 0 {
		return base
	}
	out := make([]storage.Row, 0, len(base)+len(ov))
	out = append(out, base...)
	return append(out, ov...)
}

// Context returns the Go context the execution was started under.
func (c *Ctx) Context() context.Context {
	if c.goctx == nil {
		return context.Background()
	}
	return c.goctx
}

// Cancelled reports the cancellation error once the context is done, nil
// while execution may proceed. It is cheap enough to poll per row.
func (c *Ctx) Cancelled() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.goctx.Err()
	default:
		return nil
	}
}

// binding is one variable of a frame.
type binding struct {
	name string
	val  sqltypes.Value
}

// forkWorker clones the context for a worker of pipeline p: a private copy
// of the variable stack (so correlation parameters visible at fork time keep
// resolving, while UDF calls inside the worker push frames without racing
// the parent) and private counters (absorbed by the parent when the
// parallel operator finishes). The interpreter is shared; its cross-query
// state is internally locked.
func (c *Ctx) forkWorker(p *pipeline) *Ctx {
	w := &Ctx{vars: append([]binding(nil), c.vars...), frames: append([]int(nil), c.frames...),
		base: c.base, Interp: c.Interp, Counters: &Counters{}, depth: c.depth,
		goctx: c.goctx, done: c.done, snap: c.snap, overlay: c.overlay, pipe: p}
	if c.prof != nil {
		// A private profiler per worker: stats merge into the parent's via
		// absorbWorker alongside Counters.absorb, never racing the parent.
		w.prof = NewProfiler()
	}
	return w
}

// Push adds a new variable frame (entering a UDF call or apply scope).
func (c *Ctx) Push() {
	c.frames = append(c.frames, len(c.vars))
}

// Pop removes the top frame, clearing its bindings so that the strings
// they hold can be freed.
func (c *Ctx) Pop() {
	if len(c.frames) <= 1 {
		panic("exec: frame stack underflow")
	}
	top := c.frames[len(c.frames)-1]
	clear(c.vars[top:])
	c.vars = c.vars[:top]
	c.frames = c.frames[:len(c.frames)-1]
}

// pushCall adds the frame of a UDF call and makes it the scope boundary:
// a body sees its own parameters and locals, never its caller's (scope is
// lexical), while Apply and subquery frames pushed above it stay visible.
// It returns the previous boundary, which popCall restores.
func (c *Ctx) pushCall() int {
	prev := c.base
	c.Push()
	c.base = len(c.frames) - 1
	return prev
}

// popCall removes a call frame and restores the previous boundary.
func (c *Ctx) popCall(prev int) {
	c.Pop()
	c.base = prev
}

// Depth reports the frame stack depth.
func (c *Ctx) Depth() int { return len(c.frames) }

// lookup returns the index in vars of the innermost binding of name at or
// above vars[from], or -1.
func (c *Ctx) lookup(name string, from int) int {
	for i := len(c.vars) - 1; i >= from; i-- {
		if c.vars[i].name == name {
			return i
		}
	}
	return -1
}

// Get looks a variable up, innermost frame first, down to the innermost
// UDF-call frame.
func (c *Ctx) Get(name string) (sqltypes.Value, bool) {
	if i := c.lookup(name, c.frames[c.base]); i >= 0 {
		return c.vars[i].val, true
	}
	return sqltypes.Null, false
}

// Set defines (or overwrites) a variable in the top frame.
func (c *Ctx) Set(name string, v sqltypes.Value) {
	if i := c.lookup(name, c.frames[len(c.frames)-1]); i >= 0 {
		c.vars[i].val = v
		return
	}
	c.vars = append(c.vars, binding{name, v})
}

// Assign overwrites the innermost binding of name visible to Get, or
// defines it in the top frame when absent (assignment to an undeclared
// variable).
func (c *Ctx) Assign(name string, v sqltypes.Value) {
	if i := c.lookup(name, c.frames[c.base]); i >= 0 {
		c.vars[i].val = v
		return
	}
	c.vars = append(c.vars, binding{name, v})
}

// Node is a physical plan node. A Node is immutable after construction and
// can be opened many times (each Open yields an independent iterator).
type Node interface {
	Schema() []algebra.Column
	Open(ctx *Ctx) (Iter, error)
}

// Iter is a row iterator. Next returns (row, true, nil) per row and
// (nil, false, nil) at end of stream.
type Iter interface {
	Next() (storage.Row, bool, error)
	Close() error
}

// Drain materializes all rows of a node under the given context. Nodes with
// a native batch path are drained batch-wise.
func Drain(n Node, ctx *Ctx) ([]storage.Row, error) {
	if _, ok := n.(BatchNode); ok {
		return DrainBatches(n, ctx)
	}
	it, err := OpenRows(n, ctx)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []storage.Row
	for {
		if err := ctx.Cancelled(); err != nil {
			return nil, err
		}
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// sliceIter iterates a materialized row slice.
type sliceIter struct {
	rows []storage.Row
	pos  int
}

func (s *sliceIter) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *sliceIter) Close() error { return nil }

// errIter is an iterator that fails immediately (used by deferred errors).
type errIter struct{ err error }

func (e *errIter) Next() (storage.Row, bool, error) { return nil, false, e.err }
func (e *errIter) Close() error                     { return nil }

// Errorf builds an execution error.
func Errorf(format string, args ...any) error {
	return fmt.Errorf("exec: %s", fmt.Sprintf(format, args...))
}
