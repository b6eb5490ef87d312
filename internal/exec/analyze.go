// EXPLAIN ANALYZE instrumentation. A Profiler collects per-operator
// execution statistics (rows produced, batches, open count, inclusive wall
// time) keyed by plan Node. Plans are immutable and shared across sessions
// through the plan cache, so the stats live here, in per-execution state
// reachable from the Ctx — never on the nodes themselves.
//
// Instrumentation attaches at the two operator-edge choke points: OpenRows
// (the row path, mirroring how OpenBatches already wraps every batch edge
// with the contract checker) wraps the child's iterator with a timing
// shim when the context is profiling, and costs nothing but a nil check
// when it is not. Parallel operators run their per-worker pipelines under
// forked contexts with private profilers, absorbed by the parent exactly
// like Counters.absorb — worker-side time and rows are reported separately
// (worker_time can legitimately exceed wall time, as in any parallel plan).
package exec

import (
	"sync"
	"time"

	"udfdecorr/internal/storage"
)

// OpStats are one operator's measured execution statistics within a single
// query execution.
type OpStats struct {
	// Opens counts how many times the operator was opened: 1 for most
	// operators, N for the inner side of a correlated Apply driven once per
	// outer row (the "loops" of a Postgres EXPLAIN ANALYZE).
	Opens int64
	// Next counts Next/NextBatch pulls (including the final end-of-stream
	// pull).
	Next int64
	// Rows counts rows emitted to the parent.
	Rows int64
	// Batches counts batches emitted on the vectorized path (0 on the row
	// path).
	Batches int64
	// Time is the inclusive wall time spent inside the operator and its
	// subtree: open (where pipeline breakers do their work) plus every pull.
	Time time.Duration
	// Workers, WorkerRows and WorkerTime are the absorbed per-worker
	// measurements of a parallel operator (Exchange, parallel aggregation):
	// workers launched, rows their pipelines produced before merging, and
	// their summed pipeline time.
	Workers    int64
	WorkerRows int64
	WorkerTime time.Duration
	// SegsRead and Segs count the segments a scan with zone bounds read
	// and the segments its table held, summed over its opens; a parallel
	// operator carries its pipeline scan's counts.
	SegsRead int64
	Segs     int64
}

// Profiler collects OpStats per plan node for one query execution. The map
// is guarded for the lazy insert at operator open; the per-operator counters
// are then owned by the executing goroutine (parallel workers use private
// Profilers, absorbed after they exit).
type Profiler struct {
	mu  sync.Mutex
	ops map[Node]*OpStats
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{ops: map[Node]*OpStats{}}
}

// statsFor returns the live stats cell for n, creating it on first use.
func (p *Profiler) statsFor(n Node) *OpStats {
	p.mu.Lock()
	st := p.ops[n]
	if st == nil {
		st = &OpStats{}
		p.ops[n] = st
	}
	p.mu.Unlock()
	return st
}

// Stats snapshots the collected stats for n (zero value when the operator
// never executed — e.g. the pruned side of a plan).
func (p *Profiler) Stats(n Node) OpStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.ops[n]; ok {
		return *st
	}
	return OpStats{}
}

// absorbWorker folds a finished worker's measurements into p as worker-side
// stats of the operators the worker executed for (each worker pipeline is
// attributed to its owning parallel node). Mirrors Counters.absorb.
func (p *Profiler) absorbWorker(w *Profiler) {
	if p == nil || w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for n, ws := range w.ops {
		st := p.statsFor(n)
		st.Workers++
		st.WorkerRows += ws.Rows + ws.WorkerRows
		st.WorkerTime += ws.Time + ws.WorkerTime
	}
}

// EnableProfiling attaches a fresh per-operator profiler to the context
// (idempotent). Call before opening the plan; every operator edge opened
// under this context is then instrumented.
func (c *Ctx) EnableProfiling() *Profiler {
	if c.prof == nil {
		c.prof = NewProfiler()
	}
	return c.prof
}

// Profiler returns the context's profiler (nil unless EnableProfiling was
// called).
func (c *Ctx) Profiler() *Profiler { return c.prof }

// OpenRows opens n as a row iterator, attaching instrumentation when the
// context is profiling. All operator-edge row opens go through here (the
// row-path counterpart of OpenBatches), so EXPLAIN ANALYZE observes every
// edge exactly once; with profiling off this is a nil check on top of Open.
func OpenRows(n Node, ctx *Ctx) (Iter, error) {
	if ctx.prof == nil {
		return n.Open(ctx)
	}
	st := ctx.prof.statsFor(n)
	st.Opens++
	start := time.Now()
	it, err := n.Open(ctx)
	st.Time += time.Since(start)
	if err != nil {
		return nil, err
	}
	return &profRowIter{in: it, st: st}, nil
}

// profRowIter charges every pull (and the close) to the operator's stats.
// Time is inclusive: a pull's cost includes the whole subtree below.
type profRowIter struct {
	in Iter
	st *OpStats
}

func (p *profRowIter) Next() (storage.Row, bool, error) {
	start := time.Now()
	r, ok, err := p.in.Next()
	p.st.Time += time.Since(start)
	p.st.Next++
	if ok {
		p.st.Rows++
	}
	return r, ok, err
}

func (p *profRowIter) Close() error {
	start := time.Now()
	err := p.in.Close()
	p.st.Time += time.Since(start)
	return err
}

// profBatchIter is the vectorized counterpart of profRowIter.
type profBatchIter struct {
	in BatchIter
	st *OpStats
}

func (p *profBatchIter) NextBatch(max int) (*Batch, bool, error) {
	start := time.Now()
	b, ok, err := p.in.NextBatch(max)
	p.st.Time += time.Since(start)
	p.st.Next++
	if ok {
		p.st.Batches++
		p.st.Rows += int64(b.Len())
	}
	return b, ok, err
}

func (p *profBatchIter) Close() error {
	start := time.Now()
	err := p.in.Close()
	p.st.Time += time.Since(start)
	return err
}
