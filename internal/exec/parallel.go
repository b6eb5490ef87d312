// Morsel-driven intra-query parallelism for the vectorized path (after
// Leis et al.): a scan is partitioned into row-range morsels handed out by
// an atomic dispenser, and a pipeline — a BatchScan under filters,
// projections and hash-join probes — runs on N workers. Each worker opens
// the plan's own batch operators through OpenBatches under a forked
// context, so it carries private evaluators, counters and profiler.
// Pipeline breakers sit above (Exchange merges worker output into one
// stream) or are parallelism-aware themselves (parallelGroupBy builds
// per-worker partial group tables and merges them). Plans stay immutable:
// the state workers share — the scan's morsel source and each probe's join
// table — is a pipeline built inside OpenBatch and reached through the
// worker's Ctx.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/storage"
)

// MorselRows is the number of rows per morsel: a few batches' worth, so the
// dispenser is touched rarely but small tables still split across workers.
// It is a variable (not a constant) so tests can shrink it to force
// multi-worker execution over small fixtures; production code never writes
// it after init.
var MorselRows = 4 * DefaultBatchSize

// morselSource hands out row-ordinal ranges of a scanned table to scan
// iterators. Ordinals [0, segRows) address the pinned version's column
// segments (relying on the storage invariant that every segment but the
// last holds exactly storage.SegmentRows rows); ordinals past segRows
// address the transaction overlay, scanned after the published data. The
// morsels cut the ranges the scan reads (keptSpans: every segment its zone
// bounds keep, then the overlay) into pieces of at most size rows; a
// serial scan reads a private source whose morsels are the ranges whole.
type morselSource struct {
	segs    []*storage.Segment
	segRows int // total rows across segs
	overlay []storage.Row
	morsels []span
	next    int64 // atomic cursor into morsels
}

// newMorselSource returns a source over the version and overlay that scan
// reads in ctx, handing out morsels of size rows; size 0 makes each range
// the scan reads one morsel. owner is the operator whose EXPLAIN ANALYZE
// stats show the scan's segment counts.
func newMorselSource(ctx *Ctx, owner Node, scan *BatchScan, size int) *morselSource {
	ver, overlay := ctx.TableVersion(scan.Tab)
	storage.NoteZeroCopyScan()
	m := &morselSource{segs: ver.Segments(), segRows: ver.RowCount(), overlay: overlay}
	total := m.segRows + len(overlay)
	kept, _ := keptSpans(ctx, owner, scan.Bounds, m.segs, total)
	if size == 0 {
		m.morsels = kept
		return m
	}
	m.morsels = make([]span, 0, len(kept)+total/size)
	for _, sp := range kept {
		for lo := sp.lo; lo < sp.hi; lo += size {
			m.morsels = append(m.morsels, span{lo, min(lo+size, sp.hi)})
		}
	}
	return m
}

// grab claims the next morsel; ok=false when the table is exhausted.
func (m *morselSource) grab() (lo, hi int, ok bool) {
	i := atomic.AddInt64(&m.next, 1) - 1
	if i >= int64(len(m.morsels)) {
		return 0, 0, false
	}
	return m.morsels[i].lo, m.morsels[i].hi, true
}

// morselCount returns how many morsels the source will hand out.
func (m *morselSource) morselCount() int { return len(m.morsels) }

// pipeline is the per-execution state a parallel operator shares with its
// workers: the morsel source of the pipeline's scan and the join table of
// each probe, with one partition per worker. newPipeline builds it once on
// the parent context; afterwards only the source's cursor changes.
type pipeline struct {
	root   Node // the serial pipeline each worker opens
	degree int
	scan   *BatchScan
	src    *morselSource
	joins  map[*BatchHashJoin]*joinTable
}

// newPipeline builds the shared state of the pipeline rooted at n, which
// pipelineShape accepts: it walks probe sides down to the scan, building
// each probe's join table on the way. owner is the parallel operator that
// runs the pipeline.
func newPipeline(ctx *Ctx, owner, n Node, degree int) (*pipeline, error) {
	p := &pipeline{root: n, degree: degree, joins: map[*BatchHashJoin]*joinTable{}}
	for {
		switch x := n.(type) {
		case *BatchScan:
			p.scan, p.src = x, newMorselSource(ctx, owner, x, MorselRows)
			return p, nil
		case *BatchHashJoin:
			jt, err := buildJoinTable(ctx, x, degree)
			if err != nil {
				return nil, err
			}
			p.joins[x] = jt
		}
		n = PlanChildren(n)[0] // a filter's or projection's input, a probe's left side
	}
}

// workers returns the worker count for this execution: the degree, clamped
// to the available morsels so tiny tables do not spawn idle goroutines
// (and always at least one).
func (p *pipeline) workers() int {
	return max(min(p.degree, p.src.morselCount()), 1)
}

// pipelineShape reports whether workers can run n — a BatchScan under
// filters, non-DISTINCT projections and hash-join probes (probe side in
// the pipeline, build side shared) — and renders it for EXPLAIN, bottom
// up: scan(t)→probe(leftouter)→project. Anything else — pipeline
// breakers, row operators, correlated applies — ends the pipeline.
func pipelineShape(n Node) (string, bool) {
	var in Node
	var step string
	switch x := n.(type) {
	case *BatchScan:
		return "scan(" + x.Tab.Meta.Name + ")" + zoneNote(x.Bounds), true
	case *BatchFilter:
		in, step = x.Child, "filter"
	case *BatchProject:
		if x.Dedup {
			return "", false // DISTINCT needs a global seen-set
		}
		in, step = x.Child, "project"
	case *BatchHashJoin:
		in, step = x.L, "probe("+x.Kind.String()+")"
	default:
		return "", false
	}
	s, ok := pipelineShape(in)
	return s + "→" + step, ok
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

// workerSet is one execution's running workers.
type workerSet struct {
	parent   *Ctx
	wctxs    []*Ctx
	errs     []error // per worker, written before the worker exits
	wg       sync.WaitGroup
	absorbed bool
}

// startWorkers launches p.workers() goroutines. Each opens the pipeline
// through OpenBatches under its own forked context, attributes the stream
// to owner when profiling, and hands it to run. A panic in a worker becomes
// that worker's error.
func startWorkers(ctx *Ctx, p *pipeline, owner Node, run func(w int, wctx *Ctx, it BatchIter) error) *workerSet {
	n := p.workers()
	ctx.Counters.Workers += int64(n)
	ws := &workerSet{parent: ctx, wctxs: make([]*Ctx, n), errs: make([]error, n)}
	for w := range ws.wctxs {
		wctx := ctx.forkWorker(p)
		ws.wctxs[w] = wctx
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					ws.errs[w] = Errorf("parallel worker panic: %v", r)
				}
			}()
			it, err := OpenBatches(p.root, wctx)
			if err != nil {
				ws.errs[w] = err
				return
			}
			if wctx.prof != nil {
				// Attribute the worker's whole pipeline to the parallel
				// operator; the private profiler merges into the parent's
				// as worker stats.
				it = &profBatchIter{in: it, st: wctx.prof.statsFor(owner)}
			}
			defer it.Close()
			ws.errs[w] = run(w, wctx, it)
		}()
	}
	return ws
}

// absorb folds the exited workers' counters and profiles into the parent
// (once) and returns the first worker error. Call it on the parent's
// goroutine after every worker has exited.
func (ws *workerSet) absorb() error {
	if !ws.absorbed {
		ws.absorbed = true
		for _, w := range ws.wctxs {
			ws.parent.Counters.absorb(w.Counters)
			if ws.parent.prof != nil {
				ws.parent.prof.absorbWorker(w.prof)
			}
		}
	}
	for _, err := range ws.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Exchange
// ---------------------------------------------------------------------------

// Exchange runs a pipeline on N workers and merges their output batches
// into one stream. Row order across workers is nondeterministic (parents
// that need an order sort above the exchange).
type Exchange struct {
	Degree int
	child  Node // the serial pipeline; pipelineShape accepts it
}

// Schema implements Node.
func (e *Exchange) Schema() []algebra.Column { return e.child.Schema() }

// Open implements Node.
func (e *Exchange) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(e, ctx) }

// Describe names the pipeline for EXPLAIN.
func (e *Exchange) Describe() string {
	shape, _ := pipelineShape(e.child)
	return fmt.Sprintf("Exchange(%s, degree=%d)", shape, e.Degree)
}

// OpenBatch implements BatchNode: it builds the shared pipeline state,
// starts the workers, and returns the merging iterator.
func (e *Exchange) OpenBatch(ctx *Ctx) (BatchIter, error) {
	p, err := newPipeline(ctx, e, e.child, e.Degree)
	if err != nil {
		return nil, err
	}
	x := &exchangeIter{
		out:  make(chan []storage.Row, p.workers()),
		done: make(chan struct{}),
		feed: rowFeedIter{width: len(e.Schema())},
	}
	x.ws = startWorkers(ctx, p, e, func(_ int, _ *Ctx, it BatchIter) error {
		for {
			select {
			case <-x.done:
				return nil
			default:
			}
			b, ok, err := it.NextBatch(DefaultBatchSize)
			if err != nil || !ok {
				return err
			}
			// Batches are owned by the worker's iterator: materialize
			// before crossing the channel.
			select {
			case x.out <- b.AppendTo(make([]storage.Row, 0, b.Len())):
			case <-x.done:
				return nil
			}
		}
	})
	go func() {
		x.ws.wg.Wait()
		close(x.out)
	}()
	return x, nil
}

// exchangeIter merges worker row chunks into batches of the requested size.
type exchangeIter struct {
	ws      *workerSet
	out     chan []storage.Row
	done    chan struct{}
	feed    rowFeedIter // pivots the current chunk
	stopped bool
}

func (x *exchangeIter) NextBatch(max int) (*Batch, bool, error) {
	for {
		if b, ok, _ := x.feed.NextBatch(max); ok {
			return b, true, nil
		}
		chunk, ok := <-x.out
		if !ok {
			if err := x.ws.absorb(); err != nil {
				return nil, false, err
			}
			// Workers can also exit by observing cancellation before
			// producing an error (e.g. parked on a send when the parent
			// closed done): report the cancellation, not a silent EOS.
			return nil, false, x.ws.parent.Cancelled()
		}
		x.feed.rows, x.feed.pos = chunk, 0
	}
}

func (x *exchangeIter) Close() error {
	if !x.stopped {
		x.stopped = true
		close(x.done)
	}
	// Unblock any worker parked on a send, then wait for the channel close
	// (the goroutine that observes the workers' exit) before absorbing
	// counters.
	for range x.out {
	}
	x.ws.absorb()
	return nil
}

// ---------------------------------------------------------------------------
// parallelGroupBy
// ---------------------------------------------------------------------------

// parallelGroupBy runs a BatchGroupBy's input pipeline on N workers, each
// filling a partial group table, and merges the tables after all workers
// finish. Only mergeable (builtin non-DISTINCT) aggregates are lowered onto
// it. With no keys it is parallel scalar aggregation (one output row even
// for empty input).
type parallelGroupBy struct {
	g      *BatchGroupBy
	degree int
}

// Schema implements Node.
func (pg *parallelGroupBy) Schema() []algebra.Column { return pg.g.schema }

// Open implements Node.
func (pg *parallelGroupBy) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(pg, ctx) }

// Describe names the operator for EXPLAIN.
func (pg *parallelGroupBy) Describe() string {
	kind := "ParallelGroupBy"
	if len(pg.g.Keys) == 0 {
		kind = "ParallelScalarAgg"
	}
	shape, _ := pipelineShape(pg.g.Child)
	return fmt.Sprintf("%s(%s, degree=%d)", kind, shape, pg.degree)
}

// OpenBatch implements BatchNode. Aggregation is a pipeline breaker, so the
// whole parallel phase runs here and the returned iterator serves the
// materialized groups.
func (pg *parallelGroupBy) OpenBatch(ctx *Ctx) (BatchIter, error) {
	p, err := newPipeline(ctx, pg, pg.g.Child, pg.degree)
	if err != nil {
		return nil, err
	}
	tables := make([]*groupTable, p.workers())
	ws := startWorkers(ctx, p, pg, func(w int, wctx *Ctx, it BatchIter) (err error) {
		tables[w], err = pg.g.aggregate(wctx, it)
		return err
	})
	ws.wg.Wait()
	if err := ws.absorb(); err != nil {
		return nil, err
	}
	final := tables[0]
	for _, gt := range tables[1:] {
		if err := final.absorb(gt); err != nil {
			return nil, err
		}
	}
	return pg.g.feed(ctx, final)
}

// ---------------------------------------------------------------------------
// Parallelize
// ---------------------------------------------------------------------------

func allMergeable(aggs []*AggSpec) bool {
	for _, a := range aggs {
		if !a.Mergeable() {
			return false
		}
	}
	return true
}

// Parallelize rewrites a vectorized physical plan for intra-query
// parallelism with the given degree: pipelines become Exchange operators,
// and grouped/scalar aggregations over a pipeline become parallel
// aggregations with per-worker partial states. Operators without a
// parallel-safe decomposition keep their serial form (notably LIMIT, whose
// first-N semantics would pick a nondeterministic subset, and DISTINCT
// projections, which need a global seen-set); the rewrite then recurses
// into their order-insensitive children where possible. Returns the
// (possibly rewritten) root, one EXPLAIN note per parallel operator
// introduced, and whether anything was rewritten.
func Parallelize(n Node, degree int) (Node, []string, bool) {
	if degree <= 1 {
		return n, nil, false
	}
	return parallelize(n, degree)
}

func parallelize(n Node, degree int) (Node, []string, bool) {
	if _, ok := pipelineShape(n); ok {
		ex := &Exchange{Degree: degree, child: n}
		return ex, []string{ex.Describe()}, true
	}
	switch x := n.(type) {
	case *BatchGroupBy:
		if _, ok := pipelineShape(x.Child); ok && allMergeable(x.Aggs) {
			pg := &parallelGroupBy{g: x, degree: degree}
			return pg, []string{pg.Describe()}, true
		}
		if child, notes, ok := parallelize(x.Child, degree); ok {
			cp := *x
			cp.Child = child
			return &cp, notes, true
		}
	case *BatchHashJoin:
		// Not a pipeline as a whole (e.g. an aggregation below the probe):
		// parallelize the two inputs independently.
		l, lNotes, lok := parallelize(x.L, degree)
		r, rNotes, rok := parallelize(x.R, degree)
		if lok || rok {
			cp := *x
			cp.L, cp.R = l, r
			return &cp, append(lNotes, rNotes...), true
		}
	case *BatchFilter:
		if child, notes, ok := parallelize(x.Child, degree); ok {
			cp := *x
			cp.Child = child
			return &cp, notes, true
		}
	case *BatchProject:
		if child, notes, ok := parallelize(x.Child, degree); ok {
			cp := *x
			cp.Child = child
			return &cp, notes, true
		}
	case *Sort:
		if child, notes, ok := parallelize(x.Child, degree); ok {
			cp := *x
			cp.Child = child
			return &cp, notes, true
		}
	case *UnionAll:
		l, lNotes, lok := parallelize(x.L, degree)
		r, rNotes, rok := parallelize(x.R, degree)
		if lok || rok {
			cp := *x
			cp.L, cp.R = l, r
			return &cp, append(lNotes, rNotes...), true
		}
	}
	return n, nil, false
}
