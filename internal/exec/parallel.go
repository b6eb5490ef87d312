// Morsel-driven intra-query parallelism for the vectorized path (after
// Leis et al.): a scan is partitioned into row-range morsels handed out by
// an atomic dispenser, and a pipeline segment — scan, filters, projections
// and hash-join probes — runs on N workers, each with its own instantiated
// evaluators and execution context. Pipeline breakers sit above (Exchange
// merges worker output into one stream) or are parallelism-aware
// themselves (parallelGroupBy builds per-worker partial aggregation states
// and merges them). Plans stay immutable: all per-execution parallel state
// lives in a segState built inside OpenBatch.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// MorselRows is the number of rows per morsel: a few batches' worth, so the
// dispenser is touched rarely but small tables still split across workers.
// It is a variable (not a constant) so tests can shrink it to force
// multi-worker execution over small fixtures; production code never writes
// it after init.
var MorselRows = 4 * DefaultBatchSize

// morselSource hands out row-ordinal ranges of a scanned table to workers.
// Ordinals [0, segRows) address the pinned version's column segments
// (relying on the storage invariant that every segment but the last holds
// exactly storage.SegmentRows rows); ordinals past segRows address the
// transaction overlay, scanned after the published data.
type morselSource struct {
	segs    []*storage.Segment
	segRows int // total rows across segs
	overlay []storage.Row
	total   int   // segRows + len(overlay)
	next    int64 // atomic cursor (in row ordinals)
}

func newMorselSource(ver *storage.TableVersion, overlay []storage.Row) *morselSource {
	m := &morselSource{segs: ver.Segments(), segRows: ver.RowCount(), overlay: overlay}
	m.total = m.segRows + len(overlay)
	return m
}

// grab claims the next morsel; ok=false when the table is exhausted.
func (m *morselSource) grab() (lo, hi int, ok bool) {
	size := MorselRows
	end := atomic.AddInt64(&m.next, int64(size))
	lo = int(end) - size
	if lo >= m.total {
		return 0, 0, false
	}
	hi = int(end)
	if hi > m.total {
		hi = m.total
	}
	return lo, hi, true
}

// morselCount returns how many morsels the source will hand out.
func (m *morselSource) morselCount() int {
	return (m.total + MorselRows - 1) / MorselRows
}

// segState is the per-execution shared state of a parallel segment: the
// scan's morsel dispenser and the hash-join build tables, constructed once
// in prepare and then read-only for all workers.
type segState struct {
	degree int
	src    *morselSource
	joins  map[*segHashJoin]*joinTable
}

// workers returns the worker count for this execution: the configured
// degree, clamped to the available morsels so tiny tables do not spawn idle
// goroutines (and always at least one).
func (st *segState) workers() int {
	w := st.degree
	if st.src != nil {
		if mc := st.src.morselCount(); mc < w {
			w = mc
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// segment is a per-worker pipeline recipe: prepare runs the shared
// once-per-execution work (morsel dispenser, hash-join builds), then open
// instantiates one worker's iterator with private evaluators.
type segment interface {
	prepare(ctx *Ctx, st *segState) error
	open(ctx *Ctx, st *segState) (BatchIter, error)
	schema() []algebra.Column
	describe() string
}

// ---------------------------------------------------------------------------
// Segment implementations
// ---------------------------------------------------------------------------

type segScan struct {
	tab  *storage.Table
	cols []algebra.Column
}

func (s *segScan) prepare(ctx *Ctx, st *segState) error {
	ver, overlay := ctx.TableVersion(s.tab)
	st.src = newMorselSource(ver, overlay)
	storage.NoteZeroCopyScan()
	return nil
}

func (s *segScan) open(ctx *Ctx, st *segState) (BatchIter, error) {
	return contractWrap(&morselScanIter{src: st.src, width: len(s.cols), ctx: ctx}), nil
}

func (s *segScan) schema() []algebra.Column { return s.cols }
func (s *segScan) describe() string         { return "scan(" + s.tab.Meta.Name + ")" }

// morselScanIter reads batches out of morsels claimed from the shared
// dispenser. Batches over published data are zero-copy segment slices
// (clamped at segment boundaries); overlay rows pivot through a private
// buffer.
type morselScanIter struct {
	src    *morselSource
	width  int
	ctx    *Ctx
	lo, hi int    // remaining range of the current morsel
	out    Batch  // reused batch header; Cols alias segment storage
	buf    *Batch // pivot buffer, only for overlay rows
}

func (m *morselScanIter) NextBatch(max int) (*Batch, bool, error) {
	// Checked per batch, so a cancelled worker stops within the current
	// morsel; the dispenser itself stops handing out morsels because every
	// worker's context shares the same Done channel.
	if err := m.ctx.Cancelled(); err != nil {
		return nil, false, err
	}
	if m.lo >= m.hi {
		lo, hi, ok := m.src.grab()
		if !ok {
			return nil, false, nil
		}
		m.lo, m.hi = lo, hi
		m.ctx.Counters.Morsels++
	}
	src := m.src
	if m.lo < src.segRows {
		sg := src.segs[m.lo/storage.SegmentRows]
		off := m.lo % storage.SegmentRows
		end := off + max
		if lim := off + (m.hi - m.lo); lim < end {
			end = lim
		}
		if sg.Len() < end {
			end = sg.Len()
		}
		if m.out.Cols == nil {
			m.out.Cols = make([][]sqltypes.Value, m.width)
		}
		for c := 0; c < m.width; c++ {
			m.out.Cols[c] = sg.Col(c)[off:end]
		}
		m.out.Sel = nil
		m.out.n = end - off
		m.lo += m.out.n
		return &m.out, true, nil
	}
	lo := m.lo - src.segRows
	end := lo + max
	if lim := lo + (m.hi - m.lo); lim < end {
		end = lim
	}
	if len(src.overlay) < end {
		end = len(src.overlay)
	}
	if m.buf == nil {
		m.buf = NewBatch(m.width, max)
	}
	b := m.buf
	b.Sel = nil
	b.n = end - lo
	chunk := src.overlay[lo:end]
	for c := 0; c < m.width; c++ {
		col := b.Cols[c][:0]
		for _, r := range chunk {
			col = append(col, r[c])
		}
		b.Cols[c] = col
	}
	m.lo += b.n
	return b, true, nil
}

func (m *morselScanIter) Close() error { return nil }

type segFilter struct {
	pred  PredFactory
	child segment
}

func (s *segFilter) prepare(ctx *Ctx, st *segState) error { return s.child.prepare(ctx, st) }

func (s *segFilter) open(ctx *Ctx, st *segState) (BatchIter, error) {
	in, err := s.child.open(ctx, st)
	if err != nil {
		return nil, err
	}
	return contractWrap(&batchFilterIter{pred: s.pred(), in: in, ctx: ctx}), nil
}

func (s *segFilter) schema() []algebra.Column { return s.child.schema() }
func (s *segFilter) describe() string         { return s.child.describe() + "→filter" }

type segProject struct {
	exprs []VecFactory
	child segment
	cols  []algebra.Column
}

func (s *segProject) prepare(ctx *Ctx, st *segState) error { return s.child.prepare(ctx, st) }

func (s *segProject) open(ctx *Ctx, st *segState) (BatchIter, error) {
	in, err := s.child.open(ctx, st)
	if err != nil {
		return nil, err
	}
	return contractWrap(&batchProjectIter{exprs: Instantiate(s.exprs), in: in, ctx: ctx}), nil
}

func (s *segProject) schema() []algebra.Column { return s.cols }
func (s *segProject) describe() string         { return s.child.describe() + "→project" }

// segHashJoin probes a shared hash table from each worker; the build side
// runs once per execution in prepare, populated with one goroutine per
// partition.
type segHashJoin struct {
	j     *BatchHashJoin
	child segment // probe (left) side
}

func (s *segHashJoin) prepare(ctx *Ctx, st *segState) error {
	if err := s.child.prepare(ctx, st); err != nil {
		return err
	}
	jt, err := buildJoinTable(ctx, s.j.R, s.j.RKeys, st.degree)
	if err != nil {
		return err
	}
	st.joins[s] = jt
	return nil
}

func (s *segHashJoin) open(ctx *Ctx, st *segState) (BatchIter, error) {
	in, err := s.child.open(ctx, st)
	if err != nil {
		return nil, err
	}
	return contractWrap(newBatchHashJoinIter(s.j, ctx, in, st.joins[s])), nil
}

func (s *segHashJoin) schema() []algebra.Column { return s.j.schema }
func (s *segHashJoin) describe() string {
	return s.child.describe() + "→probe(" + s.j.Kind.String() + ")"
}

// segmentize converts a batch operator chain into a per-worker segment
// recipe. Supported: scan leaves, filters, non-DISTINCT projections, and
// hash joins (probe side in the segment, build side shared). Anything else
// — pipeline breakers, row operators, correlated applies — ends the
// segment.
func segmentize(n Node) (segment, bool) {
	switch x := n.(type) {
	case *BatchScan:
		return &segScan{tab: x.Tab, cols: x.schema}, true
	case *BatchFilter:
		child, ok := segmentize(x.Child)
		if !ok {
			return nil, false
		}
		return &segFilter{pred: x.Pred, child: child}, true
	case *BatchProject:
		if x.Dedup {
			return nil, false // DISTINCT needs a global seen-set
		}
		child, ok := segmentize(x.Child)
		if !ok {
			return nil, false
		}
		return &segProject{exprs: x.Exprs, child: child, cols: x.schema}, true
	case *BatchHashJoin:
		child, ok := segmentize(x.L)
		if !ok {
			return nil, false
		}
		return &segHashJoin{j: x, child: child}, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Exchange
// ---------------------------------------------------------------------------

// Exchange runs a pipeline segment on N workers and merges their output
// batches into one stream. Row order across workers is nondeterministic
// (parents that need an order sort above the exchange).
type Exchange struct {
	Degree int
	Seg    segment
	sch    []algebra.Column
}

// Schema implements Node.
func (e *Exchange) Schema() []algebra.Column { return e.sch }

// Open implements Node.
func (e *Exchange) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(e, ctx) }

// Describe names the segment for EXPLAIN.
func (e *Exchange) Describe() string {
	return fmt.Sprintf("Exchange(%s, degree=%d)", e.Seg.describe(), e.Degree)
}

// OpenBatch implements BatchNode: it prepares the shared segment state,
// spawns the workers, and returns the merging iterator.
func (e *Exchange) OpenBatch(ctx *Ctx) (BatchIter, error) {
	st := &segState{degree: e.Degree, joins: map[*segHashJoin]*joinTable{}}
	if err := e.Seg.prepare(ctx, st); err != nil {
		return nil, err
	}
	workers := st.workers()
	x := &exchangeIter{
		parent: ctx,
		width:  len(e.sch),
		out:    make(chan []storage.Row, workers),
		errc:   make(chan error, workers),
		done:   make(chan struct{}),
	}
	ctx.Counters.Workers += int64(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wctx := ctx.forkWorker()
		x.wctxs = append(x.wctxs, wctx)
		wg.Add(1)
		go func(wctx *Ctx) {
			defer wg.Done()
			it, err := e.Seg.open(wctx, st)
			if err != nil {
				x.errc <- err
				return
			}
			if wctx.prof != nil {
				// Attribute the worker's whole pipeline to the Exchange; the
				// private profiler merges into the parent's as worker stats.
				it = &profBatchIter{in: it, st: wctx.prof.statsFor(e)}
			}
			defer it.Close()
			for {
				select {
				case <-x.done:
					return
				default:
				}
				b, ok, err := it.NextBatch(DefaultBatchSize)
				if err != nil {
					x.errc <- err
					return
				}
				if !ok {
					return
				}
				// Batches are owned by the worker's iterator: materialize
				// before crossing the channel.
				rows := b.AppendTo(make([]storage.Row, 0, b.Len()))
				select {
				case x.out <- rows:
				case <-x.done:
					return
				}
			}
		}(wctx)
	}
	go func() {
		wg.Wait()
		close(x.out)
	}()
	return x, nil
}

// exchangeIter merges worker row chunks into batches of the requested size.
type exchangeIter struct {
	parent  *Ctx
	wctxs   []*Ctx
	width   int
	out     chan []storage.Row
	errc    chan error
	done    chan struct{}
	pending []storage.Row
	pos     int
	buf     *Batch
	stopped bool
	merged  bool
}

func (x *exchangeIter) NextBatch(max int) (*Batch, bool, error) {
	for x.pos >= len(x.pending) {
		chunk, ok := <-x.out
		if !ok {
			x.finish()
			select {
			case err := <-x.errc:
				return nil, false, err
			default:
				// Workers can also exit by observing cancellation before
				// producing an error (e.g. parked on a send when the parent
				// closed done): report the cancellation, not a silent EOS.
				if err := x.parent.Cancelled(); err != nil {
					return nil, false, err
				}
				return nil, false, nil
			}
		}
		x.pending, x.pos = chunk, 0
	}
	n := len(x.pending) - x.pos
	if n > max {
		n = max
	}
	if x.buf == nil {
		x.buf = NewBatch(x.width, max)
	}
	b := x.buf
	b.Sel = nil
	b.n = n
	chunk := x.pending[x.pos : x.pos+n]
	for c := 0; c < x.width; c++ {
		col := b.Cols[c][:0]
		for _, r := range chunk {
			col = append(col, r[c])
		}
		b.Cols[c] = col
	}
	x.pos += n
	return b, true, nil
}

// finish absorbs worker counters exactly once, after all workers exited.
func (x *exchangeIter) finish() {
	if x.merged {
		return
	}
	x.merged = true
	for _, w := range x.wctxs {
		x.parent.Counters.absorb(w.Counters)
		if x.parent.prof != nil {
			x.parent.prof.absorbWorker(w.prof)
		}
	}
}

func (x *exchangeIter) Close() error {
	if !x.stopped {
		x.stopped = true
		close(x.done)
	}
	// Unblock any worker parked on a send, then wait for the channel close
	// (the goroutine that observes wg completion) before absorbing counters.
	for range x.out {
	}
	x.finish()
	return nil
}

// ---------------------------------------------------------------------------
// parallelGroupBy
// ---------------------------------------------------------------------------

// parallelGroupBy aggregates a pipeline segment with per-worker partial
// group tables merged after all workers finish. Only mergeable (builtin
// non-DISTINCT) aggregates are lowered onto it. With no keys it is parallel
// scalar aggregation (one output row even for empty input).
type parallelGroupBy struct {
	keys   []VecFactory
	aggs   []*AggSpec
	args   [][]VecFactory
	seg    segment
	degree int
	sch    []algebra.Column
}

// Schema implements Node.
func (pg *parallelGroupBy) Schema() []algebra.Column { return pg.sch }

// Open implements Node.
func (pg *parallelGroupBy) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(pg, ctx) }

// Describe names the operator for EXPLAIN.
func (pg *parallelGroupBy) Describe() string {
	kind := "ParallelGroupBy"
	if len(pg.keys) == 0 {
		kind = "ParallelScalarAgg"
	}
	return fmt.Sprintf("%s(%s, degree=%d)", kind, pg.seg.describe(), pg.degree)
}

// OpenBatch implements BatchNode. Aggregation is a pipeline breaker, so the
// whole parallel phase runs here and the returned iterator serves the
// materialized groups.
func (pg *parallelGroupBy) OpenBatch(ctx *Ctx) (BatchIter, error) {
	st := &segState{degree: pg.degree, joins: map[*segHashJoin]*joinTable{}}
	if err := pg.seg.prepare(ctx, st); err != nil {
		return nil, err
	}
	workers := st.workers()
	ctx.Counters.Workers += int64(workers)
	tables := make([]*groupTable, workers)
	wctxs := make([]*Ctx, workers)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wctx := ctx.forkWorker()
		wctxs[w] = wctx
		wg.Add(1)
		go func(w int, wctx *Ctx) {
			defer wg.Done()
			it, err := pg.seg.open(wctx, st)
			if err != nil {
				errc <- err
				return
			}
			if wctx.prof != nil {
				it = &profBatchIter{in: it, st: wctx.prof.statsFor(pg)}
			}
			defer it.Close()
			gt := newGroupTable(pg.aggs, len(pg.keys))
			if err := gt.consume(wctx, it, Instantiate(pg.keys), instantiateArgs(pg.args)); err != nil {
				errc <- err
				return
			}
			tables[w] = gt
		}(w, wctx)
	}
	wg.Wait()
	for _, w := range wctxs {
		ctx.Counters.absorb(w.Counters)
		if ctx.prof != nil {
			ctx.prof.absorbWorker(w.prof)
		}
	}
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	final := tables[0]
	for _, gt := range tables[1:] {
		if err := final.absorb(gt); err != nil {
			return nil, err
		}
	}
	rows, err := final.rows(ctx, len(pg.keys) == 0)
	if err != nil {
		return nil, err
	}
	return &rowFeedIter{rows: rows, width: len(pg.sch)}, nil
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
// parallelism with the given degree: pipeline segments become Exchange
// operators, and grouped/scalar aggregations over a segment become parallel
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
	if seg, ok := segmentize(n); ok {
		ex := &Exchange{Degree: degree, Seg: seg, sch: n.Schema()}
		return ex, []string{ex.Describe()}, true
	}
	switch x := n.(type) {
	case *BatchGroupBy:
		if allMergeable(x.Aggs) {
			if seg, ok := segmentize(x.Child); ok {
				pg := &parallelGroupBy{keys: x.Keys, aggs: x.Aggs, args: x.Args,
					seg: seg, degree: degree, sch: x.schema}
				return pg, []string{pg.Describe()}, true
			}
		}
		if child, notes, ok := parallelize(x.Child, degree); ok {
			cp := *x
			cp.Child = child
			return &cp, notes, true
		}
	case *BatchHashJoin:
		// Not segmentizable as a whole (e.g. an aggregation below the
		// probe): parallelize the two inputs independently.
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
