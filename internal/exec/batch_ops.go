package exec

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// ---------------------------------------------------------------------------
// BatchScan
// ---------------------------------------------------------------------------

// BatchScan reads a base table in column-major chunks, except the segments
// whose zones rule out one of its bounds (see zone.go).
type BatchScan struct {
	Tab    *storage.Table
	Bounds []ScanBound
	schema []algebra.Column
}

// NewBatchScan builds a vectorized scan over a table.
func NewBatchScan(tab *storage.Table, schema []algebra.Column) *BatchScan {
	return &BatchScan{Tab: tab, schema: schema}
}

// Schema implements Node.
func (s *BatchScan) Schema() []algebra.Column { return s.schema }

// Open implements Node.
func (s *BatchScan) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(s, ctx) }

// OpenBatch implements BatchNode. A parallel worker's scan reads the
// morsels of its pipeline's shared source; any other scan reads the whole
// table as one morsel.
func (s *BatchScan) OpenBatch(ctx *Ctx) (BatchIter, error) {
	w := len(s.schema)
	it := &batchScanIter{width: w, feed: rowFeedIter{width: w}, ctx: ctx}
	if p := ctx.pipe; p != nil && p.scan == s {
		it.src, it.shared = p.src, true
	} else {
		it.src = newMorselSource(ctx, s, s, 0)
	}
	return it, nil
}

// batchScanIter serves the morsels it claims from a source. Batches over
// published data are zero-copy: the column vectors alias segment storage
// (bounded so a batch never spans a segment or a morsel), with no pivot or
// copy. Uncommitted transaction-overlay rows follow the segments through a
// small pivot buffer.
type batchScanIter struct {
	src    *morselSource
	shared bool // src is a parallel pipeline's: count claimed morsels
	lo, hi int  // unread ordinals of the current morsel
	width  int
	out    Batch       // reused batch header; Cols alias segment storage
	feed   rowFeedIter // pivots overlay rows
	ctx    *Ctx
}

func (s *batchScanIter) NextBatch(max int) (*Batch, bool, error) {
	// Checked per batch, so a cancelled parallel worker stops within its
	// current morsel; every worker's context shares the same Done channel.
	if err := s.ctx.Cancelled(); err != nil {
		return nil, false, err
	}
	for {
		if b, ok, _ := s.feed.NextBatch(max); ok {
			return b, true, nil
		}
		if s.lo >= s.hi {
			lo, hi, ok := s.src.grab()
			if !ok {
				return nil, false, nil
			}
			s.lo, s.hi = lo, hi
			if s.shared {
				s.ctx.Counters.Morsels++
			}
		}
		src := s.src
		if s.lo >= src.segRows {
			s.feed.rows, s.feed.pos = src.overlay[s.lo-src.segRows:s.hi-src.segRows], 0
			s.lo = s.hi
			continue
		}
		sg := src.segs[s.lo/storage.SegmentRows]
		off := s.lo % storage.SegmentRows
		end := min(off+max, off+s.hi-s.lo, sg.Len())
		if s.out.Cols == nil {
			s.out.Cols = make([][]sqltypes.Value, s.width)
		}
		for c := 0; c < s.width; c++ {
			s.out.Cols[c] = sg.Col(c)[off:end]
		}
		s.out.Sel = nil
		s.out.n = end - off
		s.lo += s.out.n
		return &s.out, true, nil
	}
}

func (s *batchScanIter) Close() error { return nil }

// rowFeedIter serves an already-materialized row slice as batches through a
// reused pivot buffer: group-by results, a scan's overlay rows and an
// Exchange's worker chunks. Callers may refill rows/pos once it runs dry.
type rowFeedIter struct {
	rows  []storage.Row
	pos   int
	width int
	buf   *Batch
}

func (s *rowFeedIter) NextBatch(max int) (*Batch, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	end := s.pos + max
	if end > len(s.rows) {
		end = len(s.rows)
	}
	if s.buf == nil {
		s.buf = NewBatch(s.width, min(max, len(s.rows)))
	}
	b := s.buf
	b.Sel = nil
	b.n = end - s.pos
	chunk := s.rows[s.pos:end]
	for c := 0; c < s.width; c++ {
		col := b.Cols[c][:0]
		for _, r := range chunk {
			col = append(col, r[c])
		}
		b.Cols[c] = col
	}
	s.pos = end
	return b, true, nil
}

func (s *rowFeedIter) Close() error { return nil }

// ---------------------------------------------------------------------------
// BatchFilter
// ---------------------------------------------------------------------------

// BatchFilter keeps the rows whose predicate evaluates to TRUE, refining the
// selection vector instead of copying data.
type BatchFilter struct {
	Pred  PredFactory
	Child Node
}

// Schema implements Node.
func (f *BatchFilter) Schema() []algebra.Column { return f.Child.Schema() }

// Open implements Node.
func (f *BatchFilter) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(f, ctx) }

// OpenBatch implements BatchNode.
func (f *BatchFilter) OpenBatch(ctx *Ctx) (BatchIter, error) {
	in, err := OpenBatches(f.Child, ctx)
	if err != nil {
		return nil, err
	}
	return &batchFilterIter{pred: f.Pred(), in: in, ctx: ctx}, nil
}

type batchFilterIter struct {
	pred VecPredicate
	in   BatchIter
	ctx  *Ctx
	sel  []int
	tri  []sqltypes.Tri
}

func (f *batchFilterIter) NextBatch(max int) (*Batch, bool, error) {
	for {
		if err := f.ctx.Cancelled(); err != nil {
			return nil, false, err
		}
		b, ok, err := f.in.NextBatch(max)
		if err != nil || !ok {
			return nil, false, err
		}
		f.tri = triBuf(f.tri, b.Physical())
		if err := f.pred(f.ctx, b, f.tri); err != nil {
			return nil, false, err
		}
		f.sel = f.sel[:0]
		n := b.Len()
		for i := 0; i < n; i++ {
			p := b.LiveAt(i)
			if f.tri[p] == sqltypes.True {
				f.sel = append(f.sel, p)
			}
		}
		if len(f.sel) == 0 {
			continue // fully filtered batch; pull the next one
		}
		out := b.Narrow(f.sel)
		return out, true, nil
	}
}

func (f *batchFilterIter) Close() error { return f.in.Close() }

// ---------------------------------------------------------------------------
// BatchProject
// ---------------------------------------------------------------------------

// BatchProject computes output columns over whole batches. Expression
// results stay aligned with the input batch's physical positions, so the
// selection vector carries over without copying.
type BatchProject struct {
	Exprs  []VecFactory
	Dedup  bool
	Child  Node
	schema []algebra.Column
}

// NewBatchProject builds a vectorized projection node.
func NewBatchProject(exprs []VecFactory, dedup bool, child Node, schema []algebra.Column) *BatchProject {
	return &BatchProject{Exprs: exprs, Dedup: dedup, Child: child, schema: schema}
}

// Schema implements Node.
func (p *BatchProject) Schema() []algebra.Column { return p.schema }

// Open implements Node.
func (p *BatchProject) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(p, ctx) }

// OpenBatch implements BatchNode.
func (p *BatchProject) OpenBatch(ctx *Ctx) (BatchIter, error) {
	in, err := OpenBatches(p.Child, ctx)
	if err != nil {
		return nil, err
	}
	pi := &batchProjectIter{exprs: Instantiate(p.Exprs), in: in, ctx: ctx}
	if p.Dedup {
		pi.seen = &sqltypes.KeyIndex{}
	}
	return pi, nil
}

type batchProjectIter struct {
	exprs []VecEvaluator
	in    BatchIter
	ctx   *Ctx
	seen  *sqltypes.KeyIndex // non-nil for DISTINCT
	out   Batch
	sel   []int
}

func (p *batchProjectIter) NextBatch(max int) (*Batch, bool, error) {
	for {
		b, ok, err := p.in.NextBatch(max)
		if err != nil || !ok {
			return nil, false, err
		}
		if p.out.Cols == nil {
			p.out.Cols = make([][]sqltypes.Value, len(p.exprs))
		}
		for i, e := range p.exprs {
			v, err := e(p.ctx, b)
			if err != nil {
				return nil, false, err
			}
			p.out.Cols[i] = v
		}
		p.out.n = b.Physical()
		p.out.Sel = b.Sel
		if p.seen != nil {
			p.sel = p.sel[:0]
			n := p.out.Len()
			for i := 0; i < n; i++ {
				pos := p.out.LiveAt(i)
				if _, added := p.seen.Add(p.out.Cols, pos); added {
					p.sel = append(p.sel, pos)
				}
			}
			if len(p.sel) == 0 {
				continue
			}
			p.out.Sel = p.sel
		}
		p.ctx.Counters.RowsProcessed += int64(p.out.Len())
		return &p.out, true, nil
	}
}

func (p *batchProjectIter) Close() error { return p.in.Close() }

// ---------------------------------------------------------------------------
// BatchLimit
// ---------------------------------------------------------------------------

// BatchLimit passes the first N live rows, truncating the batch that crosses
// the limit.
type BatchLimit struct {
	N     int64
	Child Node
}

// Schema implements Node.
func (l *BatchLimit) Schema() []algebra.Column { return l.Child.Schema() }

// Open implements Node.
func (l *BatchLimit) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(l, ctx) }

// OpenBatch implements BatchNode.
func (l *BatchLimit) OpenBatch(ctx *Ctx) (BatchIter, error) {
	in, err := OpenBatches(l.Child, ctx)
	if err != nil {
		return nil, err
	}
	return &batchLimitIter{remaining: l.N, in: in}, nil
}

type batchLimitIter struct {
	remaining int64
	in        BatchIter
	sel       []int
}

func (l *batchLimitIter) NextBatch(max int) (*Batch, bool, error) {
	if l.remaining <= 0 {
		return nil, false, nil
	}
	if int64(max) > l.remaining {
		max = int(l.remaining)
	}
	b, ok, err := l.in.NextBatch(max)
	if err != nil || !ok {
		return nil, false, err
	}
	live := int64(b.Len())
	if live <= l.remaining {
		l.remaining -= live
		return b, true, nil
	}
	// The limit falls mid-batch: keep only the first remaining live rows.
	l.sel = l.sel[:0]
	for i := int64(0); i < l.remaining; i++ {
		l.sel = append(l.sel, b.LiveAt(int(i)))
	}
	l.remaining = 0
	return b.Narrow(l.sel), true, nil
}

func (l *batchLimitIter) Close() error { return l.in.Close() }

// ---------------------------------------------------------------------------
// BatchHashJoin
// ---------------------------------------------------------------------------

// BatchHashJoin is the vectorized hash join: build- and probe-side key
// expressions evaluate batch-at-a-time, and matches are emitted in left-row
// order (identical to the row hash join's order). The build side is kept as
// columns, and a match is a build ordinal. The probe looks up every row of
// a probe batch before emitting any, records each output row as a left
// position and a build ordinal, and builds the output one column at a time,
// so no row is ever materialised. When each probe row is emitted at most
// once, the output passes the probe batch's own columns through under a
// new selection, and only the build columns are written. The residual
// predicate, when present, is evaluated per candidate so that
// outer/semi/anti match bookkeeping stays exact. Only the columns of the
// output list are built.
type BatchHashJoin struct {
	Kind     algebra.JoinKind
	LKeys    []VecFactory
	RKeys    []VecFactory
	Residual Evaluator // over concat(L, R); nil when none
	L, R     Node
	outputList
}

// NewBatchHashJoin builds a vectorized hash join node.
func NewBatchHashJoin(kind algebra.JoinKind, lkeys, rkeys []VecFactory, residual Evaluator, l, r Node) *BatchHashJoin {
	return &BatchHashJoin{Kind: kind, LKeys: lkeys, RKeys: rkeys, Residual: residual,
		L: l, R: r, outputList: newJoinOutput(kind, l, r)}
}

// Open implements Node.
func (j *BatchHashJoin) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(j, ctx) }

// buildReads reports, per build column, whether the join reads it: the
// output list's build columns, or every column when a residual reads the
// joined row.
func (j *BatchHashJoin) buildReads() []bool {
	lWidth := len(j.L.Schema())
	reads := make([]bool, len(j.R.Schema()))
	for c := range reads {
		reads[c] = j.Residual != nil
	}
	if j.Kind != algebra.SemiJoin && j.Kind != algebra.AntiJoin {
		for _, c := range j.cols {
			if c >= lWidth {
				reads[c-lWidth] = true
			}
		}
	}
	return reads
}

// OpenBatch implements BatchNode. A parallel worker's probe uses the join
// table its pipeline prebuilt.
func (j *BatchHashJoin) OpenBatch(ctx *Ctx) (BatchIter, error) {
	var table *joinTable
	if p := ctx.pipe; p != nil {
		table = p.joins[j]
	}
	if table == nil {
		var err error
		if table, err = buildJoinTable(ctx, j, 1); err != nil {
			return nil, err
		}
	}
	li, err := OpenBatches(j.L, ctx)
	if err != nil {
		return nil, err
	}
	it := &batchHashJoinIter{j: j, ctx: ctx, li: li, table: table, lkeys: Instantiate(j.LKeys),
		lWidth: len(j.L.Schema()), keyVecs: make([][]sqltypes.Value, len(j.LKeys)),
		bufs: make([][]sqltypes.Value, len(j.cols))}
	it.out.Cols = make([][]sqltypes.Value, len(j.cols))
	if j.Residual != nil {
		it.joined = make(storage.Row, it.lWidth+len(table.cols))
	}
	return it, nil
}

type batchHashJoinIter struct {
	j      *BatchHashJoin
	ctx    *Ctx
	li     BatchIter
	lkeys  []VecEvaluator
	table  *joinTable
	lWidth int

	left    *Batch             // current probe batch; nil before the first
	done    bool               // the probe side is exhausted
	keyVecs [][]sqltypes.Value // probe key vectors over left
	matches [][]int32          // matches[i]: the build ordinals sharing live row i's key
	pos     int                // live index of the probe row being emitted
	idx     int                // its next candidate in matches[pos]
	matched bool               // it has had a residual-accepted match

	out    Batch
	bufs   [][]sqltypes.Value // the output vectors the iterator owns
	joined storage.Row        // residual candidate row, reused

	// The output rows recorded for the batch being built: the left position
	// and the build ordinal (-1 for a NULL-extended row).
	mLeft  []int
	mRight []int32
}

// NextBatch emits the output rows of one probe batch, at most max of them;
// an output batch never spans two probe batches, since the probe batch is
// valid only until the next li.NextBatch call.
func (it *batchHashJoinIter) NextBatch(max int) (*Batch, bool, error) {
	it.mLeft, it.mRight = it.mLeft[:0], it.mRight[:0]
	for {
		if it.left == nil || it.pos >= len(it.matches) {
			if ok, err := it.nextProbe(max); err != nil || !ok {
				return nil, false, err
			}
		}
		if err := it.emit(max); err != nil {
			return nil, false, err
		}
		if len(it.mLeft) > 0 {
			return it.gather(), true, nil
		}
	}
}

// nextProbe fetches the next probe batch and looks up the key of every
// live row, in one pass over the key vectors.
func (it *batchHashJoinIter) nextProbe(max int) (bool, error) {
	if it.done {
		return false, nil
	}
	b, ok, err := it.li.NextBatch(max)
	if err != nil || !ok {
		it.done = true
		return false, err
	}
	for i, k := range it.lkeys {
		if it.keyVecs[i], err = k(it.ctx, b); err != nil {
			return false, err
		}
	}
	n := b.Len()
	if cap(it.matches) < n {
		it.matches = make([][]int32, n)
	}
	it.matches = it.matches[:n]
	for i := range it.matches {
		// A key with a NULL finds nothing: the build left such keys out.
		it.matches[i] = it.table.lookup(it.keyVecs, b.LiveAt(i))
	}
	it.left, it.pos, it.idx, it.matched = b, 0, 0, false
	return true, nil
}

// emit records output rows of the current probe batch until max are
// recorded or the batch is done. The cursor (pos, idx, matched) survives a
// full stop, so a hot build key never overflows the requested batch size.
func (it *batchHashJoinIter) emit(max int) error {
	j := it.j
	for ; it.pos < len(it.matches); it.pos, it.idx, it.matched = it.pos+1, 0, false {
		p := it.left.LiveAt(it.pos)
		ms := it.matches[it.pos]
		if j.Residual != nil {
			for c := 0; c < it.lWidth; c++ {
				it.joined[c] = it.left.Cols[c][p]
			}
		}
		for it.idx < len(ms) {
			if len(it.mLeft) >= max {
				return nil
			}
			o := ms[it.idx]
			it.idx++
			if j.Residual != nil {
				for c, col := range it.table.cols {
					it.joined[it.lWidth+c] = col[o]
				}
				v, err := j.Residual(it.ctx, it.joined)
				if err != nil {
					return err
				}
				if sqltypes.TriOf(v) != sqltypes.True {
					continue
				}
			}
			it.matched = true
			if j.Kind == algebra.SemiJoin || j.Kind == algebra.AntiJoin {
				it.idx = len(ms) // the first match decides
				break
			}
			it.record(p, o)
		}
		switch {
		case j.Kind == algebra.SemiJoin && it.matched, j.Kind == algebra.AntiJoin && !it.matched,
			j.Kind == algebra.LeftOuterJoin && !it.matched:
			if len(it.mLeft) >= max {
				return nil
			}
			it.record(p, -1)
		}
	}
	return nil
}

// record adds one output row: left position p joined with build ordinal o,
// or with NULLs when o is -1 (semi and anti joins ignore o).
func (it *batchHashJoinIter) record(p int, o int32) {
	it.mLeft = append(it.mLeft, p)
	it.mRight = append(it.mRight, o)
}

// gather builds the output batch from the recorded rows, one output-list
// column at a time. When the recorded left positions strictly increase,
// each probe row appears at most once, so the output keeps the probe
// batch's physical positions: its left columns are the probe batch's own
// vectors, its selection is the recorded positions, and only the build
// columns are written, at those positions. Otherwise every column is
// copied. Written vectors are always the iterator's own, never a probe
// vector.
func (it *batchHashJoinIter) gather() *Batch {
	out := &it.out
	through := ascending(it.mLeft)
	if through {
		out.n, out.Sel = it.left.Physical(), it.mLeft
	} else {
		out.n, out.Sel = len(it.mLeft), nil
	}
	for i, c := range it.j.cols {
		if c < it.lWidth {
			src := it.left.Cols[c]
			if through {
				out.Cols[i] = src
				continue
			}
			dst := vecBuf(it.bufs[i], out.n)
			for k, p := range it.mLeft {
				dst[k] = src[p]
			}
			it.bufs[i], out.Cols[i] = dst, dst
			continue
		}
		src := it.table.cols[c-it.lWidth]
		dst := vecBuf(it.bufs[i], out.n)
		for k, o := range it.mRight {
			at := k
			if through {
				at = it.mLeft[k]
			}
			if o < 0 {
				dst[at] = sqltypes.Null
			} else {
				dst[at] = src[o]
			}
		}
		it.bufs[i], out.Cols[i] = dst, dst
	}
	return out
}

// ascending reports whether ps strictly increases.
func ascending(ps []int) bool {
	for k := 1; k < len(ps); k++ {
		if ps[k] <= ps[k-1] {
			return false
		}
	}
	return true
}

func (it *batchHashJoinIter) Close() error { return it.li.Close() }
