package exec

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// ---------------------------------------------------------------------------
// BatchScan
// ---------------------------------------------------------------------------

// BatchScan reads a base table in column-major chunks.
type BatchScan struct {
	Tab    *storage.Table
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
		ver, overlay := ctx.TableVersion(s.Tab)
		storage.NoteZeroCopyScan()
		it.src = newMorselSource(ver, overlay, 0)
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
		pi.seen = map[string]bool{}
	}
	return pi, nil
}

type batchProjectIter struct {
	exprs []VecEvaluator
	in    BatchIter
	ctx   *Ctx
	seen  map[string]bool // non-nil for DISTINCT
	out   Batch
	sel   []int
	key   []sqltypes.Value
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
			if cap(p.key) < len(p.exprs) {
				p.key = make([]sqltypes.Value, len(p.exprs))
			}
			key := p.key[:len(p.exprs)]
			p.sel = p.sel[:0]
			n := p.out.Len()
			for i := 0; i < n; i++ {
				pos := p.out.LiveAt(i)
				for j, c := range p.out.Cols {
					key[j] = c[pos]
				}
				k := sqltypes.KeyOf(key...)
				if p.seen[k] {
					continue
				}
				p.seen[k] = true
				p.sel = append(p.sel, pos)
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
// expressions evaluate batch-at-a-time, and matches are emitted into output
// batches in left-row order (identical to the row hash join's order). The
// probe records each match as a left position and a build row, and gathers
// the recorded pairs into the output one column at a time, so no probe row
// is ever materialised. The residual predicate, when present, is evaluated
// per candidate row so that outer/semi/anti match bookkeeping stays exact.
// Only the columns of the output list are gathered.
type BatchHashJoin struct {
	Kind     algebra.JoinKind
	LKeys    []VecFactory
	RKeys    []VecFactory
	Residual Evaluator // over concat(L, R); nil when none
	L, R     Node
	joinOutput
}

// NewBatchHashJoin builds a vectorized hash join node.
func NewBatchHashJoin(kind algebra.JoinKind, lkeys, rkeys []VecFactory, residual Evaluator, l, r Node) *BatchHashJoin {
	return &BatchHashJoin{Kind: kind, LKeys: lkeys, RKeys: rkeys, Residual: residual,
		L: l, R: r, joinOutput: newJoinOutput(kind, l, r)}
}

// Open implements Node.
func (j *BatchHashJoin) Open(ctx *Ctx) (Iter, error) { return openRowsViaBatches(j, ctx) }

// OpenBatch implements BatchNode. A parallel worker's probe uses the join
// table its pipeline prebuilt.
func (j *BatchHashJoin) OpenBatch(ctx *Ctx) (BatchIter, error) {
	var table *joinTable
	if p := ctx.pipe; p != nil {
		table = p.joins[j]
	}
	if table == nil {
		var err error
		if table, err = buildJoinTable(ctx, j.R, j.RKeys, 1); err != nil {
			return nil, err
		}
	}
	li, err := OpenBatches(j.L, ctx)
	if err != nil {
		return nil, err
	}
	return &batchHashJoinIter{j: j, ctx: ctx, li: li, table: table,
		lkeys: Instantiate(j.LKeys), lWidth: len(j.L.Schema()), rWidth: len(j.R.Schema())}, nil
}

type batchHashJoinIter struct {
	j      *BatchHashJoin
	ctx    *Ctx
	li     BatchIter
	lkeys  []VecEvaluator
	table  *joinTable
	lWidth int
	rWidth int

	left    *Batch             // current probe batch (nil when exhausted)
	keyVecs [][]sqltypes.Value // probe key vectors over left
	pos     int                // next live index in left
	out     *Batch
	keyBuf  []sqltypes.Value
	joined  storage.Row // residual candidate row, reused

	// Matches recorded into out but not yet copied: the left position and
	// the build row (nil for a NULL-extended row). gather copies them
	// before out is returned and before left is replaced, since left is
	// valid only until the next li.NextBatch call.
	mLeft  []int
	mRight []storage.Row

	// In-progress probe row, carried across NextBatch calls so a hot build
	// key (bucket larger than the remaining output budget) never overflows
	// the requested batch size.
	pend        []storage.Row // bucket being emitted; meaningful when pendActive
	pendIdx     int           // next bucket position
	pendPos     int           // the probe row's position in left
	pendMatched bool          // a residual-accepted match was seen
	pendActive  bool
}

// record adds one output row: left position p joined with build row r, or
// with NULLs when r is nil (semi and anti joins ignore r).
func (it *batchHashJoinIter) record(out *Batch, p int, r storage.Row) {
	it.mLeft = append(it.mLeft, p)
	it.mRight = append(it.mRight, r)
	out.n++
}

// gather copies the recorded matches into out, one output-list column at a
// time.
func (it *batchHashJoinIter) gather(out *Batch) {
	if len(it.mLeft) == 0 {
		return
	}
	for i, c := range it.j.cols {
		dst := out.Cols[i]
		if c < it.lWidth {
			src := it.left.Cols[c]
			for _, p := range it.mLeft {
				dst = append(dst, src[p])
			}
		} else {
			c -= it.lWidth
			for _, r := range it.mRight {
				if r == nil {
					dst = append(dst, sqltypes.Null)
				} else {
					dst = append(dst, r[c])
				}
			}
		}
		out.Cols[i] = dst
	}
	it.mLeft, it.mRight = it.mLeft[:0], it.mRight[:0]
}

// emitPending records the in-progress probe row — the bucket cursor plus
// the trailing unmatched emission — into out, stopping as soon as out
// reaches max live rows. full=true means out filled up before the probe row
// completed; the cursor survives for the next call.
func (it *batchHashJoinIter) emitPending(out *Batch, max int) (full bool, err error) {
	j := it.j
	for it.pendIdx < len(it.pend) {
		if out.n >= max {
			return true, nil
		}
		r := it.pend[it.pendIdx]
		it.pendIdx++
		if j.Residual != nil {
			copy(it.joined[it.lWidth:], r)
			v, err := j.Residual(it.ctx, it.joined)
			if err != nil {
				return false, err
			}
			if sqltypes.TriOf(v) != sqltypes.True {
				continue
			}
		}
		it.pendMatched = true
		switch j.Kind {
		case algebra.SemiJoin:
			it.record(out, it.pendPos, nil)
			it.pendIdx = len(it.pend) // the first match decides
		case algebra.AntiJoin:
			it.pendIdx = len(it.pend) // no emission on match
		default:
			it.record(out, it.pendPos, r)
		}
	}
	if !it.pendMatched && (j.Kind == algebra.AntiJoin || j.Kind == algebra.LeftOuterJoin) {
		if out.n >= max {
			return true, nil
		}
		it.record(out, it.pendPos, nil)
	}
	it.pendActive = false
	it.pend = nil
	return false, nil
}

// NextBatch records matches into out and gathers them at every exit and
// before every fetch of the next probe batch.
func (it *batchHashJoinIter) NextBatch(max int) (*Batch, bool, error) {
	if it.out == nil {
		it.out = NewBatch(len(it.j.cols), max)
		it.keyBuf = make([]sqltypes.Value, len(it.lkeys))
		if it.j.Residual != nil {
			it.joined = make(storage.Row, it.lWidth+it.rWidth)
		}
	}
	out := it.out
	out.Sel = nil
	out.n = 0
	for i := range out.Cols {
		out.Cols[i] = out.Cols[i][:0]
	}
	full, err := it.probe(out, max)
	it.gather(out) // left is still the batch every recorded position is in
	if err != nil {
		return nil, false, err
	}
	if out.n == 0 && !full {
		return nil, false, nil
	}
	return out, true, nil
}

// probe records matches into out until it holds max rows (full=true) or
// the probe side is exhausted.
func (it *batchHashJoinIter) probe(out *Batch, max int) (full bool, err error) {
	for {
		if it.pendActive {
			if full, err := it.emitPending(out, max); err != nil || full {
				return full, err
			}
		}
		if it.left == nil || it.pos >= it.left.Len() {
			if out.n >= max {
				return true, nil
			}
			it.gather(out)
			b, ok, err := it.li.NextBatch(max)
			if err != nil {
				return false, err
			}
			if !ok {
				it.left = nil
				return false, nil
			}
			if it.keyVecs == nil {
				it.keyVecs = make([][]sqltypes.Value, len(it.lkeys))
			}
			for i, k := range it.lkeys {
				if it.keyVecs[i], err = k(it.ctx, b); err != nil {
					return false, err
				}
			}
			it.left, it.pos = b, 0
		}
		for it.pos < it.left.Len() {
			if out.n >= max {
				return true, nil
			}
			p := it.left.LiveAt(it.pos)
			it.pos++
			nullKey := false
			for c := range it.keyVecs {
				v := it.keyVecs[c][p]
				if v.IsNull() {
					nullKey = true
					break
				}
				it.keyBuf[c] = v
			}
			it.pendActive = true
			it.pendIdx = 0
			it.pendMatched = false
			it.pendPos = p
			if nullKey {
				it.pend = nil // NULL keys never join
			} else {
				it.pend = it.table.lookup(it.keyBuf)
			}
			if it.j.Residual != nil {
				for c := 0; c < it.lWidth; c++ {
					it.joined[c] = it.left.Cols[c][p]
				}
			}
			if full, err := it.emitPending(out, max); err != nil || full {
				return full, err
			}
		}
	}
}

func (it *batchHashJoinIter) Close() error { return it.li.Close() }
