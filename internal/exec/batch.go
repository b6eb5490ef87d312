// Vectorized batch execution. A Batch carries a chunk of rows column-wise
// (one value vector per output column) plus a selection vector of live
// positions, so operators can process many rows per virtual call and
// expression evaluation can run tight per-column loops instead of
// per-row interface dispatch. Batch operators implement both BatchNode and
// the row Node interface (through an adapter), so batch and row operators
// compose freely and the refactor lands incrementally.
package exec

import (
	"time"

	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// DefaultBatchSize is the number of rows a batch operator requests per
// NextBatch call: large enough to amortize dispatch, small enough to stay
// cache-resident.
const DefaultBatchSize = 1024

// Batch is a column-major chunk of rows. Cols holds one vector per column;
// all vectors have the same physical length. Sel, when non-nil, lists the
// physical positions that are live (in output order); when nil all physical
// positions are live. A zero-column batch represents rows with no columns
// (the Single relation), so the physical length is tracked explicitly.
type Batch struct {
	Cols [][]sqltypes.Value
	Sel  []int
	n    int // physical row count
}

// NewBatch allocates a batch of the given width with capacity for cap rows.
func NewBatch(width, capacity int) *Batch {
	cols := make([][]sqltypes.Value, width)
	for i := range cols {
		cols[i] = make([]sqltypes.Value, 0, capacity)
	}
	return &Batch{Cols: cols}
}

// Physical returns the physical row count (including filtered-out rows).
func (b *Batch) Physical() int { return b.n }

// Len returns the live row count.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Width returns the column count.
func (b *Batch) Width() int { return len(b.Cols) }

// LiveAt returns the physical position of the i-th live row.
func (b *Batch) LiveAt(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// AppendRow adds one row at the end of the batch (must not have a selection
// vector yet).
func (b *Batch) AppendRow(r storage.Row) {
	for i := range b.Cols {
		b.Cols[i] = append(b.Cols[i], r[i])
	}
	b.n++
}

// SetPhysical records the physical length for batches filled column-wise
// (or zero-width batches).
func (b *Batch) SetPhysical(n int) { b.n = n }

// Row materializes the live row at physical position pos.
func (b *Batch) Row(pos int) storage.Row {
	out := make(storage.Row, len(b.Cols))
	for i, c := range b.Cols {
		out[i] = c[pos]
	}
	return out
}

// AppendTo materializes all live rows onto dst and returns it. The rows are
// carved out of one arena allocation per batch (rather than one per row),
// which is where batch execution recovers most of its materialization cost.
func (b *Batch) AppendTo(dst []storage.Row) []storage.Row {
	n := b.Len()
	w := len(b.Cols)
	if n == 0 || w == 0 {
		for i := 0; i < n; i++ {
			dst = append(dst, storage.Row{})
		}
		return dst
	}
	arena := make([]sqltypes.Value, n*w)
	for i := 0; i < n; i++ {
		p := b.LiveAt(i)
		row := arena[i*w : (i+1)*w : (i+1)*w]
		for c, col := range b.Cols {
			row[c] = col[p]
		}
		dst = append(dst, row)
	}
	return dst
}

// Narrow returns a view of the batch restricted to the given physical
// positions (a filter's survivors, or the positions a kernel leaves to its
// generic form). The column vectors are shared, not copied.
func (b *Batch) Narrow(sel []int) *Batch {
	return &Batch{Cols: b.Cols, Sel: sel, n: b.n}
}

// BatchIter produces batches of up to max rows. It returns (nil, false, nil)
// at end of stream; a returned batch is owned by the iterator and only valid
// until the next NextBatch call.
type BatchIter interface {
	NextBatch(max int) (*Batch, bool, error)
	Close() error
}

// BatchNode is a physical plan node with a native batch execution path. All
// batch operators also implement the row Node interface via an adapter, so
// they can feed row-at-a-time parents.
type BatchNode interface {
	Node
	OpenBatch(ctx *Ctx) (BatchIter, error)
}

// OpenBatches opens any node as a batch iterator: natively when the node is
// batch-capable, otherwise through a row-to-batch transposing adapter.
func OpenBatches(n Node, ctx *Ctx) (BatchIter, error) {
	var st *OpStats
	var start time.Time
	if ctx.prof != nil {
		st = ctx.prof.statsFor(n)
		st.Opens++
		start = time.Now()
	}
	if bn, ok := n.(BatchNode); ok {
		it, err := bn.OpenBatch(ctx)
		if err != nil {
			return nil, err
		}
		bi := BatchIter(contractWrap(it))
		if st != nil {
			st.Time += time.Since(start)
			bi = &profBatchIter{in: bi, st: st}
		}
		return bi, nil
	}
	it, err := n.Open(ctx)
	if err != nil {
		return nil, err
	}
	bi := BatchIter(contractWrap(&rowToBatchIter{in: it, width: len(n.Schema())}))
	if st != nil {
		st.Time += time.Since(start)
		bi = &profBatchIter{in: bi, st: st}
	}
	return bi, nil
}

// DrainBatches materializes all rows of a node, pulling batches when the
// node (or its adapter) supports them.
func DrainBatches(n Node, ctx *Ctx) ([]storage.Row, error) {
	bi, err := OpenBatches(n, ctx)
	if err != nil {
		return nil, err
	}
	defer bi.Close()
	var out []storage.Row
	for {
		if err := ctx.Cancelled(); err != nil {
			return nil, err
		}
		b, ok, err := bi.NextBatch(DefaultBatchSize)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = b.AppendTo(out)
	}
}

// ---------------------------------------------------------------------------
// Bridge adapters
// ---------------------------------------------------------------------------

// rowToBatchIter transposes a row iterator into batches.
type rowToBatchIter struct {
	in    Iter
	width int
	buf   *Batch
}

func (r *rowToBatchIter) NextBatch(max int) (*Batch, bool, error) {
	if r.buf == nil {
		r.buf = NewBatch(r.width, 0) // grows to the rows that arrive
	}
	b := r.buf
	b.Sel = nil
	b.n = 0
	for i := range b.Cols {
		b.Cols[i] = b.Cols[i][:0]
	}
	for b.n < max {
		row, ok, err := r.in.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		b.AppendRow(row)
	}
	if b.n == 0 {
		return nil, false, nil
	}
	return b, true, nil
}

func (r *rowToBatchIter) Close() error { return r.in.Close() }

// batchToRowIter flattens a batch iterator into rows.
type batchToRowIter struct {
	in  BatchIter
	cur *Batch
	pos int // index into the live rows of cur
}

func (b *batchToRowIter) Next() (storage.Row, bool, error) {
	for {
		if b.cur != nil && b.pos < b.cur.Len() {
			row := b.cur.Row(b.cur.LiveAt(b.pos))
			b.pos++
			return row, true, nil
		}
		nb, ok, err := b.in.NextBatch(DefaultBatchSize)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		b.cur, b.pos = nb, 0
	}
}

func (b *batchToRowIter) Close() error { return b.in.Close() }

// openRowsViaBatches implements Node.Open for batch operators.
func openRowsViaBatches(n BatchNode, ctx *Ctx) (Iter, error) {
	bi, err := n.OpenBatch(ctx)
	if err != nil {
		return nil, err
	}
	return &batchToRowIter{in: bi}, nil
}
