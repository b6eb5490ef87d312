package exec

import (
	"sort"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// ---------------------------------------------------------------------------
// TableScan
// ---------------------------------------------------------------------------

// TableScan reads every row of a base table, except the segments whose
// zones rule out one of its bounds (see zone.go).
type TableScan struct {
	Tab    *storage.Table
	Bounds []ScanBound
	schema []algebra.Column
}

// NewTableScan builds a scan over a table with the given output schema.
func NewTableScan(tab *storage.Table, schema []algebra.Column) *TableScan {
	return &TableScan{Tab: tab, schema: schema}
}

// Schema implements Node.
func (t *TableScan) Schema() []algebra.Column { return t.schema }

// Open implements Node.
func (t *TableScan) Open(ctx *Ctx) (Iter, error) {
	if len(t.Bounds) > 0 {
		ver, overlay := ctx.TableVersion(t.Tab)
		n := ver.RowCount()
		if kept, pruned := keptSpans(ctx, t, t.Bounds, ver.Segments(), n+len(overlay)); pruned {
			it := &spansIter{segRows: n, overlay: overlay, spans: kept}
			if len(kept) > 0 && kept[0].lo < n {
				it.rows = ver.Rows()
			}
			return it, nil
		}
	}
	return &sliceIter{rows: ctx.TableRows(t.Tab)}, nil
}

// ---------------------------------------------------------------------------
// IndexLookup
// ---------------------------------------------------------------------------

// IndexLookup probes a hash index on one column with an equality key
// computed at open time (the key expression may reference parameters or
// correlation variables, so each Open can yield different rows). A
// column-only projection above it folds into its output list (Narrow): the
// lookup then copies only the projected columns and counts its rows as
// the projection did.
type IndexLookup struct {
	Tab    *storage.Table
	Col    string
	Key    Evaluator
	folded bool // a projection was folded into the output list
	outputList
}

// NewIndexLookup builds an index equality probe.
func NewIndexLookup(tab *storage.Table, col string, key Evaluator, schema []algebra.Column) *IndexLookup {
	return &IndexLookup{Tab: tab, Col: col, Key: key, outputList: newOutputList(schema)}
}

// Open implements Node.
func (n *IndexLookup) Open(ctx *Ctx) (Iter, error) {
	ver, overlay := ctx.TableVersion(n.Tab)
	key, err := n.Key(ctx, nil)
	if err != nil {
		return nil, err
	}
	if key.IsNull() {
		return &sliceIter{}, nil // NULL never matches an equality
	}
	ordinals, err := ver.Lookup(n.Col, key)
	if err != nil {
		return nil, err
	}
	var cols []int // nil: whole rows
	if n.folded {
		cols = n.cols
	}
	// The matches come out of the column segments into one arena (or as
	// views into an already built row view): a lookup touching a handful of
	// rows never forces the full row-view pivot.
	rows := ver.RowsAt(ordinals, cols, make([]storage.Row, 0, len(ordinals)+len(overlay)))
	// Uncommitted transaction-local rows are not in the version's index;
	// they are few, so a linear probe keeps read-your-writes correct.
	if len(overlay) > 0 {
		probe := sqltypes.KeyOf(key)
		ord := n.Tab.Meta.ColIndex(n.Col)
		for _, r := range overlay {
			if !r[ord].IsNull() && sqltypes.KeyOf(r[ord]) == probe {
				rows = append(rows, r.Pick(cols))
			}
		}
	}
	if n.folded {
		ctx.Counters.RowsProcessed += int64(len(rows))
	}
	return &sliceIter{rows: rows}, nil
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

// Filter passes rows whose predicate evaluates to TRUE.
type Filter struct {
	Pred  Evaluator
	Child Node
}

// Schema implements Node.
func (f *Filter) Schema() []algebra.Column { return f.Child.Schema() }

// Open implements Node.
func (f *Filter) Open(ctx *Ctx) (Iter, error) {
	it, err := OpenRows(f.Child, ctx)
	if err != nil {
		return nil, err
	}
	return &filterIter{pred: f.Pred, in: it, ctx: ctx}, nil
}

type filterIter struct {
	pred Evaluator
	in   Iter
	ctx  *Ctx
}

func (f *filterIter) Next() (storage.Row, bool, error) {
	for {
		if err := f.ctx.Cancelled(); err != nil {
			return nil, false, err
		}
		r, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := f.pred(f.ctx, r)
		if err != nil {
			return nil, false, err
		}
		if sqltypes.TriOf(v) == sqltypes.True {
			return r, true, nil
		}
	}
}

func (f *filterIter) Close() error { return f.in.Close() }

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

// Project computes output columns from each input row. With Dedup set it
// also eliminates duplicate output rows.
type Project struct {
	Exprs  []Evaluator
	Dedup  bool
	Child  Node
	schema []algebra.Column
}

// NewProject builds a projection node.
func NewProject(exprs []Evaluator, dedup bool, child Node, schema []algebra.Column) *Project {
	return &Project{Exprs: exprs, Dedup: dedup, Child: child, schema: schema}
}

// Schema implements Node.
func (p *Project) Schema() []algebra.Column { return p.schema }

// Open implements Node.
func (p *Project) Open(ctx *Ctx) (Iter, error) {
	it, err := OpenRows(p.Child, ctx)
	if err != nil {
		return nil, err
	}
	pi := &projectIter{exprs: p.Exprs, in: it, ctx: ctx}
	if p.Dedup {
		pi.seen = &sqltypes.KeyIndex{}
		pi.cols = make([][]sqltypes.Value, len(p.Exprs))
	}
	return pi, nil
}

type projectIter struct {
	exprs []Evaluator
	in    Iter
	ctx   *Ctx
	seen  *sqltypes.KeyIndex // non-nil for DISTINCT
	cols  [][]sqltypes.Value // DISTINCT: cols[i] views column i of the current row
}

func (p *projectIter) Next() (storage.Row, bool, error) {
	for {
		if err := p.ctx.Cancelled(); err != nil {
			return nil, false, err
		}
		r, ok, err := p.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		out := make(storage.Row, len(p.exprs))
		for i, e := range p.exprs {
			v, err := e(p.ctx, r)
			if err != nil {
				return nil, false, err
			}
			out[i] = v
		}
		if p.seen != nil && p.repeats(out) {
			continue
		}
		p.ctx.Counters.RowsProcessed++
		return out, true, nil
	}
}

// repeats reports whether a DISTINCT projection has already returned a row
// equal to out. It is a method of its own so that its key handling stays
// out of Next's frame.
func (p *projectIter) repeats(out storage.Row) bool {
	for i := range p.cols {
		p.cols[i] = out[i : i+1]
	}
	_, added := p.seen.Add(p.cols, 0)
	return !added
}

func (p *projectIter) Close() error { return p.in.Close() }

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

// Limit passes the first N rows.
type Limit struct {
	N     int64
	Child Node
}

// Schema implements Node.
func (l *Limit) Schema() []algebra.Column { return l.Child.Schema() }

// Open implements Node.
func (l *Limit) Open(ctx *Ctx) (Iter, error) {
	it, err := OpenRows(l.Child, ctx)
	if err != nil {
		return nil, err
	}
	return &limitIter{n: l.N, in: it}, nil
}

type limitIter struct {
	n    int64
	seen int64
	in   Iter
}

func (l *limitIter) Next() (storage.Row, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	r, ok, err := l.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return r, true, nil
}

func (l *limitIter) Close() error { return l.in.Close() }

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

// SortSpec is one compiled sort key.
type SortSpec struct {
	Key  Evaluator
	Desc bool
}

// Sort materializes and orders the child's rows.
type Sort struct {
	Keys  []SortSpec
	Child Node
}

// Schema implements Node.
func (s *Sort) Schema() []algebra.Column { return s.Child.Schema() }

// Open implements Node.
func (s *Sort) Open(ctx *Ctx) (Iter, error) {
	rows, err := Drain(s.Child, ctx)
	if err != nil {
		return nil, err
	}
	type keyed struct {
		row  storage.Row
		keys []sqltypes.Value
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		keys := make([]sqltypes.Value, len(s.Keys))
		for j, sp := range s.Keys {
			v, err := sp.Key(ctx, r)
			if err != nil {
				return nil, err
			}
			keys[j] = v
		}
		ks[i] = keyed{row: r, keys: keys}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		for k, sp := range s.Keys {
			c := sqltypes.TotalCompare(ks[i].keys[k], ks[j].keys[k])
			if c != 0 {
				if sp.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	out := make([]storage.Row, len(ks))
	for i, k := range ks {
		out[i] = k.row
	}
	return &sliceIter{rows: out}, nil
}

// ---------------------------------------------------------------------------
// UnionAll, Single, Values
// ---------------------------------------------------------------------------

// UnionAll concatenates two inputs.
type UnionAll struct {
	L, R Node
}

// Schema implements Node.
func (u *UnionAll) Schema() []algebra.Column { return u.L.Schema() }

// Open implements Node.
func (u *UnionAll) Open(ctx *Ctx) (Iter, error) {
	li, err := OpenRows(u.L, ctx)
	if err != nil {
		return nil, err
	}
	return &unionIter{ctx: ctx, cur: li, rest: u.R}, nil
}

type unionIter struct {
	ctx  *Ctx
	cur  Iter
	rest Node // nil once switched
}

func (u *unionIter) Next() (storage.Row, bool, error) {
	for {
		r, ok, err := u.cur.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return r, true, nil
		}
		if u.rest == nil {
			return nil, false, nil
		}
		if err := u.cur.Close(); err != nil {
			return nil, false, err
		}
		ri, err := OpenRows(u.rest, u.ctx)
		if err != nil {
			return nil, false, err
		}
		u.cur, u.rest = ri, nil
	}
}

func (u *unionIter) Close() error { return u.cur.Close() }

// Single produces one empty row (the S relation).
type Single struct{}

// Schema implements Node.
func (s *Single) Schema() []algebra.Column { return nil }

// Open implements Node.
func (s *Single) Open(ctx *Ctx) (Iter, error) {
	return &sliceIter{rows: []storage.Row{{}}}, nil
}

// Values produces a fixed materialized set of rows (temp tables).
type Values struct {
	Rows   []storage.Row
	schema []algebra.Column
}

// NewValues wraps materialized rows as a node.
func NewValues(rows []storage.Row, schema []algebra.Column) *Values {
	return &Values{Rows: rows, schema: schema}
}

// Schema implements Node.
func (v *Values) Schema() []algebra.Column { return v.schema }

// Open implements Node.
func (v *Values) Open(ctx *Ctx) (Iter, error) { return &sliceIter{rows: v.Rows}, nil }

// FuncTable evaluates a table-valued UDF at open time, materializing its
// rows. Argument evaluators run against parameters/correlation only.
type FuncTable struct {
	Name   string
	Args   []Evaluator
	schema []algebra.Column
}

// NewFuncTable builds a table-function node.
func NewFuncTable(name string, args []Evaluator, schema []algebra.Column) *FuncTable {
	return &FuncTable{Name: name, Args: args, schema: schema}
}

// Schema implements Node.
func (f *FuncTable) Schema() []algebra.Column { return f.schema }

// Open implements Node.
func (f *FuncTable) Open(ctx *Ctx) (Iter, error) {
	if ctx.Interp == nil {
		return nil, Errorf("table function %s requires an interpreter", f.Name)
	}
	args := make([]sqltypes.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a(ctx, nil)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	rows, err := ctx.Interp.CallTable(ctx, f.Name, args)
	if err != nil {
		return nil, err
	}
	return &sliceIter{rows: rows}, nil
}
