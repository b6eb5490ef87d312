package exec

import (
	"fmt"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// joinSchema computes the full output schema for a join kind.
func joinSchema(kind algebra.JoinKind, l, r Node) []algebra.Column {
	switch kind {
	case algebra.SemiJoin, algebra.AntiJoin:
		return l.Schema()
	default:
		return append(append([]algebra.Column{}, l.Schema()...), r.Schema()...)
	}
}

// outputList is the output list every join and index lookup carries:
// output column i copies position cols[i] of the operator's full output —
// concat(L, R) for a join, L alone for a semi or anti join, the table's
// columns for a lookup. A new operator emits every column in order;
// Narrow folds a column-only projection into the list, so the operator
// builds only the columns its consumers read.
type outputList struct {
	cols   []int
	width  int // the full output width
	schema []algebra.Column
}

func newOutputList(schema []algebra.Column) outputList {
	cols := make([]int, len(schema))
	for i := range cols {
		cols[i] = i
	}
	return outputList{cols: cols, width: len(schema), schema: schema}
}

func newJoinOutput(kind algebra.JoinKind, l, r Node) outputList {
	return newOutputList(joinSchema(kind, l, r))
}

// Schema implements Node.
func (o *outputList) Schema() []algebra.Column { return o.schema }

// widthNote renders " cols=k/n" for EXPLAIN ANALYZE when the operator
// emits k of its n output columns, and nothing when it emits all of them.
func (o *outputList) widthNote() string {
	if len(o.cols) == o.width {
		return ""
	}
	return fmt.Sprintf(" cols=%d/%d", len(o.cols), o.width)
}

// Narrow folds a column-only projection into n's output list: n emits
// column pick[i] of its current output as column i, under schema. It
// reports false, changing nothing, when n is neither a join nor an index
// lookup.
func Narrow(n Node, pick []int, schema []algebra.Column) bool {
	var o *outputList
	switch x := n.(type) {
	case *NLJoin:
		o = &x.outputList
	case *HashJoin:
		o = &x.outputList
	case *Apply:
		o = &x.outputList
	case *BatchHashJoin:
		o = &x.outputList
	case *IndexLookup:
		o, x.folded = &x.outputList, true
	default:
		return false
	}
	cols := make([]int, len(pick))
	for i, c := range pick {
		cols[i] = o.cols[c]
	}
	o.cols, o.schema = cols, schema
	return true
}

// rowJoinIter is the row executor's join loop, shared by NLJoin, HashJoin
// and Apply. For each left row, candidates returns the right rows that may
// match; cond, when non-nil, must hold over the concatenated row for a
// candidate to match. Inner and left outer joins emit each match, and a
// left outer join null-extends a left row without one; a semi join emits
// the left row at its first match, an anti join when it has none. Every
// emitted row holds the columns of the output list.
type rowJoinIter struct {
	kind       algebra.JoinKind
	cond       Evaluator // over concat(L, R)
	candidates func(left storage.Row) ([]storage.Row, error)
	ctx        *Ctx
	li         Iter
	cols       []int // the output list
	lWidth     int

	left    storage.Row
	joined  storage.Row   // concat(left, candidate) for cond, reused
	rows    []storage.Row // candidates for left
	pos     int
	matched bool
	active  bool
}

// emit builds one output row: the current left row joined with r, or with
// NULLs when r is nil.
func (it *rowJoinIter) emit(r storage.Row) storage.Row {
	row := make(storage.Row, len(it.cols))
	for i, c := range it.cols {
		if c < it.lWidth {
			row[i] = it.left[c]
		} else if r != nil {
			row[i] = r[c-it.lWidth]
		}
	}
	return row
}

func (it *rowJoinIter) Next() (storage.Row, bool, error) {
	for {
		if !it.active {
			if err := it.ctx.Cancelled(); err != nil {
				return nil, false, err
			}
			l, ok, err := it.li.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			rows, err := it.candidates(l)
			if err != nil {
				return nil, false, err
			}
			it.left, it.rows, it.pos, it.matched, it.active = l, rows, 0, false, true
			if it.cond != nil {
				it.joined = append(it.joined[:0], l...)
			}
		}
		for it.pos < len(it.rows) {
			r := it.rows[it.pos]
			it.pos++
			if it.cond != nil {
				it.joined = append(it.joined[:it.lWidth], r...)
				v, err := it.cond(it.ctx, it.joined)
				if err != nil {
					return nil, false, err
				}
				if sqltypes.TriOf(v) != sqltypes.True {
					continue
				}
			}
			it.matched = true
			if it.kind == algebra.SemiJoin || it.kind == algebra.AntiJoin {
				break // the first match decides
			}
			return it.emit(r), true, nil
		}
		it.active = false
		switch {
		case it.kind == algebra.SemiJoin && it.matched, it.kind == algebra.AntiJoin && !it.matched,
			it.kind == algebra.LeftOuterJoin && !it.matched:
			return it.emit(nil), true, nil
		}
	}
}

func (it *rowJoinIter) Close() error { return it.li.Close() }

// NLJoin is a nested-loop join: the right side is materialized once and
// every left row is matched against all of it. Cond is evaluated against
// the concatenated row; nil means always true.
type NLJoin struct {
	Kind algebra.JoinKind
	Cond Evaluator // over concat(L, R) schema
	L, R Node
	outputList
}

// NewNLJoin builds a nested-loop join node.
func NewNLJoin(kind algebra.JoinKind, cond Evaluator, l, r Node) *NLJoin {
	return &NLJoin{Kind: kind, Cond: cond, L: l, R: r, outputList: newJoinOutput(kind, l, r)}
}

// Open implements Node.
func (j *NLJoin) Open(ctx *Ctx) (Iter, error) {
	li, err := OpenRows(j.L, ctx)
	if err != nil {
		return nil, err
	}
	rRows, err := Drain(j.R, ctx)
	if err != nil {
		li.Close()
		return nil, err
	}
	return &rowJoinIter{kind: j.Kind, cond: j.Cond, ctx: ctx, li: li, cols: j.cols, lWidth: len(j.L.Schema()),
		candidates: func(storage.Row) ([]storage.Row, error) { return rRows, nil }}, nil
}

// HashJoin is an equi-join that builds a hash table on the right input.
// LKeys and RKeys are the compiled equi-key expressions (over the left and
// right schemas respectively); Residual, when non-nil, is an extra predicate
// over the concatenated row.
type HashJoin struct {
	Kind     algebra.JoinKind
	LKeys    []Evaluator
	RKeys    []Evaluator
	Residual Evaluator
	L, R     Node
	outputList
}

// NewHashJoin builds a hash join node.
func NewHashJoin(kind algebra.JoinKind, lkeys, rkeys []Evaluator, residual Evaluator, l, r Node) *HashJoin {
	return &HashJoin{Kind: kind, LKeys: lkeys, RKeys: rkeys, Residual: residual,
		L: l, R: r, outputList: newJoinOutput(kind, l, r)}
}

// Open implements Node. A left row's candidates are the drained right rows
// that share its key.
func (j *HashJoin) Open(ctx *Ctx) (Iter, error) {
	rRows, err := Drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	t, err := newRowBuildSide(ctx, j, rRows)
	if err != nil {
		return nil, err
	}
	li, err := OpenRows(j.L, ctx)
	if err != nil {
		return nil, err
	}
	return &rowJoinIter{kind: j.Kind, cond: j.Residual, ctx: ctx, li: li, cols: j.cols, lWidth: len(j.L.Schema()),
		candidates: t.candidates}, nil
}

// rowBuildSide is the row HashJoin's build side: its drained right rows,
// indexed by ordinal in a joinPart.
type rowBuildSide struct {
	ctx   *Ctx
	probe []Evaluator // the left keys
	rows  []storage.Row
	part  joinPart
	key   []sqltypes.Value   // one row's keys, build then probe
	vecs  [][]sqltypes.Value // key as one-row vectors
	cands []storage.Row      // reused: rowJoinIter is done with the last left row's
}

// newRowBuildSide indexes j's drained right rows by its right keys.
func newRowBuildSide(ctx *Ctx, j *HashJoin, rows []storage.Row) (*rowBuildSide, error) {
	if err := checkOrdinals(len(rows)); err != nil {
		return nil, err
	}
	n := len(j.RKeys)
	t := &rowBuildSide{ctx: ctx, probe: j.LKeys, rows: rows, key: make([]sqltypes.Value, n), vecs: make([][]sqltypes.Value, n)}
	for c := range t.vecs {
		t.vecs[c] = t.key[c : c+1]
	}
	ids := make([]int32, len(rows)) // -1 for a NULL key
	for o, r := range rows {
		ok, err := evalJoinKeys(ctx, j.RKeys, r, t.key)
		if err != nil {
			return nil, err
		}
		ids[o] = -1
		if ok {
			ids[o], _ = t.part.keys.Add(t.vecs, 0)
		}
	}
	t.part.layout(ids, nil)
	return t, nil
}

// candidates returns the right rows whose key equals left row l's.
func (t *rowBuildSide) candidates(l storage.Row) ([]storage.Row, error) {
	ok, err := evalJoinKeys(t.ctx, t.probe, l, t.key)
	if !ok {
		return nil, err
	}
	t.cands = t.cands[:0]
	for _, o := range t.part.get(t.vecs, 0) {
		t.cands = append(t.cands, t.rows[o])
	}
	return t.cands, nil
}

// evalJoinKeys evaluates key expressions over row into keys and reports
// whether every key is non-NULL (NULL keys never join).
func evalJoinKeys(ctx *Ctx, evs []Evaluator, row storage.Row, keys []sqltypes.Value) (bool, error) {
	for i, k := range evs {
		v, err := k(ctx, row)
		if err != nil || v.IsNull() {
			return false, err
		}
		keys[i] = v
	}
	return true, nil
}
