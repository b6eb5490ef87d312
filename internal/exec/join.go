package exec

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

func concatRows(l, r storage.Row) storage.Row {
	out := make(storage.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func nullRow(n int) storage.Row {
	out := make(storage.Row, n)
	for i := range out {
		out[i] = sqltypes.Null
	}
	return out
}

// joinSchema computes the output schema for a join kind.
func joinSchema(kind algebra.JoinKind, l, r Node) []algebra.Column {
	switch kind {
	case algebra.SemiJoin, algebra.AntiJoin:
		return l.Schema()
	default:
		return append(append([]algebra.Column{}, l.Schema()...), r.Schema()...)
	}
}

// rowJoinIter is the row executor's join loop, shared by NLJoin, HashJoin
// and Apply. For each left row, candidates returns the right rows that may
// match; cond, when non-nil, must hold over the concatenated row for a
// candidate to match. Inner and left outer joins emit each match, and a
// left outer join null-extends a left row without one; a semi join emits
// the left row at its first match, an anti join when it has none.
type rowJoinIter struct {
	kind       algebra.JoinKind
	cond       Evaluator // over concat(L, R)
	candidates func(left storage.Row) ([]storage.Row, error)
	ctx        *Ctx
	li         Iter
	rWidth     int

	left    storage.Row
	rows    []storage.Row // candidates for left
	pos     int
	matched bool
	active  bool
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
		}
		for it.pos < len(it.rows) {
			r := it.rows[it.pos]
			it.pos++
			var joined storage.Row
			if it.cond != nil {
				joined = concatRows(it.left, r)
				v, err := it.cond(it.ctx, joined)
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
			if joined == nil {
				joined = concatRows(it.left, r)
			}
			return joined, true, nil
		}
		it.active = false
		switch {
		case it.kind == algebra.SemiJoin && it.matched, it.kind == algebra.AntiJoin && !it.matched:
			return it.left, true, nil
		case it.kind == algebra.LeftOuterJoin && !it.matched:
			return concatRows(it.left, nullRow(it.rWidth)), true, nil
		}
	}
}

func (it *rowJoinIter) Close() error { return it.li.Close() }

// NLJoin is a nested-loop join: the right side is materialized once and
// every left row is matched against all of it. Cond is evaluated against
// the concatenated row; nil means always true.
type NLJoin struct {
	Kind   algebra.JoinKind
	Cond   Evaluator // over concat(L, R) schema
	L, R   Node
	schema []algebra.Column
}

// NewNLJoin builds a nested-loop join node.
func NewNLJoin(kind algebra.JoinKind, cond Evaluator, l, r Node) *NLJoin {
	return &NLJoin{Kind: kind, Cond: cond, L: l, R: r, schema: joinSchema(kind, l, r)}
}

// Schema implements Node.
func (j *NLJoin) Schema() []algebra.Column { return j.schema }

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
	return &rowJoinIter{kind: j.Kind, cond: j.Cond, ctx: ctx, li: li, rWidth: len(j.R.Schema()),
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
	schema   []algebra.Column
}

// NewHashJoin builds a hash join node.
func NewHashJoin(kind algebra.JoinKind, lkeys, rkeys []Evaluator, residual Evaluator, l, r Node) *HashJoin {
	return &HashJoin{Kind: kind, LKeys: lkeys, RKeys: rkeys, Residual: residual,
		L: l, R: r, schema: joinSchema(kind, l, r)}
}

// Schema implements Node.
func (j *HashJoin) Schema() []algebra.Column { return j.schema }

// Open implements Node.
func (j *HashJoin) Open(ctx *Ctx) (Iter, error) {
	rRows, err := Drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	table := newJoinPart(len(j.RKeys), len(rRows))
	keys := make([]sqltypes.Value, len(j.RKeys)) // build keys, then probe keys
	for _, r := range rRows {
		ok, err := evalJoinKeys(ctx, j.RKeys, r, keys)
		if err != nil {
			return nil, err
		}
		if ok {
			table.add(keys, r)
		}
	}
	li, err := OpenRows(j.L, ctx)
	if err != nil {
		return nil, err
	}
	return &rowJoinIter{kind: j.Kind, cond: j.Residual, ctx: ctx, li: li, rWidth: len(j.R.Schema()),
		candidates: func(l storage.Row) ([]storage.Row, error) {
			ok, err := evalJoinKeys(ctx, j.LKeys, l, keys)
			if !ok {
				return nil, err
			}
			return table.get(keys), nil
		}}, nil
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
