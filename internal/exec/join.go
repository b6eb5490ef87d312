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

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

// NLJoin is a nested-loop join. The right side is re-opened per left row, so
// it supports parameterized right children (e.g. index lookups keyed on the
// left row via correlation parameters set by an enclosing Apply) — but in
// its plain form the right side is materialized once for efficiency.
// Cond is evaluated against the concatenated row; nil means always true.
type NLJoin struct {
	Kind   algebra.JoinKind
	Cond   Evaluator // over concat(L, R) schema
	L, R   Node
	Rescan bool // re-open R per left row instead of materializing
	schema []algebra.Column
}

// NewNLJoin builds a nested-loop join node.
func NewNLJoin(kind algebra.JoinKind, cond Evaluator, l, r Node, rescan bool) *NLJoin {
	return &NLJoin{Kind: kind, Cond: cond, L: l, R: r, Rescan: rescan,
		schema: joinSchema(kind, l, r)}
}

// Schema implements Node.
func (j *NLJoin) Schema() []algebra.Column { return j.schema }

// Open implements Node.
func (j *NLJoin) Open(ctx *Ctx) (Iter, error) {
	li, err := OpenRows(j.L, ctx)
	if err != nil {
		return nil, err
	}
	it := &nlJoinIter{j: j, ctx: ctx, li: li, rWidth: len(j.R.Schema())}
	if !j.Rescan {
		rows, err := Drain(j.R, ctx)
		if err != nil {
			li.Close()
			return nil, err
		}
		it.rRows = rows
		it.haveRRows = true
	}
	return it, nil
}

type nlJoinIter struct {
	j         *NLJoin
	ctx       *Ctx
	li        Iter
	rRows     []storage.Row
	haveRRows bool
	rWidth    int

	left     storage.Row
	rPos     int
	matched  bool
	active   bool
	emitLeft storage.Row // pending left-outer null-extension
}

func (it *nlJoinIter) Next() (storage.Row, bool, error) {
outer:
	for {
		if it.emitLeft != nil {
			row := concatRows(it.emitLeft, nullRow(it.rWidth))
			it.emitLeft = nil
			return row, true, nil
		}
		if !it.active {
			if err := it.ctx.Cancelled(); err != nil {
				return nil, false, err
			}
			l, ok, err := it.li.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.left = l
			it.rPos = 0
			it.matched = false
			it.active = true
			if it.j.Rescan {
				rows, err := Drain(it.j.R, it.ctx)
				if err != nil {
					return nil, false, err
				}
				it.rRows = rows
			}
		}
		for it.rPos < len(it.rRows) {
			r := it.rRows[it.rPos]
			it.rPos++
			match := true
			var joined storage.Row
			if it.j.Cond != nil {
				joined = concatRows(it.left, r)
				v, err := it.j.Cond(it.ctx, joined)
				if err != nil {
					return nil, false, err
				}
				match = sqltypes.TriOf(v) == sqltypes.True
			}
			if !match {
				continue
			}
			it.matched = true
			switch it.j.Kind {
			case algebra.SemiJoin:
				it.active = false
				return it.left, true, nil
			case algebra.AntiJoin:
				it.active = false
				continue outer
			default:
				if joined == nil {
					joined = concatRows(it.left, r)
				}
				return joined, true, nil
			}
		}
		// Right side exhausted for this left row.
		it.active = false
		switch it.j.Kind {
		case algebra.AntiJoin:
			if !it.matched {
				return it.left, true, nil
			}
		case algebra.LeftOuterJoin:
			if !it.matched {
				row := concatRows(it.left, nullRow(it.rWidth))
				return row, true, nil
			}
		}
	}
}

func (it *nlJoinIter) Close() error { return it.li.Close() }

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

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
	// Build phase on the right input. Single integer keys use a dedicated
	// map to avoid per-row key encoding (the common foreign-key case).
	rRows, err := Drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	table := make(map[string][]storage.Row)
	intTable := make(map[int64][]storage.Row, len(rRows))
	intsOnly := len(j.RKeys) == 1
	keyBuf := make([]sqltypes.Value, len(j.RKeys))
	for _, r := range rRows {
		nullKey := false
		for i, k := range j.RKeys {
			v, err := k(ctx, r)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				nullKey = true
				break
			}
			keyBuf[i] = v
		}
		if nullKey {
			continue // NULL keys never join
		}
		if intsOnly && keyBuf[0].Kind() == sqltypes.KindInt {
			ik := keyBuf[0].Int()
			intTable[ik] = append(intTable[ik], r)
			continue
		}
		if intsOnly {
			intsOnly = false
			var buf []byte
			for ik, rows := range intTable {
				buf = sqltypes.EncodeKey(buf[:0], sqltypes.NewInt(ik))
				table[string(buf)] = rows
			}
			intTable = nil
		}
		k := sqltypes.KeyOf(keyBuf...)
		table[k] = append(table[k], r)
	}
	li, err := OpenRows(j.L, ctx)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{j: j, ctx: ctx, li: li, table: table, intTable: intTable,
		intsOnly: intsOnly, rWidth: len(j.R.Schema()),
		keys: make([]sqltypes.Value, len(j.LKeys))}, nil
}

type hashJoinIter struct {
	j        *HashJoin
	ctx      *Ctx
	li       Iter
	table    map[string][]storage.Row
	intTable map[int64][]storage.Row
	intsOnly bool
	rWidth   int
	keys     []sqltypes.Value // probe-key buffer, reused for every left row

	left    storage.Row
	bucket  []storage.Row
	pos     int
	matched bool
	active  bool
}

// lookup finds the build-side bucket for probe key values.
func (it *hashJoinIter) lookup(keys []sqltypes.Value) []storage.Row {
	if it.intsOnly {
		if keys[0].Kind() == sqltypes.KindInt {
			return it.intTable[keys[0].Int()]
		}
		// Numeric cross-kind probe (float against int build keys): fall
		// back to the encoded form against the int table.
		if f, ok := keys[0].AsFloat(); ok && f == float64(int64(f)) {
			return it.intTable[int64(f)]
		}
		return nil
	}
	return it.table[sqltypes.KeyOf(keys...)]
}

func (it *hashJoinIter) Next() (storage.Row, bool, error) {
outer:
	for {
		if !it.active {
			if err := it.ctx.Cancelled(); err != nil {
				return nil, false, err
			}
			l, ok, err := it.li.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.left = l
			it.matched = false
			it.pos = 0
			it.active = true
			it.bucket = nil
			nullKey := false
			for i, k := range it.j.LKeys {
				v, err := k(it.ctx, l)
				if err != nil {
					return nil, false, err
				}
				if v.IsNull() {
					nullKey = true
					break
				}
				it.keys[i] = v
			}
			if !nullKey {
				it.bucket = it.lookup(it.keys)
			}
		}
		for it.pos < len(it.bucket) {
			r := it.bucket[it.pos]
			it.pos++
			joined := concatRows(it.left, r)
			if it.j.Residual != nil {
				v, err := it.j.Residual(it.ctx, joined)
				if err != nil {
					return nil, false, err
				}
				if sqltypes.TriOf(v) != sqltypes.True {
					continue
				}
			}
			it.matched = true
			switch it.j.Kind {
			case algebra.SemiJoin:
				it.active = false
				return it.left, true, nil
			case algebra.AntiJoin:
				it.active = false
				continue outer
			default:
				return joined, true, nil
			}
		}
		it.active = false
		switch it.j.Kind {
		case algebra.AntiJoin:
			if !it.matched {
				return it.left, true, nil
			}
		case algebra.LeftOuterJoin:
			if !it.matched {
				return concatRows(it.left, nullRow(it.rWidth)), true, nil
			}
		}
	}
}

func (it *hashJoinIter) Close() error { return it.li.Close() }
