package exec

import (
	"sync"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// VecEvaluator is a compiled scalar expression over a whole batch. The
// returned vector has the batch's physical length and is meaningful only at
// the batch's live positions; it may be an internal buffer owned by the
// evaluator (valid until its next invocation) or a column vector of the
// input batch, so callers must not mutate it.
//
// A VecEvaluator instance reuses its scratch buffers across batches and is
// therefore NOT safe for concurrent use. Plans store VecFactory values and
// instantiate fresh evaluators per execution (in OpenBatch), which is what
// lets one compiled plan — e.g. out of the query service's shared plan
// cache — execute concurrently in many sessions.
type VecEvaluator func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error)

// VecFactory instantiates a per-execution VecEvaluator. Factories are
// stateless and safe to share; every execution of a plan calls the factory
// once and owns the resulting evaluator (and its scratch buffers).
type VecFactory func() VecEvaluator

// stateless wraps an evaluator with no per-execution state (no scratch
// buffers) as a factory returning the shared instance.
func stateless(ev VecEvaluator) VecFactory {
	return func() VecEvaluator { return ev }
}

// Instantiate materializes one evaluator per factory.
func Instantiate(fs []VecFactory) []VecEvaluator {
	out := make([]VecEvaluator, len(fs))
	for i, f := range fs {
		out[i] = f()
	}
	return out
}

// vecBuf sizes a reusable result buffer to the batch's physical length.
func vecBuf(buf []sqltypes.Value, n int) []sqltypes.Value {
	if cap(buf) < n {
		return make([]sqltypes.Value, n)
	}
	return buf[:n]
}

// CompileVec translates an algebra expression into a factory of batched
// evaluators against the given input schema. Only the forms that pay as
// vector loops are native: column references, constants, parameters, the
// fused float kernels (vec_kernel.go) and generic arithmetic; a comparison,
// and an AND chain of kernel compares on one column, widen CompilePred's
// truth vector. Every other expression (CASE, builtin and UDF calls, NOT,
// IS NULL, other AND/OR, subqueries, EXISTS) compiles once with the row
// Compile and runs over each live row (rowVec), so its evaluation order,
// short circuits and first error are the row engine's.
func CompileVec(e algebra.Expr, schema []algebra.Column, r CallResolver) (VecFactory, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		idx := algebra.RefIndex(schema, x.Qual, x.Name)
		if idx < 0 {
			return nil, Errorf("unresolved column %s", x)
		}
		col := schema[idx]
		return stateless(func(_ *Ctx, b *Batch) ([]sqltypes.Value, error) {
			if idx >= b.Width() {
				return nil, Errorf("batch too narrow for column %s", col)
			}
			return b.Cols[idx], nil
		}), nil

	case *algebra.Const:
		return stateless((&constVec{v: x.Val}).eval), nil

	case *algebra.ParamRef:
		name := x.Name
		return func() VecEvaluator {
			var buf []sqltypes.Value
			return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
				v, ok := ctx.Get(name)
				if !ok {
					return nil, Errorf("unknown variable %q", name)
				}
				buf = vecBuf(buf, b.Physical())
				for i := range buf {
					buf[i] = v
				}
				return buf, nil
			}
		}, nil

	case *algebra.Arith:
		// Single-column float chains fuse into a kernel (see
		// vec_kernel.go): one gather, a loop per step, one write per element.
		if idx, steps, ok := floatKernelExpr(x, schema); ok && len(steps) > 0 {
			return compileArithKernel(x, idx, steps, schema, r)
		}
		return compileArith(x, schema, r)

	case *algebra.Cmp, *algebra.Logic:
		pF, err := nativePred(e, schema, r)
		if err != nil {
			return nil, err
		}
		if pF != nil {
			return widen(pF), nil
		}
	}
	return rowVec(e, schema, r)
}

// widen evaluates a predicate's truth vector as BOOLEAN values.
func widen(pF PredFactory) VecFactory {
	return func() VecEvaluator {
		pred := pF()
		var tri []sqltypes.Tri
		var buf []sqltypes.Value
		return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
			tri = triBuf(tri, b.Physical())
			if err := pred(ctx, b, tri); err != nil {
				return nil, err
			}
			buf = vecBuf(buf, b.Physical())
			for p, t := range tri { // dead positions widen stale bytes, unread
				buf[p] = sqltypes.TriValue(t)
			}
			return buf, nil
		}
	}
}

// compileArith is the generic vectorized form of an arithmetic node: both
// operands evaluate as value vectors, then combine element by element.
func compileArith(x *algebra.Arith, schema []algebra.Column, r CallResolver) (VecFactory, error) {
	lF, err := CompileVec(x.L, schema, r)
	if err != nil {
		return nil, err
	}
	rF, err := CompileVec(x.R, schema, r)
	if err != nil {
		return nil, err
	}
	op := x.Op
	return func() VecEvaluator {
		l, rhs := lF(), rF()
		var buf []sqltypes.Value
		return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
			lv, err := l(ctx, b)
			if err != nil {
				return nil, err
			}
			rv, err := rhs(ctx, b)
			if err != nil {
				return nil, err
			}
			buf = vecBuf(buf, b.Physical())
			n := b.Len()
			for i := 0; i < n; i++ {
				p := b.LiveAt(i)
				a, c := lv[p], rv[p]
				// Inlined numeric kernels for the non-erroring cases; zero
				// divisors and non-numeric operands take the generic path so
				// errors and NULL propagation match the row engine exactly.
				ak, ck := a.Kind(), c.Kind()
				if ak == sqltypes.KindInt && ck == sqltypes.KindInt {
					x, y := a.Int(), c.Int()
					switch op {
					case sqltypes.OpAdd:
						buf[p] = sqltypes.NewInt(x + y)
						continue
					case sqltypes.OpSub:
						buf[p] = sqltypes.NewInt(x - y)
						continue
					case sqltypes.OpMul:
						buf[p] = sqltypes.NewInt(x * y)
						continue
					case sqltypes.OpDiv:
						if y != 0 {
							buf[p] = sqltypes.NewInt(x / y)
							continue
						}
					case sqltypes.OpMod:
						if y != 0 {
							buf[p] = sqltypes.NewInt(x % y)
							continue
						}
					}
				} else if (ak == sqltypes.KindInt || ak == sqltypes.KindFloat) &&
					(ck == sqltypes.KindInt || ck == sqltypes.KindFloat) {
					x, _ := a.AsFloat()
					y, _ := c.AsFloat()
					switch op {
					case sqltypes.OpAdd:
						buf[p] = sqltypes.NewFloat(x + y)
						continue
					case sqltypes.OpSub:
						buf[p] = sqltypes.NewFloat(x - y)
						continue
					case sqltypes.OpMul:
						buf[p] = sqltypes.NewFloat(x * y)
						continue
					case sqltypes.OpDiv:
						if y != 0 {
							buf[p] = sqltypes.NewFloat(x / y)
							continue
						}
					}
				}
				v, err := sqltypes.Arith(op, a, c)
				if err != nil {
					return nil, err
				}
				buf[p] = v
			}
			return buf, nil
		}
	}, nil
}

// constVec serves a constant as a read-only vector that all instances (and
// concurrent executions) share. It is built at its first use, so a constant
// that never runs (a kernel's fallback operand) costs no vector. Batches
// larger than the default size allocate per call.
type constVec struct {
	v    sqltypes.Value
	once sync.Once
	vec  []sqltypes.Value
}

func (c *constVec) eval(_ *Ctx, b *Batch) ([]sqltypes.Value, error) {
	n := b.Physical()
	if n > DefaultBatchSize {
		return c.fill(n), nil
	}
	c.once.Do(func() { c.vec = c.fill(DefaultBatchSize) })
	return c.vec[:n], nil
}

func (c *constVec) fill(n int) []sqltypes.Value {
	buf := make([]sqltypes.Value, n)
	for i := range buf {
		buf[i] = c.v
	}
	return buf
}

// compileRow compiles e with the row Compile against only the columns it
// reads. The narrowed schema keeps schema order, so each reference resolves
// to the column algebra.RefIndex picks in the full schema. An expression
// holding a subquery or EXISTS reads the whole row: its correlation may
// name any column.
func compileRow(e algebra.Expr, schema []algebra.Column, r CallResolver) (Evaluator, []int, error) {
	read := make([]bool, len(schema))
	whole := false
	algebra.VisitExpr(e, func(x algebra.Expr) {
		if c, ok := x.(*algebra.ColRef); ok {
			if i := algebra.RefIndex(schema, c.Qual, c.Name); i >= 0 {
				read[i] = true
			}
		}
	}, func(algebra.Rel) { whole = true })
	var cols []int
	var sub []algebra.Column
	for i, ok := range read {
		if ok || whole {
			cols = append(cols, i)
			sub = append(sub, schema[i])
		}
	}
	ev, err := Compile(e, sub, r)
	return ev, cols, err
}

// rowGather feeds a row-compiled expression the columns it reads, one live
// row at a time: cols are their ordinals in the batch, in schema order.
type rowGather struct {
	cols []int
	row  storage.Row
}

// fits checks that b holds every gathered column.
func (g *rowGather) fits(b *Batch) error {
	if n := len(g.cols); n > 0 && g.cols[n-1] >= b.Width() {
		return Errorf("batch too narrow for column %d", g.cols[n-1])
	}
	return nil
}

// at gathers position p's row.
func (g *rowGather) at(b *Batch, p int) storage.Row {
	for j, c := range g.cols {
		g.row[j] = b.Cols[c][p]
	}
	return g.row
}

// rowVec evaluates e with the row compiler over each live row. (Row
// evaluators are stateless, so one compiled instance serves all
// executions; only the gather buffers are per-instance.)
func rowVec(e algebra.Expr, schema []algebra.Column, r CallResolver) (VecFactory, error) {
	ev, cols, err := compileRow(e, schema, r)
	if err != nil {
		return nil, err
	}
	return func() VecEvaluator {
		g := rowGather{cols, make(storage.Row, len(cols))}
		var buf []sqltypes.Value
		return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
			if err := g.fits(b); err != nil {
				return nil, err
			}
			buf = vecBuf(buf, b.Physical())
			for i, n := 0, b.Len(); i < n; i++ {
				p := b.LiveAt(i)
				v, err := ev(ctx, g.at(b, p))
				if err != nil {
					return nil, err
				}
				buf[p] = v
			}
			return buf, nil
		}
	}, nil
}

// CompileVecAll compiles a list of expressions against the same schema.
func CompileVecAll(exprs []algebra.Expr, schema []algebra.Column, r CallResolver) ([]VecFactory, error) {
	out := make([]VecFactory, len(exprs))
	for i, e := range exprs {
		f, err := CompileVec(e, schema, r)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}
