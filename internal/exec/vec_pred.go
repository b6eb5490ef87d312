package exec

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
)

// VecPredicate is a compiled predicate over a whole batch, producing
// three-valued truth bytes instead of boolean Values: filters never
// materialize boolean vectors (and never pay pointer write barriers for
// them). out has the batch's physical length and is meaningful only at live
// positions. Like VecEvaluator, an instance owns scratch buffers and is not
// safe for concurrent use; plans hold PredFactory values and instantiate per
// execution.
type VecPredicate func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error

// PredFactory instantiates a per-execution VecPredicate.
type PredFactory func() VecPredicate

// triBuf sizes a reusable truth buffer to the batch's physical length.
func triBuf(buf []sqltypes.Tri, n int) []sqltypes.Tri {
	if cap(buf) < n {
		return make([]sqltypes.Tri, n)
	}
	return buf[:n]
}

// CompilePred translates a predicate expression into a factory of batched
// three-valued evaluators. It is the one vectorized compiler of comparisons,
// AND/OR, NOT and IS NULL: CompileVec widens their truth vectors to BOOLEAN
// values, and CASE tests its WHEN conditions here. AND/OR evaluate their
// right side only where the left does not decide, so short-circuit
// semantics (e.g. guarded division) match the row engine; an AND chain of
// kernel compares on one column, which cannot fail, evaluates every
// conjunct in one pass instead (compileKernelPred). Any other
// expression evaluates through CompileVec and converts with TriOf, exactly
// as the row engine's filter does.
func CompilePred(e algebra.Expr, schema []algebra.Column, r CallResolver) (PredFactory, error) {
	switch x := e.(type) {
	case *algebra.Cmp:
		// Kernelizable side vs. constant fuses arithmetic and compare into
		// one vector loop per step (see vec_kernel.go).
		if pf, ok := compileKernelPred(x, schema, r); ok {
			return pf, nil
		}
		return compileCmpPred(x, schema, r)

	case *algebra.Logic:
		// An AND chain of kernel compares on one column gathers it once.
		if x.Op == algebra.LogicAnd {
			if pf, ok := compileKernelPred(x, schema, r); ok {
				return pf, nil
			}
		}
		return compileLogicPred(x, schema, r)

	case *algebra.Not:
		innerF, err := CompilePred(x.E, schema, r)
		if err != nil {
			return nil, err
		}
		return func() VecPredicate {
			inner := innerF()
			return func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error {
				if err := inner(ctx, b, out); err != nil {
					return err
				}
				n := b.Len()
				for i := 0; i < n; i++ {
					p := b.LiveAt(i)
					out[p] = out[p].Not()
				}
				return nil
			}
		}, nil

	case *algebra.IsNull:
		innerF, err := CompileVec(x.E, schema, r)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func() VecPredicate {
			inner := innerF()
			return func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error {
				iv, err := inner(ctx, b)
				if err != nil {
					return err
				}
				n := b.Len()
				for i := 0; i < n; i++ {
					p := b.LiveAt(i)
					if iv[p].IsNull() != neg {
						out[p] = sqltypes.True
					} else {
						out[p] = sqltypes.False
					}
				}
				return nil
			}
		}, nil

	default:
		evF, err := CompileVec(e, schema, r)
		if err != nil {
			return nil, err
		}
		return func() VecPredicate {
			ev := evF()
			return func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error {
				v, err := ev(ctx, b)
				if err != nil {
					return err
				}
				n := b.Len()
				for i := 0; i < n; i++ {
					p := b.LiveAt(i)
					out[p] = sqltypes.TriOf(v[p])
				}
				return nil
			}
		}, nil
	}
}

// compileLogicPred is the generic vectorized form of AND and OR: the right
// side evaluates only where the left does not decide.
func compileLogicPred(x *algebra.Logic, schema []algebra.Column, r CallResolver) (PredFactory, error) {
	lF, err := CompilePred(x.L, schema, r)
	if err != nil {
		return nil, err
	}
	rF, err := CompilePred(x.R, schema, r)
	if err != nil {
		return nil, err
	}
	isAnd := x.Op == algebra.LogicAnd
	// The left side decides AND where it is False and OR where it is True.
	decided := sqltypes.True
	if isAnd {
		decided = sqltypes.False
	}
	return func() VecPredicate {
		l, rhs := lF(), rF()
		var need []int
		var rt []sqltypes.Tri
		return func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error {
			if err := l(ctx, b, out); err != nil {
				return err
			}
			need = need[:0]
			n := b.Len()
			for i := 0; i < n; i++ {
				// Same short-circuit mask as the row engine: the right side
				// runs only where the left does not decide.
				if p := b.LiveAt(i); out[p] != decided {
					need = append(need, p)
				}
			}
			if len(need) == 0 {
				return nil
			}
			rt = triBuf(rt, len(out))
			if err := rhs(ctx, b.Narrow(need), rt); err != nil {
				return err
			}
			for _, p := range need {
				if isAnd {
					out[p] = out[p].And(rt[p])
				} else {
					out[p] = out[p].Or(rt[p])
				}
			}
			return nil
		}
	}, nil
}

// compileCmpPred is the generic vectorized form of a comparison: both
// operands evaluate as value vectors; numeric pairs compare inline and
// everything else through sqltypes.Cmp.
func compileCmpPred(x *algebra.Cmp, schema []algebra.Column, r CallResolver) (PredFactory, error) {
	lF, err := CompileVec(x.L, schema, r)
	if err != nil {
		return nil, err
	}
	rF, err := CompileVec(x.R, schema, r)
	if err != nil {
		return nil, err
	}
	op := x.Op
	accepts := cmpAccepts(op)
	return func() VecPredicate {
		l, rhs := lF(), rF()
		return func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error {
			lv, err := l(ctx, b)
			if err != nil {
				return err
			}
			rv, err := rhs(ctx, b)
			if err != nil {
				return err
			}
			n := b.Len()
			for i := 0; i < n; i++ {
				p := b.LiveAt(i)
				a, c := lv[p], rv[p]
				switch ord, ok := numericThreeWay(a, c); {
				case !ok:
					out[p] = sqltypes.Cmp(op, a, c)
				case accepts[ord+1]:
					out[p] = sqltypes.True
				default:
					out[p] = sqltypes.False
				}
			}
			return nil
		}
	}, nil
}

// cmpAccepts maps a comparison operator to its outcome table: which
// three-way compare results (-1/0/1, offset by +1) satisfy the operator.
// Hoisting this out of the per-row loop removes the operator dispatch the
// generic sqltypes.Cmp performs per call.
func cmpAccepts(op sqltypes.CmpOp) [3]bool {
	switch op {
	case sqltypes.CmpEQ:
		return [3]bool{false, true, false}
	case sqltypes.CmpNE:
		return [3]bool{true, false, true}
	case sqltypes.CmpLT:
		return [3]bool{true, false, false}
	case sqltypes.CmpLE:
		return [3]bool{true, true, false}
	case sqltypes.CmpGT:
		return [3]bool{false, false, true}
	case sqltypes.CmpGE:
		return [3]bool{false, true, true}
	}
	return [3]bool{} // as sqltypes.Cmp: an unknown operator is never true
}

// threeWay is sqltypes.Compare's order on ints and on floats: a NaN is
// neither less nor greater, so it compares "equal".
func threeWay[T int64 | float64](a, c T) int {
	switch {
	case a < c:
		return -1
	case a > c:
		return 1
	}
	return 0
}

// numericThreeWay is compileCmpPred's inlined numeric comparison. It
// mirrors sqltypes.Compare exactly (an int against a float compares
// exactly, and NaN falls through to "equal"); ok is false when either
// operand is non-numeric or NULL, in which case callers must take the
// generic sqltypes.Cmp path.
func numericThreeWay(a, c sqltypes.Value) (int, bool) {
	ak, ck := a.Kind(), c.Kind()
	switch {
	case ak == sqltypes.KindInt && ck == sqltypes.KindInt:
		return threeWay(a.Int(), c.Int()), true
	case ak == sqltypes.KindFloat && ck == sqltypes.KindFloat:
		return threeWay(a.Float(), c.Float()), true
	case ak == sqltypes.KindInt && ck == sqltypes.KindFloat:
		return sqltypes.CompareIntFloat(a.Int(), c.Float()), true
	case ak == sqltypes.KindFloat && ck == sqltypes.KindInt:
		return -sqltypes.CompareIntFloat(c.Int(), a.Float()), true
	}
	return 0, false
}
