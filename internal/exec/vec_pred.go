package exec

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
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
// three-valued evaluators. Comparisons, and AND chains of kernel compares on
// one column (compileKernelPred), have native truth vectors (nativePred);
// CompileVec widens them to BOOLEAN values. Every other predicate runs the
// row compiler over each live row and converts with TriOf, exactly as the
// row engine's filter does (rowPred).
func CompilePred(e algebra.Expr, schema []algebra.Column, r CallResolver) (PredFactory, error) {
	pf, err := nativePred(e, schema, r)
	if pf == nil && err == nil {
		return rowPred(e, schema, r)
	}
	return pf, err
}

// nativePred compiles the predicates with a native truth vector; it returns
// nil and no error for every other expression.
func nativePred(e algebra.Expr, schema []algebra.Column, r CallResolver) (PredFactory, error) {
	// A kernel compare against a constant, or an AND chain of them on one
	// column, fuses arithmetic and compares over one gather (see
	// vec_kernel.go).
	if pf, ok := compileKernelPred(e, schema, r); ok {
		return pf, nil
	}
	if x, ok := e.(*algebra.Cmp); ok {
		return compileCmpPred(x, schema, r)
	}
	return nil, nil
}

// rowPred evaluates e with the row compiler over each live row, as rowVec
// does, and keeps TriOf of each value.
func rowPred(e algebra.Expr, schema []algebra.Column, r CallResolver) (PredFactory, error) {
	ev, cols, err := compileRow(e, schema, r)
	if err != nil {
		return nil, err
	}
	return func() VecPredicate {
		g := rowGather{cols, make(storage.Row, len(cols))}
		return func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error {
			if err := g.fits(b); err != nil {
				return err
			}
			for i, n := 0, b.Len(); i < n; i++ {
				p := b.LiveAt(i)
				v, err := ev(ctx, g.at(b, p))
				if err != nil {
					return err
				}
				out[p] = sqltypes.TriOf(v)
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
