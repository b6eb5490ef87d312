package exec

// Fused single-column float kernels for the vectorized hot path. An
// arithmetic chain over one column reference and float constants — the
// dominant shape of scan filters and computed projections — compiles to a
// closure over float64, so the inner loop reads one storage value, computes
// in registers, and writes one result, with no intermediate value vectors.
//
// The specialization preserves the engine's SQL semantics exactly because a
// float constant operand forces every intermediate onto the engine's float
// promotion path regardless of the column's per-row kind. NULLs are settled
// in the loop. The loop only flags the positions it cannot compute
// (non-numeric values, and in a bare-column compare an int float64 cannot
// hold); after it, genericRest collects them and the generic vector form
// (compileArith, compileCmpPred) evaluates them once over a batch narrowed
// to them. Only a non-numeric value can fail, so the first error and its
// text are the generic evaluator's.

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
)

// floatFn maps one column value (promoted to float64) to the expression's
// value. A nil floatFn is the identity (a bare column reference).
type floatFn func(float64) float64

// floatConstVal unwraps a float constant operand.
func floatConstVal(e algebra.Expr) (float64, bool) {
	c, ok := e.(*algebra.Const)
	if !ok || c.Val.Kind() != sqltypes.KindFloat {
		return 0, false
	}
	return c.Val.Float(), true
}

// floatKernelExpr compiles e into (column ordinal, kernel) when e is a
// chain of +,-,*,/ over exactly one column reference and float constants.
// Division by a constant zero and variable divisors stay on the generic
// path (they must raise the engine's division-by-zero error); modulo is
// excluded because the engine computes it through int64 casts.
func floatKernelExpr(e algebra.Expr, schema []algebra.Column) (int, floatFn, bool) {
	switch x := e.(type) {
	case *algebra.ColRef:
		for i, c := range schema {
			if c.Matches(x.Qual, x.Name) {
				return i, nil, true
			}
		}
	case *algebra.Arith:
		if idx, fn, ok := floatKernelExpr(x.L, schema); ok {
			if c, okc := floatConstVal(x.R); okc {
				if g, okg := fuseConstRight(x.Op, fn, c); okg {
					return idx, g, true
				}
			}
		}
		if idx, fn, ok := floatKernelExpr(x.R, schema); ok {
			if c, okc := floatConstVal(x.L); okc {
				if g, okg := fuseConstLeft(x.Op, c, fn); okg {
					return idx, g, true
				}
			}
		}
	}
	return 0, nil, false
}

// fuseConstRight builds v ↦ fn(v) op c.
func fuseConstRight(op sqltypes.ArithOp, fn floatFn, c float64) (floatFn, bool) {
	if fn == nil {
		switch op {
		case sqltypes.OpAdd:
			return func(v float64) float64 { return v + c }, true
		case sqltypes.OpSub:
			return func(v float64) float64 { return v - c }, true
		case sqltypes.OpMul:
			return func(v float64) float64 { return v * c }, true
		case sqltypes.OpDiv:
			if c == 0 {
				return nil, false
			}
			return func(v float64) float64 { return v / c }, true
		}
		return nil, false
	}
	switch op {
	case sqltypes.OpAdd:
		return func(v float64) float64 { return fn(v) + c }, true
	case sqltypes.OpSub:
		return func(v float64) float64 { return fn(v) - c }, true
	case sqltypes.OpMul:
		return func(v float64) float64 { return fn(v) * c }, true
	case sqltypes.OpDiv:
		if c == 0 {
			return nil, false
		}
		return func(v float64) float64 { return fn(v) / c }, true
	}
	return nil, false
}

// fuseConstLeft builds v ↦ c op fn(v). Division is excluded: the divisor
// would be per-row and a zero must raise the engine's error.
func fuseConstLeft(op sqltypes.ArithOp, c float64, fn floatFn) (floatFn, bool) {
	if fn == nil {
		switch op {
		case sqltypes.OpAdd:
			return func(v float64) float64 { return c + v }, true
		case sqltypes.OpSub:
			return func(v float64) float64 { return c - v }, true
		case sqltypes.OpMul:
			return func(v float64) float64 { return c * v }, true
		}
		return nil, false
	}
	switch op {
	case sqltypes.OpAdd:
		return func(v float64) float64 { return c + fn(v) }, true
	case sqltypes.OpSub:
		return func(v float64) float64 { return c - fn(v) }, true
	case sqltypes.OpMul:
		return func(v float64) float64 { return c * fn(v) }, true
	}
	return nil, false
}

// compileArithKernel builds the fused evaluator for a kernelizable
// arithmetic expression: one column read, register arithmetic, one value
// write per live row.
func compileArithKernel(x *algebra.Arith, idx int, fn floatFn, schema []algebra.Column, r CallResolver) (VecFactory, error) {
	genF, err := compileArith(x, schema, r)
	if err != nil {
		return nil, err
	}
	return func() VecEvaluator {
		var buf []sqltypes.Value
		return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
			if idx >= b.Width() {
				return nil, Errorf("batch too narrow for fused column %d", idx)
			}
			col := b.Cols[idx]
			buf = vecBuf(buf, b.Physical())
			slow := false
			n := b.Len()
			for i := 0; i < n; i++ {
				p := b.LiveAt(i)
				v := col[p]
				switch v.Kind() {
				case sqltypes.KindFloat:
					buf[p] = sqltypes.NewFloat(fn(v.Float()))
				case sqltypes.KindInt:
					buf[p] = sqltypes.NewFloat(fn(float64(v.Int())))
				case sqltypes.KindNull:
					buf[p] = sqltypes.Null
				default:
					slow = true
				}
			}
			if slow {
				rest := genericRest(b, col, false)
				rv, err := genF()(ctx, b.Narrow(rest))
				if err != nil {
					return nil, err
				}
				for _, p := range rest {
					buf[p] = rv[p]
				}
			}
			return buf, nil
		}
	}, nil
}

// compileCmpKernelPred builds a fused filter predicate for comparisons of a
// kernelizable side against a numeric constant: column read, register
// arithmetic and compare, Tri write — no intermediate vectors at all. An
// integer constant is admitted only against a non-trivial kernel (whose
// intermediates are float either way) and only when float64 holds it
// exactly; against a bare integer column the engine compares in int64.
func compileCmpKernelPred(x *algebra.Cmp, schema []algebra.Column, r CallResolver) (PredFactory, bool) {
	accepts := cmpAccepts(x.Op)
	// kernelSide matches e as a kernel and other as a constant it can be
	// compared against in float64.
	kernelSide := func(e, other algebra.Expr) (idx int, fn floatFn, c float64, ok bool) {
		k, isConst := other.(*algebra.Const)
		if idx, fn, ok = floatKernelExpr(e, schema); !ok || !isConst {
			return 0, nil, 0, false
		}
		switch k.Val.Kind() {
		case sqltypes.KindFloat:
			return idx, fn, k.Val.Float(), true
		case sqltypes.KindInt:
			v := k.Val.Int()
			return idx, fn, float64(v), fn != nil && floatExact(v)
		}
		return 0, nil, 0, false
	}
	idx, fn, c, ok := kernelSide(x.L, x.R)
	flip := !ok
	if flip {
		idx, fn, c, ok = kernelSide(x.R, x.L)
	}
	if !ok {
		return nil, false
	}
	genF, err := compileCmpPred(x, schema, r)
	if err != nil {
		return nil, false
	}
	return func() VecPredicate {
		return func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error {
			if idx >= b.Width() {
				return Errorf("batch too narrow for fused column %d", idx)
			}
			col := b.Cols[idx]
			slow := false
			n := b.Len()
			for i := 0; i < n; i++ {
				p := b.LiveAt(i)
				v := col[p]
				var xv float64
				switch v.Kind() {
				case sqltypes.KindFloat:
					xv = v.Float()
				case sqltypes.KindInt:
					// A bare int column compares exactly against the float
					// constant; float64 rounds ints beyond 2^53.
					if fn == nil && !floatExact(v.Int()) {
						slow = true
						continue
					}
					xv = float64(v.Int())
				case sqltypes.KindNull:
					out[p] = sqltypes.Unknown
					continue
				default:
					slow = true
					continue
				}
				if fn != nil {
					xv = fn(xv)
				}
				cmp := threeWay(xv, c)
				if flip {
					cmp = -cmp
				}
				if accepts[cmp+1] {
					out[p] = sqltypes.True
				} else {
					out[p] = sqltypes.False
				}
			}
			if slow {
				return genF()(ctx, b.Narrow(genericRest(b, col, fn == nil)), out)
			}
			return nil
		}
	}, true
}

// genericRest lists the live positions a kernel leaves to the generic
// vector form: values neither numeric nor NULL and, with exactInts, ints
// float64 cannot hold. Such values are rare (in arithmetic they are an
// error), so the kernels instantiate the generic form only when they meet
// one.
func genericRest(b *Batch, col []sqltypes.Value, exactInts bool) (rest []int) {
	for i := 0; i < b.Len(); i++ {
		p := b.LiveAt(i)
		switch v := col[p]; v.Kind() {
		case sqltypes.KindFloat, sqltypes.KindNull:
		case sqltypes.KindInt:
			if exactInts && !floatExact(v.Int()) {
				rest = append(rest, p)
			}
		default:
			rest = append(rest, p)
		}
	}
	return rest
}

// floatExact reports whether float64 holds the int exactly (|v| <= 2^53).
func floatExact(v int64) bool {
	return -1<<53 <= v && v <= 1<<53
}
