package exec

// Fused single-column float kernels for the vectorized hot path. An
// arithmetic chain over one column reference and float constants — the
// dominant shape of scan filters and computed projections — compiles to a
// list of steps. A kernel gathers the batch's live values of that column
// into a float64 vector once, then applies its steps one at a time over the
// whole vector (one tight loop per step, no call per value), and writes one
// result per row. A conjunction of kernel compares on one column — the
// "x BETWEEN a AND b" and "lo < f(x) < hi" shapes — shares the one gather:
// every conjunct runs over the same vector and each row gets one Tri, the
// selection-over-one-column loop of MonetDB/X100.
//
// The specialization preserves the engine's SQL semantics exactly because a
// float constant operand forces every intermediate onto the engine's float
// promotion path regardless of the column's per-row kind. NULLs are settled
// by the gather. The gather only flags the positions it cannot compute
// (non-numeric values, and beside a bare-column compare an int float64
// cannot hold); after the kernel, genericRest collects them and the generic
// vector form (compileArith, compileCmpPred, compileLogicPred) evaluates
// them once over a batch narrowed to them. Only a non-numeric value can
// fail, so the first error and its text are the generic evaluator's.

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
)

// kernelStep is one fused arithmetic step: v ↦ v op c, or c op v when
// constLeft.
type kernelStep struct {
	op        sqltypes.ArithOp
	c         float64
	constLeft bool
}

// floatConstVal unwraps a float constant operand.
func floatConstVal(e algebra.Expr) (float64, bool) {
	c, ok := e.(*algebra.Const)
	if !ok || c.Val.Kind() != sqltypes.KindFloat {
		return 0, false
	}
	return c.Val.Float(), true
}

// floatKernelExpr compiles e into (column ordinal, steps) when e is a chain
// of +,-,*,/ over exactly one column reference and float constants; no
// steps is a bare column reference. Division by a constant zero and
// variable divisors stay on the generic path (they must raise the engine's
// division-by-zero error); modulo is excluded because the engine computes
// it through int64 casts.
func floatKernelExpr(e algebra.Expr, schema []algebra.Column) (int, []kernelStep, bool) {
	switch x := e.(type) {
	case *algebra.ColRef:
		for i, c := range schema {
			if c.Matches(x.Qual, x.Name) {
				return i, nil, true
			}
		}
	case *algebra.Arith:
		if x.Op != sqltypes.OpAdd && x.Op != sqltypes.OpSub && x.Op != sqltypes.OpMul && x.Op != sqltypes.OpDiv {
			break
		}
		if idx, steps, ok := floatKernelExpr(x.L, schema); ok {
			if c, okc := floatConstVal(x.R); okc && (x.Op != sqltypes.OpDiv || c != 0) {
				return idx, append(steps, kernelStep{op: x.Op, c: c}), true
			}
		}
		// c / v is excluded: the divisor would be per-row and a zero must
		// raise the engine's error.
		if idx, steps, ok := floatKernelExpr(x.R, schema); ok && x.Op != sqltypes.OpDiv {
			if c, okc := floatConstVal(x.L); okc {
				return idx, append(steps, kernelStep{op: x.Op, c: c, constLeft: true}), true
			}
		}
	}
	return 0, nil, false
}

// runSteps applies steps to xs in place, one loop per step. Each loop keeps
// the generic evaluator's operand order.
func runSteps(xs []float64, steps []kernelStep) {
	for _, s := range steps {
		c := s.c
		switch {
		case s.op == sqltypes.OpAdd && s.constLeft:
			for i, v := range xs {
				xs[i] = c + v
			}
		case s.op == sqltypes.OpAdd:
			for i, v := range xs {
				xs[i] = v + c
			}
		case s.op == sqltypes.OpSub && s.constLeft:
			for i, v := range xs {
				xs[i] = c - v
			}
		case s.op == sqltypes.OpSub:
			for i, v := range xs {
				xs[i] = v - c
			}
		case s.op == sqltypes.OpMul && s.constLeft:
			for i, v := range xs {
				xs[i] = c * v
			}
		case s.op == sqltypes.OpMul:
			for i, v := range xs {
				xs[i] = v * c
			}
		case s.op == sqltypes.OpDiv:
			for i, v := range xs {
				xs[i] = v / c
			}
		}
	}
}

// colGather is a kernel's reusable scratch: the live values of one column
// as float64, and the positions of its NULLs.
type colGather struct {
	xs    []float64
	nulls []int
}

// load gathers the live values of column idx into xs, indexed by live row.
// NULL and uncomputable positions read 0; slow reports an uncomputable one:
// a value neither numeric nor NULL or, with exactInts, an int float64
// cannot hold.
func (g *colGather) load(b *Batch, idx int, exactInts bool) (col []sqltypes.Value, xs []float64, slow bool, err error) {
	if idx >= b.Width() {
		return nil, nil, false, Errorf("batch too narrow for fused column %d", idx)
	}
	col = b.Cols[idx]
	n := b.Len()
	if cap(g.xs) < n {
		g.xs = make([]float64, n)
	}
	xs = g.xs[:n]
	g.nulls = g.nulls[:0]
	for i := range xs {
		p := b.LiveAt(i)
		switch v := col[p]; v.Kind() {
		case sqltypes.KindFloat:
			xs[i] = v.Float()
		case sqltypes.KindInt:
			// A bare int column compares exactly against the float
			// constant; float64 rounds ints beyond 2^53.
			if exactInts && !floatExact(v.Int()) {
				xs[i], slow = 0, true
				continue
			}
			xs[i] = float64(v.Int())
		case sqltypes.KindNull:
			xs[i] = 0
			g.nulls = append(g.nulls, p)
		default:
			xs[i], slow = 0, true
		}
	}
	return col, xs, slow, nil
}

// compileArithKernel builds the fused evaluator for a kernelizable
// arithmetic expression: one gather, one loop per step, one value write
// per live row.
func compileArithKernel(x *algebra.Arith, idx int, steps []kernelStep, schema []algebra.Column, r CallResolver) (VecFactory, error) {
	genF, err := compileArith(x, schema, r)
	if err != nil {
		return nil, err
	}
	return func() VecEvaluator {
		var buf []sqltypes.Value
		var g colGather
		return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
			col, xs, slow, err := g.load(b, idx, false)
			if err != nil {
				return nil, err
			}
			runSteps(xs, steps)
			buf = vecBuf(buf, b.Physical())
			for i, v := range xs {
				buf[b.LiveAt(i)] = sqltypes.NewFloat(v)
			}
			for _, p := range g.nulls {
				buf[p] = sqltypes.Null
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

// kernelCmp is one fused compare, oriented "kernel op c".
type kernelCmp struct {
	steps []kernelStep
	op    sqltypes.CmpOp
	c     float64
	// reuse: the previous conjunct has the same steps, so its computed
	// vector serves this one too (the "lo < f(x) < hi" shape).
	reuse bool
}

// kernelCmpOf matches a comparison of a kernelizable side against a
// numeric constant it can be compared with in float64, and orients it
// "kernel op constant". An integer constant is admitted only against a
// non-trivial kernel (whose intermediates are float either way) and only
// when float64 holds it exactly; against a bare integer column the engine
// compares in int64.
func kernelCmpOf(x *algebra.Cmp, schema []algebra.Column) (int, kernelCmp, bool) {
	side := func(e, other algebra.Expr) (int, []kernelStep, float64, bool) {
		k, isConst := other.(*algebra.Const)
		idx, steps, ok := floatKernelExpr(e, schema)
		if !ok || !isConst {
			return 0, nil, 0, false
		}
		switch k.Val.Kind() {
		case sqltypes.KindFloat:
			return idx, steps, k.Val.Float(), true
		case sqltypes.KindInt:
			v := k.Val.Int()
			return idx, steps, float64(v), len(steps) > 0 && floatExact(v)
		}
		return 0, nil, 0, false
	}
	op := x.Op
	idx, steps, c, ok := side(x.L, x.R)
	if !ok {
		idx, steps, c, ok = side(x.R, x.L)
		op = op.Mirror()
	}
	return idx, kernelCmp{steps: steps, op: op, c: c}, ok
}

// compileKernelPred builds a fused filter predicate for a kernel compare,
// or for an AND chain whose every conjunct is a kernel compare on the same
// column: one gather, each conjunct's steps and compare over the whole
// vector, one Tri per row, no intermediate value vectors.
//
// The generic AND evaluates a conjunct only where the earlier ones did not
// reject the row; this path evaluates every conjunct on every numeric row.
// That is unobservable only because kernel arithmetic cannot fail on
// numeric input. If float overflow or a NaN result ever becomes an error,
// this path must mask the later conjuncts again.
func compileKernelPred(e algebra.Expr, schema []algebra.Column, r CallResolver) (PredFactory, bool) {
	conjuncts := algebra.SplitConjuncts(e)
	cmps := make([]kernelCmp, len(conjuncts))
	idx, exactInts := -1, false
	for i, c := range conjuncts {
		x, ok := c.(*algebra.Cmp)
		if !ok {
			return nil, false
		}
		ci, kc, ok := kernelCmpOf(x, schema)
		if !ok || idx >= 0 && ci != idx {
			return nil, false
		}
		idx = ci
		kc.reuse = i > 0 && len(kc.steps) > 0 && sameSteps(kc.steps, cmps[i-1].steps)
		cmps[i] = kc
		exactInts = exactInts || len(kc.steps) == 0
	}
	var genF PredFactory
	var err error
	switch x := e.(type) {
	case *algebra.Cmp:
		genF, err = compileCmpPred(x, schema, r)
	case *algebra.Logic:
		genF, err = compileLogicPred(x, schema, r)
	}
	if err != nil {
		return nil, false
	}
	return func() VecPredicate {
		var g colGather
		var ys []float64
		var pass []bool
		return func(ctx *Ctx, b *Batch, out []sqltypes.Tri) error {
			col, xs, slow, err := g.load(b, idx, exactInts)
			if err != nil {
				return err
			}
			pass = boolBuf(pass, len(xs))
			for _, kc := range cmps {
				vals := xs
				if len(kc.steps) > 0 {
					if !kc.reuse {
						ys = append(ys[:0], xs...)
						runSteps(ys, kc.steps)
					}
					vals = ys
				}
				cmpInto(pass, vals, kc.op, kc.c)
			}
			for i, ok := range pass {
				t := sqltypes.False
				if ok {
					t = sqltypes.True
				}
				out[b.LiveAt(i)] = t
			}
			for _, p := range g.nulls {
				out[p] = sqltypes.Unknown
			}
			if slow {
				return genF()(ctx, b.Narrow(genericRest(b, col, exactInts)), out)
			}
			return nil
		}
	}, true
}

// sameSteps reports whether two kernels compute the same function.
func sameSteps(a, b []kernelStep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// boolBuf sizes a reusable mask to n and sets every entry.
func boolBuf(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = true
	}
	return buf
}

// cmpInto clears pass[i] where vals[i] op c does not hold. It is
// threeWay's order: a NaN compares "equal" to everything, so <= and >=
// hold for it and < and > do not.
func cmpInto(pass []bool, vals []float64, op sqltypes.CmpOp, c float64) {
	switch op {
	case sqltypes.CmpLT:
		for i, v := range vals {
			pass[i] = pass[i] && v < c
		}
	case sqltypes.CmpGT:
		for i, v := range vals {
			pass[i] = pass[i] && v > c
		}
	case sqltypes.CmpLE:
		for i, v := range vals {
			pass[i] = pass[i] && !(v > c)
		}
	case sqltypes.CmpGE:
		for i, v := range vals {
			pass[i] = pass[i] && !(v < c)
		}
	case sqltypes.CmpEQ:
		for i, v := range vals {
			pass[i] = pass[i] && !(v < c || v > c)
		}
	case sqltypes.CmpNE:
		for i, v := range vals {
			pass[i] = pass[i] && (v < c || v > c)
		}
	default: // as sqltypes.Cmp: an unknown operator is never true
		clear(pass)
	}
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
