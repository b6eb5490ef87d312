package exec

import (
	"strings"

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

// cmpAccepts maps a comparison operator to its outcome table: which
// three-way compare results (-1/0/1, offset by +1) satisfy the operator.
// Hoisting this out of the per-row loop removes the operator dispatch the
// generic sqltypes.Cmp performs per call.
func cmpAccepts(op sqltypes.CmpOp) ([3]bool, bool) {
	switch op {
	case sqltypes.CmpEQ:
		return [3]bool{false, true, false}, true
	case sqltypes.CmpNE:
		return [3]bool{true, false, true}, true
	case sqltypes.CmpLT:
		return [3]bool{true, false, false}, true
	case sqltypes.CmpLE:
		return [3]bool{true, true, false}, true
	case sqltypes.CmpGT:
		return [3]bool{false, false, true}, true
	case sqltypes.CmpGE:
		return [3]bool{false, true, true}, true
	default:
		return [3]bool{}, false
	}
}

// numericThreeWay is the inlined numeric comparison kernel shared by the
// batched Value and Tri comparison evaluators. It mirrors sqltypes.Compare
// exactly (including NaN falling through to "equal"); ok is false when
// either operand is non-numeric or NULL, in which case callers must take
// the generic sqltypes.Cmp path.
func numericThreeWay(a, c sqltypes.Value) (int, bool) {
	ak, ck := a.Kind(), c.Kind()
	if ak == sqltypes.KindInt && ck == sqltypes.KindInt {
		ai, ci := a.Int(), c.Int()
		switch {
		case ai < ci:
			return -1, true
		case ai > ci:
			return 1, true
		default:
			return 0, true
		}
	}
	if (ak == sqltypes.KindInt || ak == sqltypes.KindFloat) &&
		(ck == sqltypes.KindInt || ck == sqltypes.KindFloat) {
		af, _ := a.AsFloat()
		cf, _ := c.AsFloat()
		switch {
		case af < cf:
			return -1, true
		case af > cf:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// CompileVec translates an algebra expression into a factory of batched
// evaluators against the given input schema. Arithmetic, comparisons, logic,
// CASE and builtin calls evaluate column-at-a-time; AND/OR/CASE mask the
// positions they evaluate so short-circuit semantics (e.g. guarded division)
// match the row engine exactly. Expressions the vectorized path cannot
// handle natively (UDF calls, subqueries) fall back to per-row evaluation of
// the compiled row expression over the batch.
func CompileVec(e algebra.Expr, schema []algebra.Column, r CallResolver) (VecFactory, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		for i, c := range schema {
			if c.Matches(x.Qual, x.Name) {
				idx := i
				col := c
				return stateless(func(_ *Ctx, b *Batch) ([]sqltypes.Value, error) {
					if idx >= b.Width() {
						return nil, Errorf("batch too narrow for column %s", col)
					}
					return b.Cols[idx], nil
				}), nil
			}
		}
		return nil, Errorf("unresolved column %s", x)

	case *algebra.Const:
		v := x.Val
		// The constant vector is precomputed once and served read-only, so
		// all instances (and concurrent executions) can share it; batches
		// larger than the default size allocate per call.
		shared := make([]sqltypes.Value, DefaultBatchSize)
		for i := range shared {
			shared[i] = v
		}
		return stateless(func(_ *Ctx, b *Batch) ([]sqltypes.Value, error) {
			n := b.Physical()
			if n <= len(shared) {
				return shared[:n], nil
			}
			buf := make([]sqltypes.Value, n)
			for i := range buf {
				buf[i] = v
			}
			return buf, nil
		}), nil

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
		// Single-column float chains fuse into a register kernel (see
		// vec_kernel.go): one read and one write per element.
		if idx, fn, ok := floatKernelExpr(x, schema); ok && fn != nil {
			return compileArithKernel(x, idx, fn, schema, r)
		}
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

	case *algebra.Cmp:
		lF, err := CompileVec(x.L, schema, r)
		if err != nil {
			return nil, err
		}
		rF, err := CompileVec(x.R, schema, r)
		if err != nil {
			return nil, err
		}
		op := x.Op
		accepts, haveTable := cmpAccepts(op)
		trueV, falseV := sqltypes.NewBool(true), sqltypes.NewBool(false)
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
					if haveTable {
						if cmp, ok := numericThreeWay(a, c); ok {
							if accepts[cmp+1] {
								buf[p] = trueV
							} else {
								buf[p] = falseV
							}
							continue
						}
					}
					buf[p] = sqltypes.TriValue(sqltypes.Cmp(op, a, c))
				}
				return buf, nil
			}
		}, nil

	case *algebra.Logic:
		lF, err := CompileVec(x.L, schema, r)
		if err != nil {
			return nil, err
		}
		rF, err := CompileVec(x.R, schema, r)
		if err != nil {
			return nil, err
		}
		isAnd := x.Op == algebra.LogicAnd
		return func() VecEvaluator {
			l, rhs := lF(), rF()
			var buf []sqltypes.Value
			var need []int
			return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
				lv, err := l(ctx, b)
				if err != nil {
					return nil, err
				}
				buf = vecBuf(buf, b.Physical())
				need = need[:0]
				n := b.Len()
				for i := 0; i < n; i++ {
					p := b.LiveAt(i)
					lt := sqltypes.TriOf(lv[p])
					// Short circuit exactly as the row evaluator does: AND with a
					// false side (or OR with a true side) never evaluates the
					// right operand, so guarded expressions cannot fail.
					if isAnd && lt == sqltypes.False {
						buf[p] = sqltypes.NewBool(false)
						continue
					}
					if !isAnd && lt == sqltypes.True {
						buf[p] = sqltypes.NewBool(true)
						continue
					}
					buf[p] = sqltypes.TriValue(lt) // stash the left truth value
					need = append(need, p)
				}
				if len(need) == 0 {
					return buf, nil
				}
				rv, err := rhs(ctx, b.Narrow(need))
				if err != nil {
					return nil, err
				}
				for _, p := range need {
					lt := sqltypes.TriOf(buf[p])
					rt := sqltypes.TriOf(rv[p])
					if isAnd {
						buf[p] = sqltypes.TriValue(lt.And(rt))
					} else {
						buf[p] = sqltypes.TriValue(lt.Or(rt))
					}
				}
				return buf, nil
			}
		}, nil

	case *algebra.Not:
		innerF, err := CompileVec(x.E, schema, r)
		if err != nil {
			return nil, err
		}
		return func() VecEvaluator {
			inner := innerF()
			var buf []sqltypes.Value
			return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
				iv, err := inner(ctx, b)
				if err != nil {
					return nil, err
				}
				buf = vecBuf(buf, b.Physical())
				n := b.Len()
				for i := 0; i < n; i++ {
					p := b.LiveAt(i)
					buf[p] = sqltypes.TriValue(sqltypes.TriOf(iv[p]).Not())
				}
				return buf, nil
			}
		}, nil

	case *algebra.IsNull:
		innerF, err := CompileVec(x.E, schema, r)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func() VecEvaluator {
			inner := innerF()
			var buf []sqltypes.Value
			return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
				iv, err := inner(ctx, b)
				if err != nil {
					return nil, err
				}
				buf = vecBuf(buf, b.Physical())
				n := b.Len()
				for i := 0; i < n; i++ {
					p := b.LiveAt(i)
					buf[p] = sqltypes.NewBool(iv[p].IsNull() != neg)
				}
				return buf, nil
			}
		}, nil

	case *algebra.Case:
		type armF struct{ cond, then VecFactory }
		armFs := make([]armF, len(x.Whens))
		for i, w := range x.Whens {
			c, err := CompileVec(w.Cond, schema, r)
			if err != nil {
				return nil, err
			}
			t, err := CompileVec(w.Then, schema, r)
			if err != nil {
				return nil, err
			}
			armFs[i] = armF{c, t}
		}
		var elseF VecFactory
		if x.Else != nil {
			var err error
			elseF, err = CompileVec(x.Else, schema, r)
			if err != nil {
				return nil, err
			}
		}
		return func() VecEvaluator {
			type arm struct{ cond, then VecEvaluator }
			arms := make([]arm, len(armFs))
			for i, f := range armFs {
				arms[i] = arm{f.cond(), f.then()}
			}
			var elseEv VecEvaluator
			if elseF != nil {
				elseEv = elseF()
			}
			var buf []sqltypes.Value
			return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
				buf = vecBuf(buf, b.Physical())
				// Rows still undecided: start with all live positions, and peel
				// off the ones each WHEN arm settles (conditions and THEN values
				// evaluate only on undecided/matching rows, as in the row path).
				undecided := make([]int, 0, b.Len())
				n := b.Len()
				for i := 0; i < n; i++ {
					undecided = append(undecided, b.LiveAt(i))
				}
				for _, a := range arms {
					if len(undecided) == 0 {
						break
					}
					cv, err := a.cond(ctx, b.Narrow(undecided))
					if err != nil {
						return nil, err
					}
					var taken, rest []int
					for _, p := range undecided {
						if sqltypes.TriOf(cv[p]) == sqltypes.True {
							taken = append(taken, p)
						} else {
							rest = append(rest, p)
						}
					}
					if len(taken) > 0 {
						tv, err := a.then(ctx, b.Narrow(taken))
						if err != nil {
							return nil, err
						}
						for _, p := range taken {
							buf[p] = tv[p]
						}
					}
					undecided = rest
				}
				if len(undecided) > 0 {
					if elseEv != nil {
						ev, err := elseEv(ctx, b.Narrow(undecided))
						if err != nil {
							return nil, err
						}
						for _, p := range undecided {
							buf[p] = ev[p]
						}
					} else {
						for _, p := range undecided {
							buf[p] = sqltypes.Null
						}
					}
				}
				return buf, nil
			}
		}, nil

	case *algebra.Call:
		if fn, ok := builtinScalar(strings.ToLower(x.Name), len(x.Args)); ok {
			argFs := make([]VecFactory, len(x.Args))
			for i, a := range x.Args {
				f, err := CompileVec(a, schema, r)
				if err != nil {
					return nil, err
				}
				argFs[i] = f
			}
			return func() VecEvaluator {
				args := Instantiate(argFs)
				var buf []sqltypes.Value
				argVecs := make([][]sqltypes.Value, len(args))
				rowArgs := make([]sqltypes.Value, len(args))
				return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
					for i, a := range args {
						v, err := a(ctx, b)
						if err != nil {
							return nil, err
						}
						argVecs[i] = v
					}
					buf = vecBuf(buf, b.Physical())
					n := b.Len()
					for i := 0; i < n; i++ {
						p := b.LiveAt(i)
						for j := range argVecs {
							rowArgs[j] = argVecs[j][p]
						}
						v, err := fn(rowArgs)
						if err != nil {
							return nil, err
						}
						buf[p] = v
					}
					return buf, nil
				}
			}, nil
		}
		// Non-builtin calls (UDFs) run through the row evaluator.
		return rowFallbackVec(e, schema, r)

	default:
		// Subqueries, EXISTS and anything newly added evaluate row-at-a-time.
		return rowFallbackVec(e, schema, r)
	}
}

// rowFallbackVec wraps the row Evaluator for expressions with no native
// vectorized form: the batch's live rows are materialized one at a time.
// (Row evaluators are themselves stateless, so one compiled instance serves
// all executions; only the materialization buffers are per-instance.)
func rowFallbackVec(e algebra.Expr, schema []algebra.Column, r CallResolver) (VecFactory, error) {
	ev, err := Compile(e, schema, r)
	if err != nil {
		return nil, err
	}
	return func() VecEvaluator {
		var buf []sqltypes.Value
		var rowBuf storage.Row
		return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
			buf = vecBuf(buf, b.Physical())
			if cap(rowBuf) < b.Width() {
				rowBuf = make(storage.Row, b.Width())
			}
			rowBuf = rowBuf[:b.Width()]
			n := b.Len()
			for i := 0; i < n; i++ {
				p := b.LiveAt(i)
				for j, c := range b.Cols {
					rowBuf[j] = c[p]
				}
				v, err := ev(ctx, rowBuf)
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
