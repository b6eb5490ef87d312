package exec

import (
	"strings"
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
// evaluators against the given input schema. Arithmetic, CASE and builtin
// calls evaluate column-at-a-time; comparisons, logic and IS NULL compile
// through CompilePred and widen its truth vector. AND/OR/CASE mask the
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
		// Single-column float chains fuse into a register kernel (see
		// vec_kernel.go): one read and one write per element.
		if idx, fn, ok := floatKernelExpr(x, schema); ok && fn != nil {
			return compileArithKernel(x, idx, fn, schema, r)
		}
		return compileArith(x, schema, r)

	case *algebra.Cmp, *algebra.Logic, *algebra.Not, *algebra.IsNull:
		// A boolean's batch form is its truth vector; the value vector is
		// only its widening.
		pF, err := CompilePred(e, schema, r)
		if err != nil {
			return nil, err
		}
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
		}, nil

	case *algebra.Case:
		type armF struct {
			cond PredFactory
			then VecFactory
		}
		armFs := make([]armF, len(x.Whens))
		for i, w := range x.Whens {
			c, err := CompilePred(w.Cond, schema, r)
			if err != nil {
				return nil, err
			}
			t, err := CompileVec(w.Then, schema, r)
			if err != nil {
				return nil, err
			}
			armFs[i] = armF{c, t}
		}
		elseE := x.Else
		if elseE == nil {
			elseE = &algebra.Const{Val: sqltypes.Null}
		}
		elseF, err := CompileVec(elseE, schema, r)
		if err != nil {
			return nil, err
		}
		return func() VecEvaluator {
			type arm struct {
				cond VecPredicate
				then VecEvaluator
			}
			arms := make([]arm, len(armFs))
			for i, f := range armFs {
				arms[i] = arm{f.cond(), f.then()}
			}
			elseEv := elseF()
			var buf []sqltypes.Value
			var tri []sqltypes.Tri
			return func(ctx *Ctx, b *Batch) ([]sqltypes.Value, error) {
				buf = vecBuf(buf, b.Physical())
				tri = triBuf(tri, b.Physical())
				// settle evaluates a branch on the positions that take it, and
				// only there, as the row path does.
				settle := func(ev VecEvaluator, sel []int) error {
					if len(sel) == 0 {
						return nil
					}
					v, err := ev(ctx, b.Narrow(sel))
					if err != nil {
						return err
					}
					for _, p := range sel {
						buf[p] = v[p]
					}
					return nil
				}
				// Rows still undecided: start with all live positions, and peel
				// off the ones each WHEN arm settles.
				undecided := make([]int, 0, b.Len())
				n := b.Len()
				for i := 0; i < n; i++ {
					undecided = append(undecided, b.LiveAt(i))
				}
				for _, a := range arms {
					if len(undecided) == 0 {
						break
					}
					if err := a.cond(ctx, b.Narrow(undecided), tri); err != nil {
						return nil, err
					}
					var taken, rest []int
					for _, p := range undecided {
						if tri[p] == sqltypes.True {
							taken = append(taken, p)
						} else {
							rest = append(rest, p)
						}
					}
					if err := settle(a.then, taken); err != nil {
						return nil, err
					}
					undecided = rest
				}
				if err := settle(elseEv, undecided); err != nil {
					return nil, err
				}
				return buf, nil
			}
		}, nil

	case *algebra.Call:
		if fn, ok := builtinScalar(strings.ToLower(x.Name), len(x.Args)); ok {
			argFs, err := CompileVecAll(x.Args, schema, r)
			if err != nil {
				return nil, err
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
