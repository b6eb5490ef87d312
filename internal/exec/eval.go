package exec

import (
	"fmt"
	"strings"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// Evaluator is a compiled scalar expression: evaluated against the current
// input row and execution context.
type Evaluator func(ctx *Ctx, row storage.Row) (sqltypes.Value, error)

// CallResolver resolves scalar function calls that are not builtins —
// user-defined functions executed by the interpreter — and compiles
// relational subexpressions used inside scalar expressions.
type CallResolver interface {
	// ResolveScalarCall returns a function invoking the named UDF, or ok
	// false when the name is unknown.
	ResolveScalarCall(name string, argc int) (func(ctx *Ctx, args []sqltypes.Value) (sqltypes.Value, error), bool)
	// BuildSubplan compiles a relational expression used as a scalar
	// subquery inside an expression compiled against the given outer
	// schema. The returned bindings say which outer-row columns must be
	// published as parameters before each evaluation (correlation).
	BuildSubplan(rel algebra.Rel, outer []algebra.Column) (Node, []CorrBinding, error)
}

// Compile translates an algebra expression into an Evaluator against the
// given input schema. Column references not found in the schema are compile
// errors (correlation must be rewritten to parameters before compilation);
// parameter references resolve dynamically through the context.
func Compile(e algebra.Expr, schema []algebra.Column, r CallResolver) (Evaluator, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		idx := algebra.RefIndex(schema, x.Qual, x.Name)
		if idx < 0 {
			return nil, Errorf("unresolved column %s", x)
		}
		c := schema[idx]
		return func(_ *Ctx, row storage.Row) (sqltypes.Value, error) {
			if idx >= len(row) {
				return sqltypes.Null, Errorf("row too short for column %s", c)
			}
			return row[idx], nil
		}, nil

	case *algebra.ParamRef:
		name := x.Name
		return func(ctx *Ctx, _ storage.Row) (sqltypes.Value, error) {
			if v, ok := ctx.Get(name); ok {
				return v, nil
			}
			return sqltypes.Null, Errorf("unknown variable %q", name)
		}, nil

	case *algebra.Const:
		v := x.Val
		return func(*Ctx, storage.Row) (sqltypes.Value, error) { return v, nil }, nil

	case *algebra.Arith:
		l, err := Compile(x.L, schema, r)
		if err != nil {
			return nil, err
		}
		rhs, err := Compile(x.R, schema, r)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := rhs(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.Arith(op, lv, rv)
		}, nil

	case *algebra.Cmp:
		// A column compared with a constant, the shape of every key range a
		// row filter scans with, reads the column in the comparison itself.
		if ref, ok := x.L.(*algebra.ColRef); ok {
			if k, ok := x.R.(*algebra.Const); ok {
				if idx := algebra.RefIndex(schema, ref.Qual, ref.Name); idx >= 0 {
					op, v, c := x.Op, k.Val, schema[idx]
					return func(_ *Ctx, row storage.Row) (sqltypes.Value, error) {
						if idx >= len(row) {
							return sqltypes.Null, Errorf("row too short for column %s", c)
						}
						return sqltypes.TriValue(sqltypes.Cmp(op, row[idx], v)), nil
					}, nil
				}
			}
		}
		l, err := Compile(x.L, schema, r)
		if err != nil {
			return nil, err
		}
		rhs, err := Compile(x.R, schema, r)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := rhs(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.TriValue(sqltypes.Cmp(op, lv, rv)), nil
		}, nil

	case *algebra.Logic:
		l, err := Compile(x.L, schema, r)
		if err != nil {
			return nil, err
		}
		rhs, err := Compile(x.R, schema, r)
		if err != nil {
			return nil, err
		}
		isAnd := x.Op == algebra.LogicAnd
		return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			lt := sqltypes.TriOf(lv)
			// Short circuit.
			if isAnd && lt == sqltypes.False {
				return sqltypes.NewBool(false), nil
			}
			if !isAnd && lt == sqltypes.True {
				return sqltypes.NewBool(true), nil
			}
			rv, err := rhs(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			rt := sqltypes.TriOf(rv)
			if isAnd {
				return sqltypes.TriValue(lt.And(rt)), nil
			}
			return sqltypes.TriValue(lt.Or(rt)), nil
		}, nil

	case *algebra.Not:
		inner, err := Compile(x.E, schema, r)
		if err != nil {
			return nil, err
		}
		return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
			v, err := inner(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.TriValue(sqltypes.TriOf(v).Not()), nil
		}, nil

	case *algebra.IsNull:
		inner, err := Compile(x.E, schema, r)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
			v, err := inner(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(v.IsNull() != neg), nil
		}, nil

	case *algebra.Case:
		type arm struct{ cond, then Evaluator }
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			c, err := Compile(w.Cond, schema, r)
			if err != nil {
				return nil, err
			}
			t, err := Compile(w.Then, schema, r)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, t}
		}
		var elseEv Evaluator
		if x.Else != nil {
			var err error
			elseEv, err = Compile(x.Else, schema, r)
			if err != nil {
				return nil, err
			}
		}
		return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
			for _, a := range arms {
				c, err := a.cond(ctx, row)
				if err != nil {
					return sqltypes.Null, err
				}
				if sqltypes.TriOf(c) == sqltypes.True {
					return a.then(ctx, row)
				}
			}
			if elseEv != nil {
				return elseEv(ctx, row)
			}
			return sqltypes.Null, nil
		}, nil

	case *algebra.Call:
		args := make([]Evaluator, len(x.Args))
		for i, a := range x.Args {
			ev, err := Compile(a, schema, r)
			if err != nil {
				return nil, err
			}
			args[i] = ev
		}
		evalArgs := func(ctx *Ctx, row storage.Row) ([]sqltypes.Value, error) {
			vals := make([]sqltypes.Value, len(args))
			for i, a := range args {
				v, err := a(ctx, row)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return vals, nil
		}
		if fn, ok := builtinScalar(strings.ToLower(x.Name), len(args)); ok {
			return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
				vals, err := evalArgs(ctx, row)
				if err != nil {
					return sqltypes.Null, err
				}
				return fn(vals)
			}, nil
		}
		if r != nil {
			if udf, ok := r.ResolveScalarCall(x.Name, len(args)); ok {
				return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
					vals, err := evalArgs(ctx, row)
					if err != nil {
						return sqltypes.Null, err
					}
					return udf(ctx, vals)
				}, nil
			}
		}
		return nil, Errorf("unknown function %s/%d", x.Name, len(args))

	case *algebra.Subquery:
		if r == nil {
			return nil, Errorf("scalar subquery needs a plan builder")
		}
		sub, corr, err := r.BuildSubplan(x.Rel, schema)
		if err != nil {
			return nil, err
		}
		if len(sub.Schema()) != 1 {
			return nil, Errorf("scalar subquery must produce one column, got %d", len(sub.Schema()))
		}
		return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
			ctx.Push()
			defer ctx.Pop()
			for _, cb := range corr {
				ctx.Set(cb.Param, row[cb.Col])
			}
			rows, err := Drain(sub, ctx)
			if err != nil {
				return sqltypes.Null, err
			}
			switch len(rows) {
			case 0:
				return sqltypes.Null, nil
			case 1:
				return rows[0][0], nil
			default:
				return sqltypes.Null, Errorf("scalar subquery returned %d rows", len(rows))
			}
		}, nil

	case *algebra.Exists:
		if r == nil {
			return nil, Errorf("EXISTS needs a plan builder")
		}
		sub, corr, err := r.BuildSubplan(x.Rel, schema)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func(ctx *Ctx, row storage.Row) (sqltypes.Value, error) {
			ctx.Push()
			defer ctx.Pop()
			for _, cb := range corr {
				ctx.Set(cb.Param, row[cb.Col])
			}
			it, err := OpenRows(sub, ctx)
			if err != nil {
				return sqltypes.Null, err
			}
			defer it.Close()
			_, ok, err := it.Next()
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(ok != neg), nil
		}, nil
	}
	return nil, Errorf("cannot compile expression %T", e)
}

// builtinScalar returns the implementation of a builtin scalar function.
func builtinScalar(name string, argc int) (func([]sqltypes.Value) (sqltypes.Value, error), bool) {
	switch name {
	case "abs":
		if argc != 1 {
			return nil, false
		}
		return func(a []sqltypes.Value) (sqltypes.Value, error) {
			if a[0].IsNull() {
				return sqltypes.Null, nil
			}
			switch a[0].Kind() {
			case sqltypes.KindInt:
				v := a[0].Int()
				if v < 0 {
					v = -v
				}
				return sqltypes.NewInt(v), nil
			case sqltypes.KindFloat:
				v := a[0].Float()
				if v < 0 {
					v = -v
				}
				return sqltypes.NewFloat(v), nil
			}
			return sqltypes.Null, Errorf("abs of non-numeric")
		}, true
	case "length":
		if argc != 1 {
			return nil, false
		}
		return func(a []sqltypes.Value) (sqltypes.Value, error) {
			if a[0].IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewInt(int64(len(a[0].Display()))), nil
		}, true
	case "upper", "lower":
		if argc != 1 {
			return nil, false
		}
		up := name == "upper"
		return func(a []sqltypes.Value) (sqltypes.Value, error) {
			if a[0].IsNull() {
				return sqltypes.Null, nil
			}
			s := a[0].Display()
			if up {
				return sqltypes.NewString(strings.ToUpper(s)), nil
			}
			return sqltypes.NewString(strings.ToLower(s)), nil
		}, true
	case "concat":
		return func(a []sqltypes.Value) (sqltypes.Value, error) {
			out := sqltypes.NewString("")
			for _, v := range a {
				out = sqltypes.Concat(out, v)
				if out.IsNull() {
					return sqltypes.Null, nil
				}
			}
			return out, nil
		}, true
	case "coalesce":
		return func(a []sqltypes.Value) (sqltypes.Value, error) {
			for _, v := range a {
				if !v.IsNull() {
					return v, nil
				}
			}
			return sqltypes.Null, nil
		}, true
	case "ifnull", "nvl":
		if argc != 2 {
			return nil, false
		}
		return func(a []sqltypes.Value) (sqltypes.Value, error) {
			if a[0].IsNull() {
				return a[1], nil
			}
			return a[0], nil
		}, true
	}
	return nil, false
}

// CompileAll compiles a list of expressions against the same schema.
func CompileAll(exprs []algebra.Expr, schema []algebra.Column, r CallResolver) ([]Evaluator, error) {
	out := make([]Evaluator, len(exprs))
	for i, e := range exprs {
		ev, err := Compile(e, schema, r)
		if err != nil {
			return nil, fmt.Errorf("expr %d (%s): %w", i, e, err)
		}
		out[i] = ev
	}
	return out, nil
}
