package core

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/ast"
	"udfdecorr/internal/ddg"
	"udfdecorr/internal/sqltypes"
)

// Fold recognition (Aggify, Gupta et al., SIGMOD 2020): a cursor loop whose
// result variable is an associative fold of per-row values computes a
// builtin aggregate, so its decorrelated form needs no interpreted
// auxiliary aggregate.

// fold is a recognised builtin fold of one loop result variable r: every
// iteration whose guard holds runs r = r + 1 (a count fold, term nil) or
// r = r ± term (a sum fold).
type fold struct {
	init  sqltypes.Value   // r's constant value before the loop
	guard algebra.Expr     // nil when the step is unconditional
	term  algebra.Expr     // the summed per-row value; nil for a count fold
	op    sqltypes.ArithOp // OpAdd, or OpSub for r = r - term
}

// builtinFold reports whether the loop suffix folds res with one builtin
// step: the only statement writing res is `res = res + 1`, `res = 1 + res`,
// `res = res + e`, `res = e + res` or `res = res - e`, bare or alone in
// the THEN of an IF without ELSE. The guard and e must read no variable
// the suffix writes, nothing else in the suffix may read res, and res must
// start at an integer constant, 0 for a sum fold so the additions run in
// the loop's order. ein is the per-row relation the guard and e are
// algebrized over.
func (b *UDFBuilder) builtinFold(res string, init sqltypes.Value, suffix []ast.Stmt, written ddg.VarSet, ein algebra.Rel, st *bodyState) (fold, bool) {
	if init.Kind() != sqltypes.KindInt {
		return fold{}, false
	}
	var step *ast.AssignStmt
	var cond ast.Expr
	for _, s := range suffix {
		reads, writes := ddg.ReadsWrites(s)
		if !writes[res] {
			if reads[res] {
				return fold{}, false
			}
			continue
		}
		if step != nil {
			return fold{}, false // a second statement writes res
		}
		body := []ast.Stmt{s}
		if ifs, ok := s.(*ast.IfStmt); ok && len(ifs.Else) == 0 {
			cond, body = ifs.Cond, ifs.Then
		}
		for _, t := range body {
			reads, writes := ddg.ReadsWrites(t)
			if a, ok := t.(*ast.AssignStmt); ok && a.Name == res && step == nil {
				step = a
			} else if writes[res] || reads[res] {
				return fold{}, false
			}
		}
	}
	if step == nil {
		return fold{}, false
	}
	f := fold{init: init, op: sqltypes.OpAdd}
	var term ast.Expr
	switch x, _ := step.Expr.(*ast.BinExpr); {
	case x == nil:
		return fold{}, false
	case x.Op == ast.BinAdd && isVarRef(x.L, res):
		term = x.R
	case x.Op == ast.BinAdd && isVarRef(x.R, res):
		term = x.L
	case x.Op == ast.BinSub && isVarRef(x.L, res):
		term, f.op = x.R, sqltypes.OpSub
	default:
		return fold{}, false
	}
	sc := b.scopeFor(ein, nil)
	for _, e := range []ast.Expr{cond, term} {
		if e == nil {
			continue
		}
		for v := range ddg.ExprReads(e) {
			if written[v] {
				return fold{}, false
			}
		}
	}
	if cond != nil {
		g, err := b.procExpr(cond, sc, st, ein.Schema())
		if err != nil || !b.scalarOnly(g) {
			return fold{}, false
		}
		f.guard = g
	}
	if lit, ok := term.(*ast.Lit); ok && f.op == sqltypes.OpAdd && lit.Val.Kind() == sqltypes.KindInt {
		if v, _ := lit.Val.AsInt(); v == 1 {
			return f, true // count fold
		}
	}
	if zero, _ := init.AsInt(); zero != 0 {
		return fold{}, false
	}
	t, err := b.procExpr(term, sc, st, ein.Schema())
	if err != nil || !b.scalarOnly(t) {
		return fold{}, false
	}
	f.term = t
	return f, true
}

// isVarRef reports whether e names the procedural variable v.
func isVarRef(e ast.Expr, v string) bool {
	switch x := e.(type) {
	case *ast.ColName:
		return x.Qual == "" && x.Name == v
	case *ast.ParamRef:
		return x.Name == v
	}
	return false
}

// scalarOnly reports whether e is a per-row scalar computation an
// aggregate argument may carry: no embedded query and no UDF invocation.
func (b *UDFBuilder) scalarOnly(e algebra.Expr) bool {
	ok := inlinable(e)
	algebra.VisitExpr(e, func(x algebra.Expr) {
		if c, isCall := x.(*algebra.Call); isCall {
			if _, udf := b.Cat.Function(c.Name); udf {
				ok = false
			}
		}
	}, nil)
	return ok
}

// foldAggs returns the builtin aggregates that compute a fold and the scalar
// expression over their outputs that equals the loop's final value of the
// result variable. A nil expression means the only aggregate, named as, is
// that value itself.
//
// A count fold is r0 + count(*), or r0 + count(case when p then 1 end)
// under a guard. A sum fold is 0 ± sum(e) (coalesced to 0 for an empty
// group), and NULL when a row that passes the guard has a NULL e, as
// r + NULL is in the loop: the two counts of guarded rows and of their
// non-NULL terms differ exactly then.
func (b *UDFBuilder) foldAggs(f fold, as string) ([]algebra.AggCall, algebra.Expr) {
	r0 := &algebra.Const{Val: f.init}
	var rows []algebra.Expr // count's arguments: none counts every row
	if f.guard != nil {
		rows = []algebra.Expr{guarded(f.guard, &algebra.Const{Val: sqltypes.NewInt(1)})}
	}
	if f.term == nil {
		if zero, _ := f.init.AsInt(); zero == 0 {
			return []algebra.AggCall{{Func: "count", Args: rows, As: as}}, nil
		}
		n := b.rw.FreshName("fold")
		return []algebra.AggCall{{Func: "count", Args: rows, As: n}},
			&algebra.Arith{Op: sqltypes.OpAdd, L: r0, R: &algebra.ColRef{Name: n}}
	}
	term := f.term
	if f.guard != nil {
		term = guarded(f.guard, term)
	}
	s := b.rw.FreshName("fold")
	nRows, nTerms := b.rw.FreshName("fold"), b.rw.FreshName("fold")
	calls := []algebra.AggCall{
		{Func: "sum", Args: []algebra.Expr{term}, As: s},
		{Func: "count", Args: rows, As: nRows},
		{Func: "count", Args: []algebra.Expr{term}, As: nTerms},
	}
	return calls, &algebra.Case{Whens: []algebra.CaseWhen{{
		Cond: &algebra.Cmp{Op: sqltypes.CmpEQ, L: &algebra.ColRef{Name: nRows}, R: &algebra.ColRef{Name: nTerms}},
		Then: &algebra.Call{Name: "coalesce", Args: []algebra.Expr{
			&algebra.Arith{Op: f.op, L: r0, R: &algebra.ColRef{Name: s}}, r0}},
	}}}
}

// guarded is CASE WHEN p THEN e END: e where p holds, NULL elsewhere.
func guarded(p, e algebra.Expr) algebra.Expr {
	return &algebra.Case{Whens: []algebra.CaseWhen{{Cond: p, Then: e}}}
}
