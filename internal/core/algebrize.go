// Package core implements the paper's contribution: an algebraic
// representation for queries and imperative UDF bodies (Section IV),
// expression-tree merging (Section V), the transformation rules K1–K6 and
// R1–R9 that remove Apply operators (Section VI, Tables I and II), and the
// cursor-loop and table-valued-UDF handling of Section VII including
// auxiliary user-defined aggregate synthesis.
package core

import (
	"fmt"
	"strings"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

// Algebrizer translates parsed SQL into the logical algebra.
type Algebrizer struct {
	Cat *catalog.Catalog
	// aggSeq numbers synthesized aggregate output columns; it is shared
	// across all queries this instance algebrizes so that two embedded
	// queries in one UDF body cannot produce colliding aliases.
	aggSeq int
}

// NewAlgebrizer builds an algebrizer over a catalog.
func NewAlgebrizer(cat *catalog.Catalog) *Algebrizer {
	return &Algebrizer{Cat: cat}
}

// scope is a name-resolution scope: the schema of the current FROM clause,
// with a link to the enclosing (outer) scope for correlated subqueries.
type scope struct {
	schema []algebra.Column
	outer  *scope
}

func (s *scope) resolve(qual, name string) (algebra.Column, bool) {
	for sc := s; sc != nil; sc = sc.outer {
		if c, ok := algebra.ResolveRef(sc.schema, qual, name); ok {
			return c, true
		}
	}
	return algebra.Column{}, false
}

// Query algebrizes a SELECT statement into a relational tree.
func (a *Algebrizer) Query(sel *ast.SelectStmt) (algebra.Rel, error) {
	return a.query(sel, nil)
}

// Expr algebrizes an expression outside any FROM clause, as it appears in
// a UDF body or an INSERT's VALUES: bare names become parameters (the
// body's variables) and subqueries become relational subtrees.
func (a *Algebrizer) Expr(e ast.Expr) (algebra.Expr, error) {
	return a.expr(e, nil)
}

func (a *Algebrizer) query(sel *ast.SelectStmt, outer *scope) (algebra.Rel, error) {
	// FROM clause.
	var rel algebra.Rel = &algebra.Single{}
	for i, tr := range sel.From {
		r, err := a.tableRef(tr, outer)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			rel = r
		} else {
			rel = &algebra.Join{Kind: algebra.CrossJoin, L: rel, R: r}
		}
	}
	sc := &scope{schema: rel.Schema(), outer: outer}

	// WHERE clause.
	if sel.Where != nil {
		pred, err := a.pred(sel.Where, sc)
		if err != nil {
			return nil, err
		}
		rel = &algebra.Select{Pred: pred, In: rel}
	}

	// Collect aggregates from the select list and HAVING.
	agg := &aggCollector{alg: a, sc: sc}
	var items []ast.SelectItem
	for _, it := range sel.Items {
		if it.Star {
			for _, c := range sc.schema {
				items = append(items, ast.SelectItem{
					Expr:  &ast.ColName{Qual: c.Qual, Name: c.Name},
					Alias: c.Name,
				})
			}
			continue
		}
		items = append(items, it)
	}
	type projItem struct {
		e     algebra.Expr
		alias string
	}
	projItems := make([]projItem, len(items))
	for i, it := range items {
		e, err := agg.rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		alias := it.Alias
		if alias == "" {
			alias = defaultAlias(it.Expr, i)
		}
		projItems[i] = projItem{e: e, alias: alias}
	}
	var havingPred algebra.Expr
	if sel.Having != nil {
		var err error
		havingPred, err = agg.rewrite(sel.Having)
		if err != nil {
			return nil, err
		}
	}

	grouped := len(sel.GroupBy) > 0 || len(agg.aggs) > 0
	if grouped {
		var keys []*algebra.ColRef
		for _, g := range sel.GroupBy {
			ge, err := a.expr(g, sc)
			if err != nil {
				return nil, err
			}
			cr, ok := ge.(*algebra.ColRef)
			if !ok {
				return nil, fmt.Errorf("GROUP BY supports plain columns, got %s", ge)
			}
			keys = append(keys, cr)
		}
		rel = &algebra.GroupBy{Keys: keys, Aggs: agg.aggs, In: rel}
		sc = &scope{schema: rel.Schema(), outer: outer}
	}
	if havingPred != nil {
		rel = &algebra.Select{Pred: havingPred, In: rel}
	}

	// Projection.
	cols := make([]algebra.ProjCol, len(projItems))
	for i, it := range projItems {
		cols[i] = algebra.ProjCol{E: it.e, As: it.alias}
	}
	preProj := rel
	rel = &algebra.Project{Cols: cols, Dedup: sel.Distinct, In: rel}

	// ORDER BY resolves against the projected schema first, then the
	// pre-projection scope. A key equal to a selected column's expression
	// sorts on that column. Other keys referencing non-projected columns
	// are carried through hidden projection columns and stripped
	// afterwards.
	if len(sel.OrderBy) > 0 {
		outSchema := rel.Schema()
		outSc := &scope{schema: outSchema, outer: sc}
		keys := make([]algebra.SortKey, len(sel.OrderBy))
		hidden := false
		extCols := append([]algebra.ProjCol{}, cols...)
		for i, o := range sel.OrderBy {
			e, err := a.expr(o.Expr, outSc)
			if err != nil {
				return nil, err
			}
			if algebra.ExprUsesRefsOf(e, outSchema) || !algebra.ExprUsesRefsOf(e, preProj.Schema()) {
				keys[i] = algebra.SortKey{E: e, Desc: o.Desc}
				continue
			}
			if j := selectedAs(cols, outSchema, e); j >= 0 {
				keys[i] = algebra.SortKey{E: &algebra.ColRef{Name: cols[j].As}, Desc: o.Desc}
				continue
			}
			if sel.Distinct {
				return nil, fmt.Errorf("ORDER BY key %s is not in the DISTINCT select list", o.Expr.SQL())
			}
			hidden = true
			name := fmt.Sprintf("sortkey_%d", i+1)
			extCols = append(extCols, algebra.ProjCol{E: e, As: name})
			keys[i] = algebra.SortKey{E: &algebra.ColRef{Name: name}, Desc: o.Desc}
		}
		if hidden {
			sorted := &algebra.Sort{Keys: keys, In: &algebra.Project{Cols: extCols, In: preProj}}
			visible := make([]algebra.ProjCol, len(cols))
			for i, c := range cols {
				visible[i] = algebra.ProjCol{E: &algebra.ColRef{Name: c.As}, As: c.As}
			}
			rel = &algebra.Project{Cols: visible, In: sorted}
		} else {
			rel = &algebra.Sort{Keys: keys, In: rel}
		}
	}

	// TOP / LIMIT.
	if sel.Top != nil {
		lit, ok := sel.Top.(*ast.Lit)
		if !ok {
			return nil, fmt.Errorf("TOP requires a literal count")
		}
		n, ok2 := lit.Val.AsInt()
		if !ok2 || n < 0 {
			return nil, fmt.Errorf("TOP requires a non-negative integer")
		}
		rel = &algebra.Limit{N: n, In: rel}
	}
	return rel, nil
}

// selectedAs returns the position of the first selected column whose
// expression equals e and whose name resolves to it in the projected
// schema, or -1.
func selectedAs(cols []algebra.ProjCol, outSchema []algebra.Column, e algebra.Expr) int {
	for j, c := range cols {
		if algebra.EqualExpr(c.E, e) && algebra.RefIndex(outSchema, "", c.As) == j {
			return j
		}
	}
	return -1
}

func defaultAlias(e ast.Expr, i int) string {
	switch x := e.(type) {
	case *ast.ColName:
		return x.Name
	case *ast.FuncCall:
		return strings.ToLower(x.Name)
	default:
		return fmt.Sprintf("col_%d", i+1)
	}
}

func (a *Algebrizer) tableRef(tr ast.TableRef, outer *scope) (algebra.Rel, error) {
	switch t := tr.(type) {
	case *ast.TableName:
		meta, ok := a.Cat.Table(t.Name)
		if !ok {
			return nil, fmt.Errorf("unknown table %q", t.Name)
		}
		alias := t.Alias
		if alias == "" {
			alias = strings.ToLower(t.Name)
		}
		cols := make([]algebra.Column, len(meta.Cols))
		for i, c := range meta.Cols {
			cols[i] = algebra.Column{Qual: alias, Name: c.Name, Type: c.Type}
		}
		return &algebra.Scan{Table: strings.ToLower(t.Name), Alias: alias, Cols: cols}, nil

	case *ast.JoinRef:
		l, err := a.tableRef(t.L, outer)
		if err != nil {
			return nil, err
		}
		r, err := a.tableRef(t.R, outer)
		if err != nil {
			return nil, err
		}
		kind := algebra.InnerJoin
		switch t.Kind {
		case ast.JoinLeftOuter:
			kind = algebra.LeftOuterJoin
		case ast.JoinCross:
			kind = algebra.CrossJoin
		}
		j := &algebra.Join{Kind: kind, L: l, R: r}
		if t.On != nil {
			sc := &scope{schema: j.Schema(), outer: outer}
			cond, err := a.pred(t.On, sc)
			if err != nil {
				return nil, err
			}
			j.Cond = cond
		}
		return j, nil

	case *ast.SubqueryRef:
		sub, err := a.query(t.Select, outer)
		if err != nil {
			return nil, err
		}
		// Re-qualify the derived table's outputs under its alias.
		inner := sub.Schema()
		cols := make([]algebra.ProjCol, len(inner))
		for i, c := range inner {
			cols[i] = algebra.ProjCol{
				E:    &algebra.ColRef{Qual: c.Qual, Name: c.Name},
				Qual: t.Alias,
				As:   c.Name,
			}
		}
		return &algebra.Project{Cols: cols, In: sub}, nil

	case *ast.FuncRef:
		fn, ok := a.Cat.Function(t.Name)
		if !ok || !fn.IsTableValued() {
			return nil, fmt.Errorf("unknown table function %q", t.Name)
		}
		alias := t.Alias
		if alias == "" {
			alias = strings.ToLower(t.Name)
		}
		args := make([]algebra.Expr, len(t.Args))
		for i, arg := range t.Args {
			e, err := a.expr(arg, outer)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		cols := make([]algebra.Column, len(fn.Def.TableCols))
		for i, c := range fn.Def.TableCols {
			cols[i] = algebra.Column{Qual: alias, Name: c.Name, Type: c.Type}
		}
		return &algebra.TableFunc{Name: strings.ToLower(t.Name), Args: args, Cols: cols}, nil
	}
	return nil, fmt.Errorf("unsupported table reference %T", tr)
}

// expr algebrizes a scalar expression. Unqualified names that resolve in no
// scope become parameters (UDF local variables or host variables);
// qualified names that fail to resolve stay as column references so that
// correlation analysis can see them.
func (a *Algebrizer) expr(e ast.Expr, sc *scope) (algebra.Expr, error) {
	switch x := e.(type) {
	case *ast.Lit:
		return &algebra.Const{Val: x.Val}, nil

	case *ast.ParamRef:
		return &algebra.ParamRef{Name: x.Name}, nil

	case *ast.ColName:
		if sc != nil {
			if c, ok := sc.resolve(x.Qual, x.Name); ok {
				return &algebra.ColRef{Qual: c.Qual, Name: c.Name}, nil
			}
		}
		if x.Qual != "" {
			return &algebra.ColRef{Qual: x.Qual, Name: x.Name}, nil
		}
		// Unresolved bare name: a procedural variable.
		return &algebra.ParamRef{Name: x.Name}, nil

	case *ast.BinExpr:
		l, err := a.expr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := a.expr(x.R, sc)
		if err != nil {
			return nil, err
		}
		switch {
		case x.Op == ast.BinAnd:
			return &algebra.Logic{Op: algebra.LogicAnd, L: l, R: r}, nil
		case x.Op == ast.BinOr:
			return &algebra.Logic{Op: algebra.LogicOr, L: l, R: r}, nil
		case x.Op == ast.BinConcat:
			return &algebra.Call{Name: "concat", Args: []algebra.Expr{l, r}}, nil
		case x.Op.IsComparison():
			return &algebra.Cmp{Op: astCmp(x.Op), L: l, R: r}, nil
		default:
			return &algebra.Arith{Op: astArith(x.Op), L: l, R: r}, nil
		}

	case *ast.UnaryExpr:
		inner, err := a.expr(x.E, sc)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &algebra.Not{E: inner}, nil
		}
		return &algebra.Arith{Op: sqltypes.OpSub,
			L: &algebra.Const{Val: sqltypes.NewInt(0)}, R: inner}, nil

	case *ast.IsNullExpr:
		inner, err := a.expr(x.E, sc)
		if err != nil {
			return nil, err
		}
		return &algebra.IsNull{Neg: x.Neg, E: inner}, nil

	case *ast.CaseExpr:
		out := &algebra.Case{}
		for _, w := range x.Whens {
			c, err := a.expr(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			t, err := a.expr(w.Then, sc)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, algebra.CaseWhen{Cond: c, Then: t})
		}
		if x.Else != nil {
			el, err := a.expr(x.Else, sc)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil

	case *ast.FuncCall:
		name := strings.ToLower(x.Name)
		if a.Cat.IsAggregate(name) {
			return nil, fmt.Errorf("aggregate %s not allowed here", name)
		}
		args := make([]algebra.Expr, len(x.Args))
		for i, arg := range x.Args {
			e, err := a.expr(arg, sc)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		return &algebra.Call{Name: name, Args: args}, nil

	case *ast.SubqueryExpr:
		sub, err := a.query(x.Select, sc)
		if err != nil {
			return nil, err
		}
		if len(sub.Schema()) != 1 {
			return nil, fmt.Errorf("scalar subquery must produce one column")
		}
		return &algebra.Subquery{Rel: sub}, nil

	case *ast.ExistsExpr:
		sub, err := a.query(x.Select, sc)
		if err != nil {
			return nil, err
		}
		return &algebra.Exists{Neg: x.Neg, Rel: sub}, nil

	case *ast.InExpr:
		if x.Select != nil {
			return a.inSubquery(x, sc, false)
		}
		lhs, err := a.expr(x.E, sc)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr
		for _, le := range x.List {
			item, err := a.expr(le, sc)
			if err != nil {
				return nil, err
			}
			eq := &algebra.Cmp{Op: sqltypes.CmpEQ, L: lhs, R: item}
			if out == nil {
				out = eq
			} else {
				out = &algebra.Logic{Op: algebra.LogicOr, L: out, R: eq}
			}
		}
		if out == nil {
			return &algebra.Const{Val: sqltypes.NewBool(false)}, nil
		}
		if x.Neg {
			out = &algebra.Not{E: out}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

// pred algebrizes a filter condition (WHERE, ON), where UNKNOWN rejects a
// row just as FALSE does. AND and OR are monotone, so below them an
// IN-subquery may take its filter form, a plain [NOT] EXISTS that the
// rewriter turns into a semijoin or antijoin.
func (a *Algebrizer) pred(e ast.Expr, sc *scope) (algebra.Expr, error) {
	switch x := e.(type) {
	case *ast.BinExpr:
		if x.Op != ast.BinAnd && x.Op != ast.BinOr {
			break
		}
		l, err := a.pred(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := a.pred(x.R, sc)
		if err != nil {
			return nil, err
		}
		op := algebra.LogicAnd
		if x.Op == ast.BinOr {
			op = algebra.LogicOr
		}
		return &algebra.Logic{Op: op, L: l, R: r}, nil
	case *ast.InExpr:
		if x.Select != nil {
			return a.inSubquery(x, sc, true)
		}
	}
	return a.expr(e, sc)
}

// inSubquery algebrizes x [NOT] IN (q), where q yields one column c. SQL
// reads it in three values: TRUE if some c equals x; otherwise UNKNOWN if x
// is NULL and q is not empty, or if some c is NULL; otherwise FALSE. As a
// filter only TRUE counts, so IN is EXISTS(σ x=c (q)) and NOT IN is
// NOT EXISTS(σ x=c ∨ x IS NULL ∨ c IS NULL (q)). As a value, IN is
// CASE WHEN EXISTS(σ x=c (q)) THEN TRUE WHEN EXISTS(σ x IS NULL ∨ c IS NULL
// (q)) THEN NULL ELSE FALSE END, and NOT IN its negation.
func (a *Algebrizer) inSubquery(x *ast.InExpr, sc *scope, filter bool) (algebra.Expr, error) {
	// exists builds EXISTS(σ cond(x, c) (q)) from a fresh algebrization of
	// x and q, so that no subtree is shared between two EXISTS.
	exists := func(neg bool, cond func(lhs, col algebra.Expr) algebra.Expr) (algebra.Expr, error) {
		lhs, err := a.expr(x.E, sc)
		if err != nil {
			return nil, err
		}
		sub, err := a.query(x.Select, sc)
		if err != nil {
			return nil, err
		}
		cols := sub.Schema()
		if len(cols) != 1 {
			return nil, fmt.Errorf("IN subquery must produce one column")
		}
		col := &algebra.ColRef{Qual: cols[0].Qual, Name: cols[0].Name}
		return &algebra.Exists{Neg: neg, Rel: &algebra.Select{Pred: cond(lhs, col), In: sub}}, nil
	}
	eq := func(lhs, col algebra.Expr) algebra.Expr {
		return &algebra.Cmp{Op: sqltypes.CmpEQ, L: lhs, R: col}
	}
	eitherNull := func(lhs, col algebra.Expr) algebra.Expr {
		return &algebra.Logic{Op: algebra.LogicOr, L: &algebra.IsNull{E: lhs}, R: &algebra.IsNull{E: col}}
	}
	if filter && !x.Neg {
		return exists(false, eq)
	}
	if filter {
		return exists(true, func(lhs, col algebra.Expr) algebra.Expr {
			return &algebra.Logic{Op: algebra.LogicOr, L: eq(lhs, col), R: eitherNull(lhs, col)}
		})
	}
	match, err := exists(false, eq)
	if err != nil {
		return nil, err
	}
	unknown, err := exists(false, eitherNull)
	if err != nil {
		return nil, err
	}
	var out algebra.Expr = &algebra.Case{
		Whens: []algebra.CaseWhen{
			{Cond: match, Then: &algebra.Const{Val: sqltypes.NewBool(true)}},
			{Cond: unknown, Then: algebra.NullConst()},
		},
		Else: &algebra.Const{Val: sqltypes.NewBool(false)},
	}
	if x.Neg {
		out = &algebra.Not{E: out}
	}
	return out, nil
}

// aggCollector extracts aggregate calls from select items and HAVING,
// replacing them with references to synthesized group-by output columns.
type aggCollector struct {
	alg  *Algebrizer
	sc   *scope
	aggs []algebra.AggCall
}

func (c *aggCollector) rewrite(e ast.Expr) (algebra.Expr, error) {
	switch x := e.(type) {
	case *ast.FuncCall:
		name := strings.ToLower(x.Name)
		if c.alg.Cat.IsAggregate(name) {
			var args []algebra.Expr
			if !x.Star {
				for _, arg := range x.Args {
					ae, err := c.alg.expr(arg, c.sc)
					if err != nil {
						return nil, err
					}
					args = append(args, ae)
				}
			}
			call := algebra.AggCall{Func: name, Args: args, Distinct: x.Distinct}
			// Reuse an identical aggregate if already collected.
			for _, prev := range c.aggs {
				if prev.Func == call.Func && prev.Distinct == call.Distinct && len(prev.Args) == len(call.Args) {
					same := true
					for i := range prev.Args {
						if !algebra.EqualExpr(prev.Args[i], call.Args[i]) {
							same = false
							break
						}
					}
					if same {
						return &algebra.ColRef{Name: prev.As}, nil
					}
				}
			}
			c.alg.aggSeq++
			call.As = fmt.Sprintf("agg_%d", c.alg.aggSeq)
			c.aggs = append(c.aggs, call)
			return &algebra.ColRef{Name: call.As}, nil
		}
		// Non-aggregate call: rewrite arguments (they may contain aggregates).
		args := make([]algebra.Expr, len(x.Args))
		for i, arg := range x.Args {
			ae, err := c.rewrite(arg)
			if err != nil {
				return nil, err
			}
			args[i] = ae
		}
		return &algebra.Call{Name: name, Args: args}, nil

	case *ast.BinExpr:
		l, err := c.rewrite(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.rewrite(x.R)
		if err != nil {
			return nil, err
		}
		switch {
		case x.Op == ast.BinAnd:
			return &algebra.Logic{Op: algebra.LogicAnd, L: l, R: r}, nil
		case x.Op == ast.BinOr:
			return &algebra.Logic{Op: algebra.LogicOr, L: l, R: r}, nil
		case x.Op == ast.BinConcat:
			return &algebra.Call{Name: "concat", Args: []algebra.Expr{l, r}}, nil
		case x.Op.IsComparison():
			return &algebra.Cmp{Op: astCmp(x.Op), L: l, R: r}, nil
		default:
			return &algebra.Arith{Op: astArith(x.Op), L: l, R: r}, nil
		}

	case *ast.UnaryExpr:
		inner, err := c.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &algebra.Not{E: inner}, nil
		}
		return &algebra.Arith{Op: sqltypes.OpSub,
			L: &algebra.Const{Val: sqltypes.NewInt(0)}, R: inner}, nil

	case *ast.CaseExpr:
		out := &algebra.Case{}
		for _, w := range x.Whens {
			cond, err := c.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := c.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, algebra.CaseWhen{Cond: cond, Then: then})
		}
		if x.Else != nil {
			el, err := c.rewrite(x.Else)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil

	case *ast.IsNullExpr:
		inner, err := c.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &algebra.IsNull{Neg: x.Neg, E: inner}, nil

	default:
		return c.alg.expr(e, c.sc)
	}
}

func astCmp(op ast.BinOp) sqltypes.CmpOp {
	switch op {
	case ast.BinEQ:
		return sqltypes.CmpEQ
	case ast.BinNE:
		return sqltypes.CmpNE
	case ast.BinLT:
		return sqltypes.CmpLT
	case ast.BinLE:
		return sqltypes.CmpLE
	case ast.BinGT:
		return sqltypes.CmpGT
	default:
		return sqltypes.CmpGE
	}
}

func astArith(op ast.BinOp) sqltypes.ArithOp {
	switch op {
	case ast.BinAdd:
		return sqltypes.OpAdd
	case ast.BinSub:
		return sqltypes.OpSub
	case ast.BinMul:
		return sqltypes.OpMul
	case ast.BinDiv:
		return sqltypes.OpDiv
	default:
		return sqltypes.OpMod
	}
}
