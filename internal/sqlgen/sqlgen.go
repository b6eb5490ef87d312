// Package sqlgen renders logical algebra trees back to SQL text: the output
// phase of the paper's query rewrite tool (Figure 9). Decorrelated trees
// become flat SELECT statements with joins, grouped derived tables and CASE
// expressions.
//
// Name management: every derived table exports its columns under their bare
// (unqualified) schema names, suffixed where two columns share one, and the
// generator substitutes references in enclosing clauses accordingly, so the
// emitted SQL is self-consistent.
package sqlgen

import (
	"fmt"
	"strings"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
)

// Generate renders a relational tree as a SQL SELECT statement.
func Generate(rel algebra.Rel) (string, error) {
	g := &generator{}
	q, err := g.toQuery(rel)
	if err != nil {
		return "", err
	}
	return q.SQL(0), nil
}

type generator struct {
	aliasSeq int
}

func (g *generator) freshAlias(prefix string) string {
	g.aliasSeq++
	return fmt.Sprintf("%s_%d", prefix, g.aliasSeq)
}

// orderKey is a pending ORDER BY key kept as an expression so that
// derived-table wrapping can rewrite its references.
type orderKey struct {
	e    algebra.Expr
	desc bool
}

// query is a SQL SELECT under construction.
type query struct {
	selectList []selItem
	distinct   bool
	from       []string
	where      []string
	groupBy    []string
	orderBy    []orderKey
	limit      string
	// passthrough is true while the select list merely re-exports base
	// columns; computed select lists force derived-table wrapping before
	// further clauses can be layered on.
	passthrough bool
	// renames rewrites references to columns whose source became a derived
	// table within this query (e.g. a grouped join input); operators
	// layering further clauses onto this query must apply it.
	renames renameMap
}

// selItem is one select-list entry: a rendered expression and its output
// name.
type selItem struct{ expr, as string }

// SQL renders the query with the given indentation depth.
func (q *query) SQL(depth int) string {
	g := &generator{}
	s, err := g.render(q, depth)
	if err != nil {
		return "-- sqlgen error: " + err.Error()
	}
	return s
}

// render produces the SQL text of a query.
func (g *generator) render(q *query, depth int) (string, error) {
	pad := strings.Repeat("  ", depth)
	var b strings.Builder
	b.WriteString(pad + "SELECT ")
	if q.distinct {
		b.WriteString("DISTINCT ")
	}
	if len(q.selectList) == 0 {
		b.WriteString("1")
	} else {
		for i, it := range q.selectList {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.expr + " AS " + it.as)
		}
	}
	if len(q.from) > 0 {
		b.WriteString("\n" + pad + "FROM " + strings.Join(q.from, "\n"+pad+"     "))
	}
	if len(q.where) > 0 {
		b.WriteString("\n" + pad + "WHERE " + strings.Join(q.where, " AND "))
	}
	if len(q.groupBy) > 0 {
		b.WriteString("\n" + pad + "GROUP BY " + strings.Join(q.groupBy, ", "))
	}
	if len(q.orderBy) > 0 {
		parts := make([]string, len(q.orderBy))
		for i, k := range q.orderBy {
			s, err := g.expr(k.e)
			if err != nil {
				return "", err
			}
			parts[i] = s
			if k.desc {
				parts[i] += " DESC"
			}
		}
		b.WriteString("\n" + pad + "ORDER BY " + strings.Join(parts, ", "))
	}
	if q.limit != "" {
		b.WriteString("\n" + pad + "LIMIT " + q.limit)
	}
	return b.String(), nil
}

func (q *query) simpleEnough() bool {
	return q.passthrough && len(q.groupBy) == 0 && !q.distinct && q.limit == "" && len(q.orderBy) == 0
}

// renameMap maps (qual, name) column references to replacement expressions.
type renameMap = map[algebra.Ref]algebra.Expr

// subst applies a rename map to an expression.
func subst(e algebra.Expr, m renameMap) algebra.Expr {
	if len(m) == 0 || e == nil {
		return e
	}
	return algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
		if c, ok := x.(*algebra.ColRef); ok {
			if repl, ok := m[algebra.Ref{Qual: c.Qual, Name: c.Name}]; ok {
				return repl
			}
		}
		return x
	}, func(sub algebra.Rel) algebra.Rel {
		return algebra.MapExprsDeep(sub, func(x algebra.Expr) algebra.Expr {
			if c, ok := x.(*algebra.ColRef); ok {
				if repl, ok := m[algebra.Ref{Qual: c.Qual, Name: c.Name}]; ok {
					return repl
				}
			}
			return x
		})
	})
}

// export names the select lists of qs, which render rel, as the columns of
// a derived table and returns the substitution for references into it under
// alias. Columns keep their bare names, with a numeric suffix where an
// earlier column took the name: a join exports l.partkey and pc.partkey,
// and under one name the table's partkey would always read the first. A
// reference resolves to the first column it matches, as on the engine.
func export(rel algebra.Rel, alias string, qs ...*query) renameMap {
	m := renameMap{}
	used := map[string]bool{}
	for i, c := range rel.Schema() {
		name := c.Name
		for n := 2; used[name]; n++ {
			name = fmt.Sprintf("%s_%d", c.Name, n)
		}
		used[name] = true
		for _, q := range qs {
			q.selectList[i].as = name
		}
		ref := &algebra.ColRef{Qual: alias, Name: name}
		for _, key := range []algebra.Ref{{Qual: c.Qual, Name: c.Name}, {Name: c.Name}} {
			if _, ok := m[key]; !ok {
				m[key] = ref
			}
		}
	}
	return m
}

// wrap turns a query into a derived-table source and returns the rename map
// callers must apply to references into it.
func (g *generator) wrap(q *query, rel algebra.Rel) (*query, renameMap) {
	alias := g.freshAlias("t")
	m := export(rel, alias, q)
	// ORDER BY does not survive inside a derived table; hoist pending keys
	// to the wrapper with their references rewritten.
	hoisted := q.orderBy
	q.orderBy = nil
	out := &query{from: []string{"(" + q.SQL(1) + ") " + alias}, passthrough: true, renames: m}
	for _, k := range hoisted {
		out.orderBy = append(out.orderBy, orderKey{e: subst(k.e, m), desc: k.desc})
	}
	for i, c := range rel.Schema() {
		out.selectList = append(out.selectList, selItem{alias + "." + q.selectList[i].as, c.Name})
	}
	return out, m
}

// toQuery converts a relational tree to a query. The invariant maintained
// throughout: the produced query's select list exports rel's schema columns
// aliased by their bare names, in order, while references *within* the query
// still use the original qualifiers.
func (g *generator) toQuery(rel algebra.Rel) (*query, error) {
	switch n := rel.(type) {
	case *algebra.Scan:
		src := n.Table
		if n.Alias != "" && n.Alias != n.Table {
			src += " " + n.Alias
		}
		q := &query{from: []string{src}, passthrough: true}
		for _, c := range n.Cols {
			q.selectList = append(q.selectList, selItem{c.String(), c.Name})
		}
		return q, nil

	case *algebra.Single:
		return &query{selectList: []selItem{{"1", "single_dummy"}}, passthrough: true}, nil

	case *algebra.Select:
		q, err := g.toQuery(n.In)
		if err != nil {
			return nil, err
		}
		pred := n.Pred
		if !q.simpleEnough() {
			var m renameMap
			q, m = g.wrap(q, n.In)
			pred = subst(pred, m)
		} else {
			pred = subst(pred, q.renames)
		}
		s, err := g.expr(pred)
		if err != nil {
			return nil, err
		}
		q.where = append(q.where, s)
		return q, nil

	case *algebra.Project:
		q, err := g.toQuery(n.In)
		if err != nil {
			return nil, err
		}
		m := q.renames
		if len(q.groupBy) > 0 || q.distinct || !q.passthrough || len(q.orderBy) > 0 {
			q, m = g.wrap(q, n.In)
		}
		q.selectList = nil
		pure := true
		for _, c := range n.Cols {
			s, err := g.expr(subst(c.E, m))
			if err != nil {
				return nil, err
			}
			if _, isRef := c.E.(*algebra.ColRef); !isRef {
				pure = false
			}
			q.selectList = append(q.selectList, selItem{s, c.As})
		}
		q.distinct = n.Dedup
		q.passthrough = pure && !n.Dedup
		if q.passthrough {
			// A pure renaming projection may be collapsed by enclosing
			// operators (GROUP BY replaces the select list entirely), so its
			// output aliases must substitute back to their source columns.
			ren := renameMap{}
			for k, v := range m {
				ren[k] = v
			}
			outCols := n.Schema()
			for i, c := range n.Cols {
				repl := subst(c.E, m)
				ren[algebra.Ref{Qual: outCols[i].Qual, Name: outCols[i].Name}] = repl
				if outCols[i].Qual != "" {
					ren[algebra.Ref{Name: outCols[i].Name}] = repl
				}
			}
			q.renames = ren
		}
		return q, nil

	case *algebra.Join:
		return g.joinQuery(n)

	case *algebra.GroupBy:
		q, err := g.toQuery(n.In)
		if err != nil {
			return nil, err
		}
		m := q.renames
		if !q.simpleEnough() {
			q, m = g.wrap(q, n.In)
		}
		q.selectList = nil
		for _, k := range n.Keys {
			ks, err := g.expr(subst(k, m))
			if err != nil {
				return nil, err
			}
			q.selectList = append(q.selectList, selItem{ks, k.Name})
			q.groupBy = append(q.groupBy, ks)
		}
		for _, a := range n.Aggs {
			args := make([]string, len(a.Args))
			for i, arg := range a.Args {
				s, err := g.expr(subst(arg, m))
				if err != nil {
					return nil, err
				}
				args[i] = s
			}
			inner := strings.Join(args, ", ")
			if len(a.Args) == 0 {
				inner = "*"
			}
			if a.Distinct {
				inner = "DISTINCT " + inner
			}
			q.selectList = append(q.selectList, selItem{a.Func + "(" + inner + ")", a.As})
		}
		q.passthrough = false
		return q, nil

	case *algebra.UnionAll:
		lq, err := g.toQuery(n.L)
		if err != nil {
			return nil, err
		}
		rq, err := g.toQuery(n.R)
		if err != nil {
			return nil, err
		}
		alias := g.freshAlias("u")
		export(n, alias, lq, rq)
		src := "(" + lq.SQL(1) + "\n UNION ALL\n" + rq.SQL(1) + ") " + alias
		q := &query{from: []string{src}, passthrough: true}
		for i, c := range n.Schema() {
			q.selectList = append(q.selectList, selItem{alias + "." + lq.selectList[i].as, c.Name})
		}
		return q, nil

	case *algebra.Limit:
		q, err := g.toQuery(n.In)
		if err != nil {
			return nil, err
		}
		if q.limit != "" {
			q, _ = g.wrap(q, n.In)
		}
		q.limit = fmt.Sprintf("%d", n.N)
		return q, nil

	case *algebra.Sort:
		q, err := g.toQuery(n.In)
		if err != nil {
			return nil, err
		}
		m := q.renames
		if q.limit != "" || q.distinct {
			q, m = g.wrap(q, n.In)
		}
		for _, k := range n.Keys {
			q.orderBy = append(q.orderBy, orderKey{e: subst(k.E, m), desc: k.Desc})
		}
		return q, nil

	case *algebra.TableFunc:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			s, err := g.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = s
		}
		alias := ""
		if len(n.Cols) > 0 && n.Cols[0].Qual != "" {
			alias = " " + n.Cols[0].Qual
		}
		q := &query{from: []string{n.Name + "(" + strings.Join(args, ", ") + ")" + alias}, passthrough: true}
		for _, c := range n.Cols {
			q.selectList = append(q.selectList, selItem{c.String(), c.Name})
		}
		return q, nil

	case *algebra.Apply, *algebra.ApplyMerge, *algebra.CondApplyMerge:
		return nil, fmt.Errorf("sqlgen: %s cannot be rendered; the tree is not decorrelated", rel.Describe())
	}
	return nil, fmt.Errorf("sqlgen: unsupported operator %T", rel)
}

// source renders a relation as a FROM-clause source, returning the rename
// substitution enclosing clauses must apply.
func (g *generator) source(rel algebra.Rel) (string, renameMap, error) {
	switch n := rel.(type) {
	case *algebra.Scan:
		if n.Alias != "" && n.Alias != n.Table {
			return n.Table + " " + n.Alias, nil, nil
		}
		return n.Table, nil, nil
	default:
		q, err := g.toQuery(rel)
		if err != nil {
			return "", nil, err
		}
		alias := g.freshAlias("d")
		m := export(rel, alias, q)
		return "(" + q.SQL(1) + ") " + alias, m, nil
	}
}

// joinQuery renders a join node.
func (g *generator) joinQuery(n *algebra.Join) (*query, error) {
	lsrc, lren, err := g.source(n.L)
	if err != nil {
		return nil, err
	}
	cond := n.Cond
	cond = subst(cond, lren)

	q := &query{passthrough: true}
	addCols := func(rel algebra.Rel, ren renameMap) error {
		for _, c := range rel.Schema() {
			var e algebra.Expr = &algebra.ColRef{Qual: c.Qual, Name: c.Name}
			e = subst(e, ren)
			s, err := g.expr(e)
			if err != nil {
				return err
			}
			q.selectList = append(q.selectList, selItem{s, c.Name})
		}
		return nil
	}

	switch n.Kind {
	case algebra.SemiJoin, algebra.AntiJoin:
		neg := ""
		if n.Kind == algebra.AntiJoin {
			neg = "NOT "
		}
		inner, err := g.toQuery(n.R)
		if err != nil {
			return nil, err
		}
		if cond != nil {
			s, err := g.expr(cond)
			if err != nil {
				return nil, err
			}
			inner.where = append(inner.where, s)
		}
		q.from = []string{lsrc}
		if err := addCols(n.L, lren); err != nil {
			return nil, err
		}
		q.where = append(q.where, neg+"EXISTS (\n"+inner.SQL(1)+"\n)")
		q.renames = lren
		return q, nil
	}

	rsrc, rren, err := g.source(n.R)
	if err != nil {
		return nil, err
	}
	cond = subst(cond, rren)
	var condStr string
	if cond != nil {
		condStr, err = g.expr(cond)
		if err != nil {
			return nil, err
		}
	}
	switch n.Kind {
	case algebra.CrossJoin:
		q.from = []string{lsrc, "CROSS JOIN " + rsrc}
		if condStr != "" {
			q.where = append(q.where, condStr)
		}
	case algebra.InnerJoin:
		if condStr == "" {
			condStr = "TRUE"
		}
		q.from = []string{lsrc, "JOIN " + rsrc + " ON " + condStr}
	case algebra.LeftOuterJoin:
		if condStr == "" {
			condStr = "TRUE"
		}
		q.from = []string{lsrc, "LEFT OUTER JOIN " + rsrc + " ON " + condStr}
	}
	if err := addCols(n.L, lren); err != nil {
		return nil, err
	}
	if err := addCols(n.R, rren); err != nil {
		return nil, err
	}
	q.renames = renameMap{}
	for k, v := range lren {
		q.renames[k] = v
	}
	for k, v := range rren {
		q.renames[k] = v
	}
	return q, nil
}

// expr renders a scalar expression as SQL.
func (g *generator) expr(e algebra.Expr) (string, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		if x.Qual != "" {
			return x.Qual + "." + x.Name, nil
		}
		return x.Name, nil
	case *algebra.ParamRef:
		return ":" + x.Name, nil
	case *algebra.Const:
		return literal(x.Val), nil
	case *algebra.Arith:
		return g.binary(x.L, x.Op.String(), x.R)
	case *algebra.Cmp:
		return g.binary(x.L, x.Op.String(), x.R)
	case *algebra.Logic:
		return g.binary(x.L, x.Op.String(), x.R)
	case *algebra.Not:
		s, err := g.expr(x.E)
		if err != nil {
			return "", err
		}
		return "(NOT " + s + ")", nil
	case *algebra.IsNull:
		s, err := g.expr(x.E)
		if err != nil {
			return "", err
		}
		if x.Neg {
			return "(" + s + " IS NOT NULL)", nil
		}
		return "(" + s + " IS NULL)", nil
	case *algebra.Case:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range x.Whens {
			c, err := g.expr(w.Cond)
			if err != nil {
				return "", err
			}
			t, err := g.expr(w.Then)
			if err != nil {
				return "", err
			}
			b.WriteString(" WHEN " + c + " THEN " + t)
		}
		if x.Else != nil {
			el, err := g.expr(x.Else)
			if err != nil {
				return "", err
			}
			b.WriteString(" ELSE " + el)
		}
		b.WriteString(" END")
		return b.String(), nil
	case *algebra.Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			s, err := g.expr(a)
			if err != nil {
				return "", err
			}
			args[i] = s
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")", nil
	case *algebra.Subquery:
		q, err := g.toQuery(x.Rel)
		if err != nil {
			return "", err
		}
		return "(\n" + q.SQL(1) + "\n)", nil
	case *algebra.Exists:
		q, err := g.toQuery(x.Rel)
		if err != nil {
			return "", err
		}
		neg := ""
		if x.Neg {
			neg = "NOT "
		}
		return neg + "EXISTS (\n" + q.SQL(1) + "\n)", nil
	}
	return "", fmt.Errorf("sqlgen: unsupported expression %T", e)
}

// literal renders a constant so that it parses back to the same kind: a
// FLOAT whose shortest form reads as an integer (100000) gets a ".0", or
// the re-parsed statement would compute with an INT. (Infinities and NaN
// have no literal form either way.)
func literal(v sqltypes.Value) string {
	s := v.String()
	if v.Kind() == sqltypes.KindFloat && !strings.ContainsAny(s, ".eEIN") {
		s += ".0"
	}
	return s
}

func (g *generator) binary(l algebra.Expr, op string, r algebra.Expr) (string, error) {
	ls, err := g.expr(l)
	if err != nil {
		return "", err
	}
	rs, err := g.expr(r)
	if err != nil {
		return "", err
	}
	return "(" + ls + " " + op + " " + rs + ")", nil
}
