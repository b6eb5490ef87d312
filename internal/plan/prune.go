package plan

import "udfdecorr/internal/algebra"

// Column pruning. Before a plan is built, one top-down walk works out which
// output columns each operator's consumer reads, so that a join builds only
// those: it drops the unread columns of non-DISTINCT projections and puts a
// column-only projection over each join whose consumer reads fewer columns
// than the join produces, which Planner.project folds into the join's
// output list.
//
// A consumer's reference resolves to the first column it matches, as
// algebra.ResolveRef does, and only that column is kept. Removing other
// columns never moves a reference's first match, so every kept column
// resolves to the same column as before.

// prune returns rel with the columns no consumer reads removed. need[i]
// reports whether the consumer reads column i of rel's schema; nil means it
// reads every column. The result's schema holds every needed column in its
// original order, and at least one column.
func prune(rel algebra.Rel, need []bool) algebra.Rel {
	switch n := rel.(type) {
	case *algebra.Project:
		cols := n.Cols
		if need != nil && !n.Dedup {
			cols = make([]algebra.ProjCol, 0, len(n.Cols))
			for i, c := range n.Cols {
				if need[i] {
					cols = append(cols, c)
				}
			}
			if len(cols) == 0 && len(n.Cols) > 0 {
				cols = n.Cols[:1]
			}
		}
		in := n.In.Schema()
		inNeed := make([]bool, len(in))
		for _, c := range cols {
			markRefs(inNeed, in, c.E)
		}
		if child := prune(n.In, inNeed); child != n.In || len(cols) < len(n.Cols) {
			return &algebra.Project{Cols: cols, Dedup: n.Dedup, In: child}
		}
		return n

	case *algebra.Select:
		inNeed := need
		if need != nil {
			inNeed = append([]bool(nil), need...)
			markRefs(inNeed, n.In.Schema(), n.Pred)
		}
		if child := prune(n.In, inNeed); child != n.In {
			return &algebra.Select{Pred: n.Pred, In: child}
		}
		return n

	case *algebra.Sort:
		inNeed := need
		if need != nil {
			inNeed = append([]bool(nil), need...)
			in := n.In.Schema()
			for _, k := range n.Keys {
				markRefs(inNeed, in, k.E)
			}
		}
		if child := prune(n.In, inNeed); child != n.In {
			return &algebra.Sort{Keys: n.Keys, In: child}
		}
		return n

	case *algebra.Limit:
		if child := prune(n.In, need); child != n.In {
			return &algebra.Limit{N: n.N, In: child}
		}
		return n

	case *algebra.GroupBy:
		in := n.In.Schema()
		inNeed := make([]bool, len(in))
		for _, k := range n.Keys {
			markRef(inNeed, in, k.Qual, k.Name)
		}
		for _, a := range n.Aggs {
			for _, arg := range a.Args {
				markRefs(inNeed, in, arg)
			}
		}
		if child := prune(n.In, inNeed); child != n.In {
			return &algebra.GroupBy{Keys: n.Keys, Aggs: n.Aggs, In: child}
		}
		return n

	case *algebra.Join:
		ls, rs := n.L.Schema(), n.R.Schema()
		lNeed, rNeed := splitNeed(need, n.Kind, len(ls), len(rs))
		// A condition's reference keeps the column it names on each input
		// it resolves in, so buildJoin splits the condition as before.
		if lNeed != nil {
			markRefs(lNeed, ls, n.Cond)
		}
		if rNeed != nil {
			markRefs(rNeed, rs, n.Cond)
		}
		var out algebra.Rel = n
		if l, r := prune(n.L, lNeed), prune(n.R, rNeed); l != n.L || r != n.R {
			out = &algebra.Join{Kind: n.Kind, Cond: n.Cond, L: l, R: r}
		}
		return narrow(out, need, ls, rs)

	case *algebra.Apply:
		ls, rs := n.L.Schema(), n.R.Schema()
		lNeed, rNeed := splitNeed(need, n.Kind, len(ls), len(rs))
		if lNeed != nil {
			for ref := range algebra.FreeRefs(n.R) {
				if !ref.IsParam {
					markRef(lNeed, ls, ref.Qual, ref.Name)
				}
			}
			for _, b := range n.Binds {
				markRefs(lNeed, ls, b.Arg)
			}
		}
		var out algebra.Rel = n
		if l, r := prune(n.L, lNeed), prune(n.R, rNeed); l != n.L || r != n.R {
			out = &algebra.Apply{Kind: n.Kind, Binds: n.Binds, L: l, R: r}
		}
		return narrow(out, need, ls, rs)

	case *algebra.UnionAll:
		if l, r := prune(n.L, nil), prune(n.R, nil); l != n.L || r != n.R {
			return &algebra.UnionAll{L: l, R: r}
		}
		return n
	}
	return rel
}

// splitNeed splits a join's need over its two inputs. The right input of a
// semi or anti join contributes no output column, so its consumer reads
// nothing of it; otherwise a nil need (every column) stays nil.
func splitNeed(need []bool, kind algebra.JoinKind, lw, rw int) (l, r []bool) {
	semi := kind == algebra.SemiJoin || kind == algebra.AntiJoin
	if semi {
		r = make([]bool, rw)
	}
	if need == nil {
		return nil, r
	}
	l = append([]bool(nil), need[:lw]...)
	if !semi {
		r = append([]bool(nil), need[lw:]...)
	}
	return l, r
}

// narrow puts a column-only projection of the needed columns over a join
// whose consumer reads fewer columns than it produces, keeping the first
// column when the consumer reads none. ls and rs are the join's inputs'
// schemas before pruning, the ones need indexes.
func narrow(j algebra.Rel, need []bool, ls, rs []algebra.Column) algebra.Rel {
	if need == nil {
		return j
	}
	proj := func(i int) algebra.ProjCol {
		var c algebra.Column
		if i < len(ls) {
			c = ls[i]
		} else {
			c = rs[i-len(ls)]
		}
		return algebra.ProjCol{E: &algebra.ColRef{Qual: c.Qual, Name: c.Name}, Qual: c.Qual, As: c.Name}
	}
	var cols []algebra.ProjCol
	for i, ok := range need {
		if ok {
			cols = append(cols, proj(i))
		}
	}
	switch len(cols) {
	case len(need):
		return j
	case 0:
		cols = []algebra.ProjCol{proj(0)}
	}
	return &algebra.Project{Cols: cols, In: j}
}

// markRefs marks in need the column of schema that each column reference
// of e resolves to. A subquery in e counts through its free references.
func markRefs(need []bool, schema []algebra.Column, e algebra.Expr) {
	algebra.VisitExpr(e, func(x algebra.Expr) {
		if c, ok := x.(*algebra.ColRef); ok {
			markRef(need, schema, c.Qual, c.Name)
		}
	}, func(sub algebra.Rel) {
		for ref := range algebra.FreeRefs(sub) {
			if !ref.IsParam {
				markRef(need, schema, ref.Qual, ref.Name)
			}
		}
	})
}

// markRef marks the column of schema that (qual, name) resolves to.
func markRef(need []bool, schema []algebra.Column, qual, name string) {
	if i := algebra.RefIndex(schema, qual, name); i >= 0 {
		need[i] = true
	}
}
