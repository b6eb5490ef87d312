package algebra

// NodeExprs returns the scalar expressions attached directly to a node
// (not those of its children).
func NodeExprs(r Rel) []Expr {
	switch n := r.(type) {
	case *Select:
		return []Expr{n.Pred}
	case *Project:
		out := make([]Expr, len(n.Cols))
		for i, c := range n.Cols {
			out[i] = c.E
		}
		return out
	case *Join:
		if n.Cond != nil {
			return []Expr{n.Cond}
		}
	case *GroupBy:
		var out []Expr
		for _, k := range n.Keys {
			out = append(out, k)
		}
		for _, a := range n.Aggs {
			out = append(out, a.Args...)
		}
		return out
	case *Sort:
		out := make([]Expr, len(n.Keys))
		for i, k := range n.Keys {
			out[i] = k.E
		}
		return out
	case *Apply:
		out := make([]Expr, len(n.Binds))
		for i, b := range n.Binds {
			out[i] = b.Arg
		}
		return out
	case *CondApplyMerge:
		return []Expr{n.Pred}
	case *TableFunc:
		return n.Args
	}
	return nil
}

// mapNodeExprs returns a copy of the node with its own expressions rewritten
// by f (children untouched). f must not return nil for non-nil input.
func mapNodeExprs(r Rel, f func(Expr) Expr) Rel {
	switch n := r.(type) {
	case *Select:
		return &Select{Pred: f(n.Pred), In: n.In}
	case *Project:
		cols := make([]ProjCol, len(n.Cols))
		for i, c := range n.Cols {
			cols[i] = ProjCol{E: f(c.E), Qual: c.Qual, As: c.As}
		}
		return &Project{Cols: cols, Dedup: n.Dedup, In: n.In}
	case *Join:
		j := &Join{Kind: n.Kind, L: n.L, R: n.R}
		if n.Cond != nil {
			j.Cond = f(n.Cond)
		}
		return j
	case *GroupBy:
		keys := make([]*ColRef, len(n.Keys))
		for i, k := range n.Keys {
			nk := f(k)
			if cr, ok := nk.(*ColRef); ok {
				keys[i] = cr
			} else {
				keys[i] = k
			}
		}
		aggs := make([]AggCall, len(n.Aggs))
		for i, a := range n.Aggs {
			args := make([]Expr, len(a.Args))
			for j, arg := range a.Args {
				args[j] = f(arg)
			}
			aggs[i] = AggCall{Func: a.Func, Args: args, Distinct: a.Distinct, As: a.As}
		}
		return &GroupBy{Keys: keys, Aggs: aggs, In: n.In}
	case *Sort:
		keys := make([]SortKey, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = SortKey{E: f(k.E), Desc: k.Desc}
		}
		return &Sort{Keys: keys, In: n.In}
	case *Apply:
		binds := make([]Bind, len(n.Binds))
		for i, b := range n.Binds {
			binds[i] = Bind{Param: b.Param, Arg: f(b.Arg)}
		}
		return &Apply{Kind: n.Kind, Binds: binds, L: n.L, R: n.R}
	case *CondApplyMerge:
		return &CondApplyMerge{Pred: f(n.Pred), Then: n.Then, Else: n.Else, In: n.In}
	case *TableFunc:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = f(a)
		}
		return &TableFunc{Name: n.Name, Args: args, Cols: n.Cols}
	}
	return r
}

// Transform applies f bottom-up over the relational tree: children first,
// then f on the rebuilt node. Relations nested inside scalar subqueries are
// transformed too.
func Transform(r Rel, f func(Rel) Rel) Rel {
	ch := r.Children()
	if len(ch) > 0 {
		nch := make([]Rel, len(ch))
		changed := false
		for i, c := range ch {
			nch[i] = Transform(c, f)
			if nch[i] != c {
				changed = true
			}
		}
		if changed {
			r = r.WithChildren(nch)
		}
	}
	// Descend into subqueries in this node's expressions.
	r = mapNodeExprs(r, func(e Expr) Expr {
		return MapExpr(e, func(x Expr) Expr { return x }, func(sub Rel) Rel {
			return Transform(sub, f)
		})
	})
	return f(r)
}

// Visit walks the tree top-down (including subquery relations), calling f on
// every node.
func Visit(r Rel, f func(Rel)) {
	f(r)
	for _, c := range r.Children() {
		Visit(c, f)
	}
	for _, e := range NodeExprs(r) {
		VisitExpr(e, func(Expr) {}, func(sub Rel) { Visit(sub, f) })
	}
}

// MapExprsDeep rewrites every scalar expression in the tree (including
// inside subqueries) with f, bottom-up per expression.
func MapExprsDeep(r Rel, f func(Expr) Expr) Rel {
	return Transform(r, func(n Rel) Rel {
		return mapNodeExprs(n, func(e Expr) Expr {
			return MapExpr(e, f, nil) // subquery rels already transformed
		})
	})
}

// Count returns the number of nodes in the tree satisfying pred.
func Count(r Rel, pred func(Rel) bool) int {
	n := 0
	Visit(r, func(x Rel) {
		if pred(x) {
			n++
		}
	})
	return n
}

// HasApply reports whether any Apply-family operator remains in the tree.
func HasApply(r Rel) bool {
	return Count(r, func(x Rel) bool {
		switch x.(type) {
		case *Apply, *ApplyMerge, *CondApplyMerge:
			return true
		}
		return false
	}) > 0
}
