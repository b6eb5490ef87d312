package algebra

import "sort"

// Ref identifies a free reference: either a parameter or a column reference
// not satisfied within a subtree.
type Ref struct {
	IsParam bool
	Qual    string
	Name    string
}

// String renders the reference.
func (r Ref) String() string {
	if r.IsParam {
		return ":" + r.Name
	}
	if r.Qual != "" {
		return r.Qual + "." + r.Name
	}
	return r.Name
}

// RefSet is a set of free references.
type RefSet map[Ref]bool

// Add inserts a reference.
func (s RefSet) Add(r Ref) { s[r] = true }

// AddAll unions another set into this one.
func (s RefSet) AddAll(o RefSet) {
	for r := range o {
		s[r] = true
	}
}

// Sorted returns the references in a deterministic order.
func (s RefSet) Sorted() []Ref {
	out := make([]Ref, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IsParam != out[j].IsParam {
			return out[i].IsParam
		}
		if out[i].Qual != out[j].Qual {
			return out[i].Qual < out[j].Qual
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// exprRefs collects parameter references and column references in an
// expression that are not bound by the given schema. Subquery relations are
// analysed recursively: their free refs (minus the schema) count too.
func exprRefs(e Expr, schema []Column, out RefSet) {
	VisitExpr(e, func(x Expr) {
		switch n := x.(type) {
		case *ParamRef:
			out.Add(Ref{IsParam: true, Name: n.Name})
		case *ColRef:
			if !HasRef(schema, n.Qual, n.Name) {
				out.Add(Ref{Qual: n.Qual, Name: n.Name})
			}
		}
	}, func(sub Rel) {
		for r := range FreeRefs(sub) {
			if !r.IsParam && HasRef(schema, r.Qual, r.Name) {
				continue
			}
			out.Add(r)
		}
	})
}

// FreeRefs computes the free references of a relational expression: the
// parameters and column references it uses that are not produced within the
// expression itself. A correlated subexpression has a non-empty result.
func FreeRefs(r Rel) RefSet {
	out := RefSet{}
	switch n := r.(type) {
	case *Scan, *Single:
		return out

	case *Apply:
		out.AddAll(FreeRefs(n.L))
		lSchema := n.L.Schema()
		// Bind arguments are evaluated against the outer row.
		for _, b := range n.Binds {
			exprRefs(b.Arg, lSchema, out)
		}
		// The right child may use outer columns and bound params freely.
		inner := FreeRefs(n.R)
		bound := map[string]bool{}
		for _, b := range n.Binds {
			bound[b.Param] = true
		}
		for ref := range inner {
			if ref.IsParam && bound[ref.Name] {
				continue
			}
			if !ref.IsParam && HasRef(lSchema, ref.Qual, ref.Name) {
				continue
			}
			out.Add(ref)
		}
		return out

	case *ApplyMerge:
		out.AddAll(FreeRefs(n.L))
		lSchema := n.L.Schema()
		for ref := range FreeRefs(n.R) {
			if !ref.IsParam && HasRef(lSchema, ref.Qual, ref.Name) {
				continue
			}
			out.Add(ref)
		}
		return out

	case *CondApplyMerge:
		out.AddAll(FreeRefs(n.In))
		inSchema := n.In.Schema()
		exprRefs(n.Pred, inSchema, out)
		for _, br := range []Rel{n.Then, n.Else} {
			if br == nil {
				continue
			}
			for ref := range FreeRefs(br) {
				if !ref.IsParam && HasRef(inSchema, ref.Qual, ref.Name) {
					continue
				}
				out.Add(ref)
			}
		}
		return out

	default:
		// Standard operators: a node's own expressions see the union of its
		// children's schemas; free refs of children propagate.
		var schema []Column
		for _, c := range r.Children() {
			out.AddAll(FreeRefs(c))
			schema = append(schema, c.Schema()...)
		}
		for _, e := range NodeExprs(r) {
			exprRefs(e, schema, out)
		}
		return out
	}
}

// UsesRefsOf reports whether rel has free references satisfied by the given
// schema (i.e. rel is correlated with a relation having that schema).
func UsesRefsOf(rel Rel, schema []Column) bool {
	for ref := range FreeRefs(rel) {
		if ref.IsParam {
			continue
		}
		if HasRef(schema, ref.Qual, ref.Name) {
			return true
		}
	}
	return false
}

// ExprUsesRefsOf reports whether the expression references columns of the
// given schema (treating all column refs as free) or any parameter.
func ExprUsesRefsOf(e Expr, schema []Column) bool {
	if e == nil {
		return false
	}
	set := RefSet{}
	exprRefs(e, nil, set)
	for ref := range set {
		if !ref.IsParam && HasRef(schema, ref.Qual, ref.Name) {
			return true
		}
	}
	return false
}

// HasFreeParams reports whether the relation still references unbound
// parameters.
func HasFreeParams(r Rel) bool {
	for ref := range FreeRefs(r) {
		if ref.IsParam {
			return true
		}
	}
	return false
}

// SubstituteParams replaces parameter references by the mapped expressions
// throughout the tree, including inside subqueries (rule R9's mechanics).
func SubstituteParams(r Rel, m map[string]Expr) Rel {
	if len(m) == 0 {
		return r
	}
	return MapExprsDeep(r, func(e Expr) Expr {
		if p, ok := e.(*ParamRef); ok {
			if repl, ok := m[p.Name]; ok {
				return repl
			}
		}
		return e
	})
}

// SubstituteParamsExpr replaces parameter references inside a scalar
// expression (including nested subqueries).
func SubstituteParamsExpr(e Expr, m map[string]Expr) Expr {
	if len(m) == 0 || e == nil {
		return e
	}
	return MapExpr(e, func(x Expr) Expr {
		if p, ok := x.(*ParamRef); ok {
			if repl, ok := m[p.Name]; ok {
				return repl
			}
		}
		return x
	}, func(sub Rel) Rel {
		return SubstituteParams(sub, m)
	})
}

// RenameColumns renames columns throughout a tree: every ColRef and
// projection output whose unqualified name appears in the mapping is
// renamed. Used by the merger to alpha-rename UDF-local variables that
// collide with outer query columns. Only unqualified ("" Qual) names are
// touched, since UDF variables are unqualified by construction.
func RenameColumns(r Rel, m map[string]string) Rel {
	if len(m) == 0 {
		return r
	}
	mapped := MapExprsDeep(r, func(e Expr) Expr {
		if c, ok := e.(*ColRef); ok && c.Qual == "" {
			if to, ok := m[c.Name]; ok {
				return &ColRef{Name: to}
			}
		}
		return e
	})
	// Also rename projection aliases, group-by agg aliases, merge targets.
	return Transform(mapped, func(n Rel) Rel {
		switch x := n.(type) {
		case *Project:
			cols := make([]ProjCol, len(x.Cols))
			changed := false
			for i, c := range x.Cols {
				cols[i] = c
				if c.Qual == "" {
					if to, ok := m[c.As]; ok {
						cols[i].As = to
						changed = true
					}
				}
			}
			if changed {
				return &Project{Cols: cols, Dedup: x.Dedup, In: x.In}
			}
		case *GroupBy:
			aggs := make([]AggCall, len(x.Aggs))
			changed := false
			for i, a := range x.Aggs {
				aggs[i] = a
				if to, ok := m[a.As]; ok {
					aggs[i].As = to
					changed = true
				}
			}
			if changed {
				return &GroupBy{Keys: x.Keys, Aggs: aggs, In: x.In}
			}
		case *ApplyMerge:
			assigns := make([]MergeAssign, len(x.Assigns))
			changed := false
			for i, a := range x.Assigns {
				assigns[i] = a
				if to, ok := m[a.Target]; ok {
					assigns[i].Target = to
					changed = true
				}
				if to, ok := m[a.Source]; ok {
					assigns[i].Source = to
					changed = true
				}
			}
			if changed {
				return &ApplyMerge{Assigns: assigns, L: x.L, R: x.R}
			}
		}
		return n
	})
}
