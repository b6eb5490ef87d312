package core

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
)

// This file implements the equivalence rules of Table I (K1–K6, known rules
// from Galindo-Legaria & Joshi) and Table II (R1–R9, the paper's new rules),
// plus the scalar-aggregate decorrelation the paper invokes as "the
// transformations proposed in [5]".

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

func isSingle(r algebra.Rel) bool {
	_, ok := r.(*algebra.Single)
	return ok
}

// projectOverSingle matches Π_A(S): a non-deduplicating projection whose
// input is the Single relation.
func projectOverSingle(r algebra.Rel) (*algebra.Project, bool) {
	p, ok := r.(*algebra.Project)
	if !ok || p.Dedup {
		return nil, false
	}
	if !isSingle(p.In) {
		return nil, false
	}
	return p, true
}

// substituteCols replaces column references by expressions throughout an
// expression tree (including nested subqueries).
func substituteCols(e algebra.Expr, m map[algebra.Ref]algebra.Expr) algebra.Expr {
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

// namesCollide reports whether any projected output name would be ambiguous
// against the given schema.
func namesCollide(cols []algebra.ProjCol, schema []algebra.Column) bool {
	for _, c := range cols {
		if algebra.HasRef(schema, c.Qual, c.As) {
			return true
		}
	}
	return false
}

// passthroughCols builds identity projection columns for a schema.
func passthroughCols(schema []algebra.Column) []algebra.ProjCol {
	return algebra.IdentityProjCols(schema)
}

// maxOneRow reports whether a relational expression is statically known to
// produce at most one row (scalar aggregation, Single, LIMIT 1, or
// row-preserving operators above those).
func maxOneRow(r algebra.Rel) bool {
	switch n := r.(type) {
	case *algebra.Single:
		return true
	case *algebra.GroupBy:
		return len(n.Keys) == 0
	case *algebra.Limit:
		return n.N <= 1 || maxOneRow(n.In)
	case *algebra.Project:
		return maxOneRow(n.In)
	case *algebra.Select:
		return maxOneRow(n.In)
	case *algebra.Sort:
		return maxOneRow(n.In)
	case *algebra.ApplyMerge:
		return maxOneRow(n.L)
	case *algebra.CondApplyMerge:
		return maxOneRow(n.In)
	case *algebra.Apply:
		if n.Kind == algebra.CrossJoin || n.Kind == algebra.InnerJoin || n.Kind == algebra.LeftOuterJoin {
			return maxOneRow(n.L) && maxOneRow(n.R)
		}
		return maxOneRow(n.L)
	case *algebra.Join:
		if n.Kind == algebra.SemiJoin || n.Kind == algebra.AntiJoin {
			return maxOneRow(n.L)
		}
		return false
	default:
		return false
	}
}

// exactlyOneRow reports whether a relational expression produces exactly
// one row for every parameter binding (scalar aggregation and
// row-preserving operators above it).
func exactlyOneRow(r algebra.Rel) bool {
	switch n := r.(type) {
	case *algebra.Single:
		return true
	case *algebra.GroupBy:
		return len(n.Keys) == 0
	case *algebra.Project:
		return exactlyOneRow(n.In)
	case *algebra.Sort:
		return exactlyOneRow(n.In)
	case *algebra.ApplyMerge:
		return exactlyOneRow(n.L)
	case *algebra.CondApplyMerge:
		return exactlyOneRow(n.In)
	case *algebra.Apply:
		if n.Kind == algebra.CrossJoin || n.Kind == algebra.InnerJoin || n.Kind == algebra.LeftOuterJoin {
			return exactlyOneRow(n.L) && exactlyOneRow(n.R)
		}
		return false
	default:
		return false
	}
}

// ruleLeftOuterToCross turns a left-outer Apply into a cross Apply when the
// inner expression always produces exactly one row, so the null-extension
// case cannot arise. This normalizes the applies introduced for scalar
// subqueries into the shape rules K3/K4 and the aggregate decorrelation
// match on.
func ruleLeftOuterToCross(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || a.Kind != algebra.LeftOuterJoin {
		return nil, false
	}
	if !exactlyOneRow(a.R) {
		return nil, false
	}
	return &algebra.Apply{Kind: algebra.CrossJoin, Binds: a.Binds, L: a.L, R: a.R}, true
}

// ---------------------------------------------------------------------------
// R9: bind removal
// ---------------------------------------------------------------------------

// ruleR9BindRemoval implements rule R9: an Apply with bind extension is
// replaced by substituting the actual arguments for the formal parameters in
// the inner expression.
func ruleR9BindRemoval(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) == 0 {
		return nil, false
	}
	m := make(map[string]algebra.Expr, len(a.Binds))
	for _, b := range a.Binds {
		m[b.Param] = b.Arg
	}
	return &algebra.Apply{Kind: a.Kind, L: a.L, R: algebra.SubstituteParams(a.R, m)}, true
}

// ---------------------------------------------------------------------------
// R1: Apply-cross with Single child
// ---------------------------------------------------------------------------

// ruleR1ApplySingle implements rule R1: r A× S = S A× r = r.
func ruleR1ApplySingle(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin {
		return nil, false
	}
	if isSingle(a.L) {
		return a.R, true
	}
	if isSingle(a.R) {
		return a.L, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// R2: Apply-merge with projection over Single
// ---------------------------------------------------------------------------

// mergeTargets resolves the assignment list of an ApplyMerge: explicit
// assignments, or (by default) all attributes common to both sides.
// The result maps left-column name -> source expression.
func mergeTargets(am *algebra.ApplyMerge, rCols []algebra.ProjCol) (map[string]algebra.Expr, bool) {
	bySource := map[string]algebra.Expr{}
	for _, c := range rCols {
		bySource[c.As] = c.E
	}
	out := map[string]algebra.Expr{}
	if len(am.Assigns) > 0 {
		for _, as := range am.Assigns {
			src, ok := bySource[as.Source]
			if !ok {
				return nil, false
			}
			out[as.Target] = src
		}
		return out, true
	}
	for _, c := range am.L.Schema() {
		if e, ok := bySource[c.Name]; ok {
			out[c.Name] = e
		}
	}
	return out, true
}

// ruleR2MergeProjectSingle implements rule R2:
// r AM (Π_A(S)) = Πd_{B,A}(r).
func ruleR2MergeProjectSingle(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	am, ok := n.(*algebra.ApplyMerge)
	if !ok {
		return nil, false
	}
	proj, ok := projectOverSingle(am.R)
	if !ok {
		return nil, false
	}
	targets, ok := mergeTargets(am, proj.Cols)
	if !ok {
		return nil, false
	}
	lSchema := am.L.Schema()
	cols := make([]algebra.ProjCol, len(lSchema))
	for i, c := range lSchema {
		if e, assigned := targets[c.Name]; assigned && c.Qual == "" {
			cols[i] = algebra.ProjCol{E: e, As: c.Name}
			continue
		}
		cols[i] = algebra.ProjCol{E: &algebra.ColRef{Qual: c.Qual, Name: c.Name}, Qual: c.Qual, As: c.Name}
	}
	return &algebra.Project{Cols: cols, In: am.L}, true
}

// ---------------------------------------------------------------------------
// R4: general Apply-merge removal
// ---------------------------------------------------------------------------

// ruleR4MergeRemoval implements rule R4: r AM(L) e(r) = Π_X(r A× e(r)),
// renaming the inner outputs first so the projection cannot capture
// same-named outer columns.
//
// Deviation from the paper's literal statement: the Apply is left-outer
// rather than cross, because our AM semantics assign NULL when e(r) is
// empty (a SELECT INTO over a missing row sets its targets to ⊥, as the
// interpreter does). When e(r) is
// provably exactly one row the left-outer Apply immediately normalizes
// back to a cross Apply.
func ruleR4MergeRemoval(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	am, ok := n.(*algebra.ApplyMerge)
	if !ok {
		return nil, false
	}
	rSchema := am.R.Schema()
	// Rename every inner output to a fresh name.
	renCols := make([]algebra.ProjCol, len(rSchema))
	fresh := map[string]string{} // original inner name -> fresh name
	for i, c := range rSchema {
		f := rw.FreshName("m")
		fresh[c.Name] = f
		renCols[i] = algebra.ProjCol{E: &algebra.ColRef{Qual: c.Qual, Name: c.Name}, As: f}
	}
	renamed := &algebra.Project{Cols: renCols, In: am.R}

	// Determine target mapping: left column -> fresh inner column name.
	assignOf := map[string]string{}
	if len(am.Assigns) > 0 {
		for _, as := range am.Assigns {
			f, ok := fresh[as.Source]
			if !ok {
				return nil, false
			}
			assignOf[as.Target] = f
		}
	} else {
		lSchema := am.L.Schema()
		for _, c := range lSchema {
			if f, ok := fresh[c.Name]; ok {
				assignOf[c.Name] = f
			}
		}
	}
	lSchema := am.L.Schema()
	cols := make([]algebra.ProjCol, len(lSchema))
	for i, c := range lSchema {
		if f, assigned := assignOf[c.Name]; assigned && c.Qual == "" {
			cols[i] = algebra.ProjCol{E: &algebra.ColRef{Name: f}, As: c.Name}
			continue
		}
		cols[i] = algebra.ProjCol{E: &algebra.ColRef{Qual: c.Qual, Name: c.Name}, Qual: c.Qual, As: c.Name}
	}
	apply := &algebra.Apply{Kind: algebra.LeftOuterJoin, L: am.L, R: renamed}
	return &algebra.Project{Cols: cols, In: apply}, true
}

// ---------------------------------------------------------------------------
// R6: Conditional Apply-Merge to Apply-Merge over a union
// ---------------------------------------------------------------------------

// branchProject normalizes an AMC branch to a projection producing exactly
// the target columns under fresh output names (missing targets become
// pass-through references to the outer tuple, i.e. "no assignment"). Fresh
// names prevent the selection placed above the branch from capturing the
// branch's new values: the paper's σ_p(r)(et(r)) evaluates p against r.
func branchProject(br algebra.Rel, targets []algebra.Column, fresh []string) algebra.Rel {
	produced := map[string]algebra.Expr{}
	if br != nil {
		for _, c := range br.Schema() {
			produced[c.Name] = &algebra.ColRef{Qual: c.Qual, Name: c.Name}
		}
	}
	cols := make([]algebra.ProjCol, len(targets))
	for i, t := range targets {
		if e, ok := produced[t.Name]; ok {
			cols[i] = algebra.ProjCol{E: e, As: fresh[i]}
		} else {
			// Keep the existing value: reference the outer column (free).
			cols[i] = algebra.ProjCol{E: &algebra.ColRef{Qual: t.Qual, Name: t.Name}, As: fresh[i]}
		}
	}
	var in algebra.Rel = &algebra.Single{}
	if br != nil {
		in = br
	}
	return &algebra.Project{Cols: cols, In: in}
}

// ruleCondMergeEager generalizes R8 to branches that are not simple
// projections over Single (e.g. branches containing embedded queries):
// both branches are pure single-tuple expressions, so they can be evaluated
// unconditionally per outer row (cross Applies) and merged per column with
// a conditional expression:
//
//	r AMC(p, et, ef) = Π_{r.*, (p ? et.c : ef.c) ...}((r A× et') A× ef')
//
// The branch outputs are alpha-renamed first, so the predicate (evaluated
// against r's pre-assignment values) cannot capture them.
func ruleCondMergeEager(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	amc, ok := n.(*algebra.CondApplyMerge)
	if !ok {
		return nil, false
	}
	if !exactlyOneRow(amc.Then) {
		return nil, false
	}
	if amc.Else != nil && !exactlyOneRow(amc.Else) {
		return nil, false
	}
	inSchema := amc.In.Schema()

	// Alpha-rename a branch's outputs; returns the renamed relation and a
	// map from assigned In-column name to the fresh output name.
	renameBranch := func(br algebra.Rel) (algebra.Rel, map[string]string) {
		if br == nil {
			return nil, nil
		}
		outs := br.Schema()
		cols := make([]algebra.ProjCol, 0, len(outs))
		m := map[string]string{}
		for _, c := range outs {
			if _, isTarget := algebra.ResolveRef(inSchema, "", c.Name); !isTarget {
				continue // branch-local temporary; drop
			}
			f := rw.FreshName(c.Name)
			m[c.Name] = f
			cols = append(cols, algebra.ProjCol{
				E: &algebra.ColRef{Qual: c.Qual, Name: c.Name}, As: f,
			})
		}
		if len(cols) == 0 {
			return nil, nil
		}
		return &algebra.Project{Cols: cols, In: br}, m
	}

	thenRel, thenM := renameBranch(amc.Then)
	elseRel, elseM := renameBranch(amc.Else)
	if thenRel == nil && elseRel == nil {
		return amc.In, true // conditional with no visible effect
	}
	var rel algebra.Rel = amc.In
	if thenRel != nil {
		rel = &algebra.Apply{Kind: algebra.CrossJoin, L: rel, R: thenRel}
	}
	if elseRel != nil {
		rel = &algebra.Apply{Kind: algebra.CrossJoin, L: rel, R: elseRel}
	}
	cols := make([]algebra.ProjCol, len(inSchema))
	for i, c := range inSchema {
		self := &algebra.ColRef{Qual: c.Qual, Name: c.Name}
		tf, tok := thenM[c.Name]
		ef, eok := elseM[c.Name]
		if c.Qual != "" || (!tok && !eok) {
			cols[i] = algebra.ProjCol{E: self, Qual: c.Qual, As: c.Name}
			continue
		}
		var te algebra.Expr = self
		if tok {
			te = &algebra.ColRef{Name: tf}
		}
		var ee algebra.Expr = self
		if eok {
			ee = &algebra.ColRef{Name: ef}
		}
		cols[i] = algebra.ProjCol{
			E: &algebra.Case{
				Whens: []algebra.CaseWhen{{Cond: amc.Pred, Then: te}},
				Else:  ee,
			},
			As: c.Name,
		}
	}
	return &algebra.Project{Cols: cols, In: rel}, true
}

// ruleR6CondMergeUnion implements rule R6:
// r AMC(p, et, ef) = r AM (σ_p(et) ∪ σ_¬p(ef)).
// It fires only when R8 (the direct scalar form) does not apply.
func ruleR6CondMergeUnion(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	amc, ok := n.(*algebra.CondApplyMerge)
	if !ok {
		return nil, false
	}
	inSchema := amc.In.Schema()
	// Targets: columns of In assigned by either branch.
	var targets []algebra.Column
	seen := map[string]bool{}
	for _, br := range []algebra.Rel{amc.Then, amc.Else} {
		if br == nil {
			continue
		}
		for _, c := range br.Schema() {
			if seen[c.Name] {
				continue
			}
			if tc, ok := algebra.ResolveRef(inSchema, "", c.Name); ok {
				targets = append(targets, tc)
				seen[c.Name] = true
			}
		}
	}
	if len(targets) == 0 {
		return amc.In, true // no-op conditional
	}
	// Capture check: σ_p(et) evaluates p against the outer tuple, but in
	// our algebra the selection sees et's output first. If p references a
	// name either branch binds internally, the placement would capture the
	// new value; bail out (R8 handles the common scalar shapes).
	bound := map[string]bool{}
	for _, br := range []algebra.Rel{amc.Then, amc.Else} {
		if br == nil {
			continue
		}
		algebra.Visit(br, func(n algebra.Rel) {
			switch x := n.(type) {
			case *algebra.Project:
				for _, c := range x.Cols {
					if c.Qual == "" {
						bound[c.As] = true
					}
				}
			case *algebra.GroupBy:
				for _, a := range x.Aggs {
					bound[a.As] = true
				}
			}
		})
	}
	captured := false
	algebra.VisitExpr(amc.Pred, func(x algebra.Expr) {
		if c, ok := x.(*algebra.ColRef); ok && c.Qual == "" && bound[c.Name] {
			captured = true
		}
	}, nil)
	if captured {
		return nil, false
	}
	fresh := make([]string, len(targets))
	assigns := make([]algebra.MergeAssign, len(targets))
	for i, t := range targets {
		fresh[i] = rw.FreshName(t.Name)
		assigns[i] = algebra.MergeAssign{Target: t.Name, Source: fresh[i]}
	}
	union := &algebra.UnionAll{
		L: &algebra.Select{Pred: amc.Pred, In: branchProject(amc.Then, targets, fresh)},
		R: &algebra.Select{Pred: &algebra.Not{E: amc.Pred}, In: branchProject(amc.Else, targets, fresh)},
	}
	return &algebra.ApplyMerge{Assigns: assigns, L: amc.In, R: union}, true
}

// ---------------------------------------------------------------------------
// R7: union with exclusive predicates to conditional projection
// ---------------------------------------------------------------------------

// complementary reports whether p2 is syntactically the negation of p1.
func complementary(p1, p2 algebra.Expr) bool {
	if n, ok := p2.(*algebra.Not); ok && algebra.EqualExpr(n.E, p1) {
		return true
	}
	if n, ok := p1.(*algebra.Not); ok && algebra.EqualExpr(n.E, p2) {
		return true
	}
	if c1, ok := p1.(*algebra.Cmp); ok {
		if c2, ok := p2.(*algebra.Cmp); ok {
			if algebra.EqualExpr(c1.L, c2.L) && algebra.EqualExpr(c1.R, c2.R) && c2.Op == c1.Op.Negate() {
				return true
			}
		}
	}
	return false
}

// sameRel is a conservative structural equality check on relational trees.
func sameRel(a, b algebra.Rel) bool {
	return algebra.Print(a) == algebra.Print(b)
}

// ruleR7UnionToCase implements rule R7:
// Π_{e1 as a}(σ_{p1}(r)) ∪ Π_{e2 as a}(σ_{p2}(r)) = Π_{(p1?e1:e2) as a}(r)
// when p1 ∧ p2 = false (here: p2 ≡ ¬p1), generalized to multiple columns.
func ruleR7UnionToCase(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	u, ok := n.(*algebra.UnionAll)
	if !ok {
		return nil, false
	}
	lp, ok := u.L.(*algebra.Project)
	if !ok || lp.Dedup {
		return nil, false
	}
	rp, ok := u.R.(*algebra.Project)
	if !ok || rp.Dedup {
		return nil, false
	}
	ls, ok := lp.In.(*algebra.Select)
	if !ok {
		return nil, false
	}
	rs, ok := rp.In.(*algebra.Select)
	if !ok {
		return nil, false
	}
	if !complementary(ls.Pred, rs.Pred) || !sameRel(ls.In, rs.In) {
		return nil, false
	}
	if len(lp.Cols) != len(rp.Cols) {
		return nil, false
	}
	cols := make([]algebra.ProjCol, len(lp.Cols))
	for i := range lp.Cols {
		if lp.Cols[i].As != rp.Cols[i].As {
			return nil, false
		}
		if algebra.EqualExpr(lp.Cols[i].E, rp.Cols[i].E) {
			cols[i] = lp.Cols[i]
			continue
		}
		cols[i] = algebra.ProjCol{
			E: &algebra.Case{
				Whens: []algebra.CaseWhen{{Cond: ls.Pred, Then: lp.Cols[i].E}},
				Else:  rp.Cols[i].E,
			},
			As: lp.Cols[i].As,
		}
	}
	return &algebra.Project{Cols: cols, In: ls.In}, true
}

// ---------------------------------------------------------------------------
// R8: Conditional Apply-Merge with scalar branches
// ---------------------------------------------------------------------------

// ruleR8CondMergeScalar implements rule R8:
// r AMC(p, et, ef) = Π_{r.*, (p?et:ef)}(r) when both branches are scalar
// valued (projections over Single).
func ruleR8CondMergeScalar(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	amc, ok := n.(*algebra.CondApplyMerge)
	if !ok {
		return nil, false
	}
	thenProj, ok := projectOverSingle(amc.Then)
	if !ok {
		return nil, false
	}
	var elseProj *algebra.Project
	if amc.Else != nil {
		elseProj, ok = projectOverSingle(amc.Else)
		if !ok {
			return nil, false
		}
	}
	thenBy := map[string]algebra.Expr{}
	for _, c := range thenProj.Cols {
		thenBy[c.As] = c.E
	}
	elseBy := map[string]algebra.Expr{}
	if elseProj != nil {
		for _, c := range elseProj.Cols {
			elseBy[c.As] = c.E
		}
	}
	inSchema := amc.In.Schema()
	cols := make([]algebra.ProjCol, len(inSchema))
	for i, c := range inSchema {
		self := &algebra.ColRef{Qual: c.Qual, Name: c.Name}
		te, tok := thenBy[c.Name]
		ee, eok := elseBy[c.Name]
		if c.Qual != "" || (!tok && !eok) {
			cols[i] = algebra.ProjCol{E: self, Qual: c.Qual, As: c.Name}
			continue
		}
		if !tok {
			te = self
		}
		if !eok {
			ee = self
		}
		cols[i] = algebra.ProjCol{
			E: &algebra.Case{
				Whens: []algebra.CaseWhen{{Cond: amc.Pred, Then: te}},
				Else:  ee,
			},
			As: c.Name,
		}
	}
	return &algebra.Project{Cols: cols, In: amc.In}, true
}

// ---------------------------------------------------------------------------
// R5: move a projection past an Apply
// ---------------------------------------------------------------------------

// ruleR5ProjectPastApply implements rule R5:
// (Πd_A(r)) A⊗ e = Πd_{A, e.*}(r A⊗ e), provided e uses none of the
// computed attributes of the projection. References to pass-through columns
// are rewritten to the underlying columns.
func ruleR5ProjectPastApply(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	lp, ok := a.L.(*algebra.Project)
	if !ok || lp.Dedup {
		return nil, false
	}
	// Map projection outputs to their defining expressions.
	outExpr := map[algebra.Ref]algebra.Expr{}
	for _, c := range lp.Cols {
		outExpr[algebra.Ref{Qual: c.Qual, Name: c.As}] = c.E
	}
	// Every free ref of e that resolves against the projection must be a
	// pass-through column; build the rewrite map.
	lSchema := lp.Schema()
	subst := map[algebra.Ref]algebra.Expr{}
	for ref := range algebra.FreeRefs(a.R) {
		if ref.IsParam {
			continue
		}
		c, ok := algebra.ResolveRef(lSchema, ref.Qual, ref.Name)
		if !ok {
			continue
		}
		def := outExpr[algebra.Ref{Qual: c.Qual, Name: c.Name}]
		cr, isCol := def.(*algebra.ColRef)
		if !isCol {
			return nil, false // e uses a computed attribute
		}
		subst[ref] = cr
	}
	r := a.R
	if len(subst) > 0 {
		r = algebra.MapExprsDeep(r, func(e algebra.Expr) algebra.Expr {
			if c, ok := e.(*algebra.ColRef); ok {
				if repl, ok := subst[algebra.Ref{Qual: c.Qual, Name: c.Name}]; ok {
					return repl
				}
			}
			return e
		})
	}
	inner := &algebra.Apply{Kind: a.Kind, L: lp.In, R: r}
	switch a.Kind {
	case algebra.SemiJoin, algebra.AntiJoin:
		return &algebra.Project{Cols: lp.Cols, In: inner}, true
	default:
		rSchema := a.R.Schema()
		if namesCollide(lp.Cols, rSchema) {
			return nil, false
		}
		cols := append(append([]algebra.ProjCol{}, lp.Cols...), passthroughCols(rSchema)...)
		return &algebra.Project{Cols: cols, In: inner}, true
	}
}

// ---------------------------------------------------------------------------
// K4: pull a projection above an Apply-cross
// ---------------------------------------------------------------------------

// ruleK4ProjectPullup implements rule K4:
// r A× (Π_v(e)) = Π_{v ∪ schema(r)}(r A× e).
// For a left-outer Apply the pull-up is valid only when every projected
// expression is a plain column reference: on unmatched rows a computed
// expression (e.g. a constant) would otherwise replace the NULL extension.
func ruleK4ProjectPullup(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	outer := a.Kind == algebra.LeftOuterJoin
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin && !outer {
		return nil, false
	}
	rp, ok := a.R.(*algebra.Project)
	if !ok || rp.Dedup {
		return nil, false
	}
	if outer {
		for _, c := range rp.Cols {
			if _, isRef := c.E.(*algebra.ColRef); !isRef {
				return nil, false
			}
		}
	}
	lSchema := a.L.Schema()
	if namesCollide(rp.Cols, lSchema) {
		return nil, false
	}
	cols := append(passthroughCols(lSchema), rp.Cols...)
	return &algebra.Project{
		Cols: cols,
		In:   &algebra.Apply{Kind: a.Kind, L: a.L, R: rp.In},
	}, true
}

// ruleSemiProjectDrop removes projections and sorts under a semijoin or
// antijoin Apply: only emptiness of the inner expression matters.
func ruleSemiProjectDrop(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	if a.Kind != algebra.SemiJoin && a.Kind != algebra.AntiJoin {
		return nil, false
	}
	switch r := a.R.(type) {
	case *algebra.Project:
		// Emptiness-preserving regardless of Dedup.
		return &algebra.Apply{Kind: a.Kind, L: a.L, R: r.In}, true
	case *algebra.Sort:
		return &algebra.Apply{Kind: a.Kind, L: a.L, R: r.In}, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// K3: pull a selection above an Apply-cross
// ---------------------------------------------------------------------------

// ruleK3SelectPullup implements rule K3: r A×(σ_p(e)) = σ_p(r A× e).
func ruleK3SelectPullup(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin {
		return nil, false
	}
	rs, ok := a.R.(*algebra.Select)
	if !ok {
		return nil, false
	}
	return &algebra.Select{
		Pred: rs.Pred,
		In:   &algebra.Apply{Kind: a.Kind, L: a.L, R: rs.In},
	}, true
}

// ---------------------------------------------------------------------------
// K1/K2: Apply to join when the inner expression is uncorrelated
// ---------------------------------------------------------------------------

// closed reports whether a relational expression has no free references at
// all: neither correlation columns (of this or any enclosing scope) nor
// unbound parameters. Converting an Apply over a non-closed inner side to a
// join would bury correlation under the join, where the decorrelation rules
// can no longer reach it.
func closed(r algebra.Rel) bool { return len(algebra.FreeRefs(r)) == 0 }

// ruleK1K2ApplyToJoin implements rules K1 and K2:
// r A⊗ e        = r ⊗_true e  when e uses no parameters from r (K1)
// r A⊗ (σ_p(e)) = r ⊗_p e     when e uses no parameters from r (K2).
func ruleK1K2ApplyToJoin(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	// K2: the selection predicate may be correlated with r — but only with
	// r. A predicate referencing an enclosing scope would make the join
	// condition itself correlated, hiding it from the rules; wait for
	// apply-assoc to widen the outer side first.
	if rs, ok := a.R.(*algebra.Select); ok && closed(rs.In) {
		joined := append(append([]algebra.Column{}, a.L.Schema()...), rs.In.Schema()...)
		if !exprCorrelatedOutside(rs.Pred, joined) {
			kind := a.Kind
			if kind == algebra.CrossJoin {
				kind = algebra.InnerJoin
			}
			return &algebra.Join{Kind: kind, Cond: rs.Pred, L: a.L, R: rs.In}, true
		}
	}
	// K1.
	if !closed(a.R) {
		return nil, false
	}
	return &algebra.Join{Kind: a.Kind, L: a.L, R: a.R}, true
}

// ruleApplyJoinPushdown pushes a cross Apply into the left branch of an
// inner join it is applied over, when the join's right branch is closed:
//
//	r A× (s ⊗ t) = (r A× s) ⊗ t    (t closed, ⊗ any join type)
//
// Per outer row both sides join s(r) with the same t; concatenating with r
// before or after the join is equivalent. This surfaces applies that an
// earlier (legal) K2 conversion buried under a join.
func ruleApplyJoinPushdown(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin {
		return nil, false
	}
	j, ok := a.R.(*algebra.Join)
	if !ok || !closed(j.R) {
		return nil, false
	}
	// Only rewrite when something correlated actually sits in the left
	// branch; otherwise K1 handles the whole thing.
	if closed(j.L) && (j.Cond == nil || !exprCorrelatedOutside(j.Cond, a.R.Schema())) {
		return nil, false
	}
	return &algebra.Join{
		Kind: j.Kind,
		Cond: j.Cond,
		L:    &algebra.Apply{Kind: algebra.CrossJoin, L: a.L, R: j.L},
		R:    j.R,
	}, true
}

// ruleApplyUnionDistribute distributes a cross Apply over a union:
// r A× (s ∪ t) = (r A× s) ∪ (r A× t).
// This is how conditional embedded queries (R6's union form) decorrelate:
// each branch becomes its own Apply, which the aggregate rules then remove.
func ruleApplyUnionDistribute(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin {
		return nil, false
	}
	u, ok := a.R.(*algebra.UnionAll)
	if !ok {
		return nil, false
	}
	return &algebra.UnionAll{
		L: &algebra.Apply{Kind: a.Kind, L: a.L, R: u.L},
		R: &algebra.Apply{Kind: a.Kind, L: a.L, R: u.R},
	}, true
}

// ruleApplyAssoc reassociates nested applies whose outer is a cross:
// r A× (s A⊗ t) = (r A× s) A⊗ t for any join type ⊗.
// Both sides evaluate t once per combined (r, s) tuple and combine with ⊗
// semantics per pair. The left-deep form exposes each correlated inner
// expression directly under an Apply whose outer side carries the full
// outer schema, which is what the decorrelation rules match on.
func ruleApplyAssoc(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin {
		return nil, false
	}
	inner, ok := a.R.(*algebra.Apply)
	if !ok || len(inner.Binds) > 0 {
		return nil, false
	}
	return &algebra.Apply{
		Kind: inner.Kind,
		L:    &algebra.Apply{Kind: algebra.CrossJoin, L: a.L, R: inner.L},
		R:    inner.R,
	}, true
}

// ---------------------------------------------------------------------------
// GL scalar-aggregate decorrelation
// ---------------------------------------------------------------------------

// stripCorrEqualities removes correlated equality conjuncts (outer-expr =
// inner-col) from selections inside rel. It returns the stripped tree, the
// (outer expr, inner col) pairs, and ok=false when an extracted inner column
// is not visible in rel's output schema.
// shallowTransform rewrites the relational tree bottom-up without
// descending into scalar subqueries (unlike algebra.Transform): predicates
// inside subqueries belong to their own scope and must not be stripped.
func shallowTransform(r algebra.Rel, f func(algebra.Rel) algebra.Rel) algebra.Rel {
	ch := r.Children()
	if len(ch) > 0 {
		nch := make([]algebra.Rel, len(ch))
		changed := false
		for i, c := range ch {
			nch[i] = shallowTransform(c, f)
			if nch[i] != c {
				changed = true
			}
		}
		if changed {
			r = r.WithChildren(nch)
		}
	}
	return f(r)
}

func stripCorrEqualities(rel algebra.Rel, outer []algebra.Column) (algebra.Rel, []equiCorr, bool) {
	var pairs []equiCorr
	out := shallowTransform(rel, func(n algebra.Rel) algebra.Rel {
		sel, is := n.(*algebra.Select)
		if !is {
			return n
		}
		childSchema := sel.In.Schema()
		var rest []algebra.Expr
		for _, c := range algebra.SplitConjuncts(sel.Pred) {
			oe, ic, matched := matchCorrEquality(c, outer, childSchema)
			if !matched {
				rest = append(rest, c)
				continue
			}
			pairs = append(pairs, equiCorr{outer: oe, inner: ic})
		}
		if pred := algebra.AndAll(rest); pred != nil {
			return &algebra.Select{Pred: pred, In: sel.In}
		}
		return sel.In
	})
	// Each extracted inner column becomes a grouping key, so it must
	// survive to the top of the subtree; widen intermediate projections to
	// pass it through (the cursor-loop trees of Section VII project only
	// the fetch variables).
	for _, pr := range pairs {
		widened, ok := widenForCol(out, pr.inner)
		if !ok {
			return rel, nil, false
		}
		out = widened
	}
	return out, pairs, true
}

// widenForCol ensures the referenced column is visible in the subtree's
// output schema, extending pass-through projections as needed.
func widenForCol(rel algebra.Rel, ref *algebra.ColRef) (algebra.Rel, bool) {
	if algebra.HasRef(rel.Schema(), ref.Qual, ref.Name) {
		return rel, true
	}
	switch n := rel.(type) {
	case *algebra.Project:
		if n.Dedup {
			return nil, false // widening DISTINCT changes semantics
		}
		child, ok := widenForCol(n.In, ref)
		if !ok {
			return nil, false
		}
		cols := append(append([]algebra.ProjCol{}, n.Cols...), algebra.ProjCol{
			E:    &algebra.ColRef{Qual: ref.Qual, Name: ref.Name},
			Qual: ref.Qual,
			As:   ref.Name,
		})
		return &algebra.Project{Cols: cols, In: child}, true
	case *algebra.Select:
		child, ok := widenForCol(n.In, ref)
		if !ok {
			return nil, false
		}
		return &algebra.Select{Pred: n.Pred, In: child}, true
	case *algebra.Sort:
		child, ok := widenForCol(n.In, ref)
		if !ok {
			return nil, false
		}
		return &algebra.Sort{Keys: n.Keys, In: child}, true
	default:
		return nil, false
	}
}

// equiCorr is one correlated equality: outer expression = inner column.
type equiCorr struct {
	outer algebra.Expr
	inner *algebra.ColRef
}

// matchCorrEquality matches a conjunct of the form outerRef = innerCol
// (either orientation) where outerRef resolves in the outer schema but not
// the inner one, and innerCol resolves in the inner schema.
func matchCorrEquality(c algebra.Expr, outer, inner []algebra.Column) (algebra.Expr, *algebra.ColRef, bool) {
	cmp, ok := c.(*algebra.Cmp)
	if !ok || cmp.Op != sqltypes.CmpEQ {
		return nil, nil, false
	}
	try := func(a, b algebra.Expr) (algebra.Expr, *algebra.ColRef, bool) {
		ar, aok := a.(*algebra.ColRef)
		br, bok := b.(*algebra.ColRef)
		if !aok || !bok {
			return nil, nil, false
		}
		aOuter := algebra.HasRef(outer, ar.Qual, ar.Name) && !algebra.HasRef(inner, ar.Qual, ar.Name)
		bInner := algebra.HasRef(inner, br.Qual, br.Name)
		if aOuter && bInner {
			return ar, br, true
		}
		return nil, nil, false
	}
	if oe, ic, ok := try(cmp.L, cmp.R); ok {
		return oe, ic, true
	}
	return try(cmp.R, cmp.L)
}

// ruleScalarAggDecorrelate implements the decorrelation of a correlated
// scalar aggregate (the transformation the paper credits to [5]):
//
//	r A⊗ G_{F}(σ_{c = r.a}(e))  →  Π_{r.*, aggs}(r ⟕_{r.a = c} (c G_F (e)))
//
// for ⊗ ∈ {×, ⟕}. COUNT columns are wrapped in COALESCE(·, 0) to preserve
// the count-over-empty-group semantics across the outer join (the classic
// count bug).
func ruleScalarAggDecorrelate(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	a, ok := n.(*algebra.Apply)
	if !ok || len(a.Binds) > 0 {
		return nil, false
	}
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin && a.Kind != algebra.LeftOuterJoin {
		return nil, false
	}
	gb, ok := a.R.(*algebra.GroupBy)
	if !ok || len(gb.Keys) != 0 {
		return nil, false
	}
	lSchema := a.L.Schema()
	// Aggregate output names must not collide with outer columns (the
	// final projection references them unqualified).
	for _, ag := range gb.Aggs {
		if algebra.HasRef(lSchema, "", ag.As) {
			return nil, false
		}
	}
	inner, pairs, ok := stripCorrEqualities(gb.In, lSchema)
	if !ok || len(pairs) == 0 {
		return nil, false
	}
	// Within matching rows, each extracted equality makes the outer
	// reference equal to an inner column; substitute remaining occurrences
	// (e.g. getCost(pkey) in an aggregate argument becomes
	// getCost(lineitem.partkey)) so the grouped side is self-contained.
	equiv := map[algebra.Ref]algebra.Expr{}
	for _, pr := range pairs {
		if oc, isCol := pr.outer.(*algebra.ColRef); isCol {
			equiv[algebra.Ref{Qual: oc.Qual, Name: oc.Name}] = pr.inner
		}
	}
	substCol := func(e algebra.Expr) algebra.Expr {
		if c, isCol := e.(*algebra.ColRef); isCol {
			if repl, hit := equiv[algebra.Ref{Qual: c.Qual, Name: c.Name}]; hit {
				return repl
			}
		}
		return e
	}
	inner = algebra.MapExprsDeep(inner, substCol)
	aggs := make([]algebra.AggCall, len(gb.Aggs))
	for i, ag := range gb.Aggs {
		args := make([]algebra.Expr, len(ag.Args))
		for j, arg := range ag.Args {
			args[j] = substituteCols(arg, equiv)
		}
		aggs[i] = algebra.AggCall{Func: ag.Func, Args: args, Distinct: ag.Distinct, As: ag.As}
	}
	// Any residual correlation (non-equality, non-substitutable) blocks
	// the rewrite.
	if algebra.UsesRefsOf(inner, lSchema) {
		return nil, false
	}
	for _, ag := range aggs {
		for _, arg := range ag.Args {
			if algebra.ExprUsesRefsOf(arg, lSchema) {
				return nil, false
			}
		}
	}
	// Dedup key columns.
	var keys []*algebra.ColRef
	var conds []algebra.Expr
	seen := map[algebra.Ref]bool{}
	for _, pr := range pairs {
		ref := algebra.Ref{Qual: pr.inner.Qual, Name: pr.inner.Name}
		if !seen[ref] {
			seen[ref] = true
			keys = append(keys, pr.inner)
		}
		conds = append(conds, &algebra.Cmp{Op: sqltypes.CmpEQ, L: pr.outer, R: pr.inner})
	}
	grouped := &algebra.GroupBy{Keys: keys, Aggs: aggs, In: inner}
	join := &algebra.Join{Kind: algebra.LeftOuterJoin, Cond: algebra.AndAll(conds), L: a.L, R: grouped}
	// Restore the original apply schema: outer columns then aggregate
	// outputs (dropping the grouping keys).
	cols := passthroughCols(lSchema)
	for _, ag := range gb.Aggs {
		var e algebra.Expr = &algebra.ColRef{Name: ag.As}
		// Patch the empty-group semantics across the outer join: COUNT of
		// an empty group is 0, and an auxiliary aggregate of an empty
		// group is its initial state (the loop body never ran). Only the
		// NULL-extended row is empty: its group key is NULL, while a
		// matched group's result may itself be NULL (s + NULL).
		if ag.Func == "count" {
			e = &algebra.Call{Name: "coalesce", Args: []algebra.Expr{e, &algebra.Const{Val: sqltypes.NewInt(0)}}}
		} else if init, ok := rw.auxInit(ag.Func); ok && !init.IsNull() {
			e = &algebra.Case{Whens: []algebra.CaseWhen{{
				Cond: &algebra.IsNull{E: &algebra.ColRef{Qual: keys[0].Qual, Name: keys[0].Name}},
				Then: &algebra.Const{Val: init},
			}}, Else: e}
		}
		cols = append(cols, algebra.ProjCol{E: e, As: ag.As})
	}
	return &algebra.Project{Cols: cols, In: join}, true
}
