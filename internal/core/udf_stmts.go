package core

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/ast"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/ddg"
)

// synthAggName derives a content-addressed name for a synthesized auxiliary
// aggregate. Deterministic naming makes aggregate registration idempotent:
// two concurrent rewrites of the same UDF produce the same name for the same
// definition, so the catalog's EnsureAggregate can de-duplicate them without
// any risk of one query's plan resolving another query's aggregate body
// (which sequence-numbered fresh names raced on).
func synthAggName(def *catalog.Aggregate) string {
	sum := sha256.Sum256([]byte(def.Fingerprint()))
	return fmt.Sprintf("aux_agg_%x", sum[:4])
}

// stmts processes a top-level statement list over relation e (initially the
// Single relation), returning the extended relation and the RETURN
// expression when the list ends in a RETURN.
func (b *UDFBuilder) stmts(e algebra.Rel, list []ast.Stmt, st *bodyState) (algebra.Rel, algebra.Expr, error) {
	return b.stmtsOver(e, nil, list, st, st)
}

// stmtsOver is the general walker: e is the relation being extended, outer
// (optional) is an enclosing row context whose columns are visible to
// expressions (used when algebraizing loop bodies over the cursor relation,
// where the prologue chain is the enclosing context).
func (b *UDFBuilder) stmtsOver(e algebra.Rel, outer algebra.Rel, list []ast.Stmt, st *bodyState, topSt *bodyState) (algebra.Rel, algebra.Expr, error) {
	for i := 0; i < len(list); i++ {
		s := list[i]
		sc := b.scopeFor(e, outer)
		switch n := s.(type) {
		case *ast.DeclareStmt:
			if algebra.HasRef(e.Schema(), "", n.Name) {
				return nil, nil, unsupportedf("redeclaration of %s", n.Name)
			}
			var init algebra.Expr = algebra.NullConst() // ⊥
			if n.Init != nil {
				var err error
				init, err = b.procExpr(n.Init, sc, st, e.Schema())
				if err != nil {
					return nil, nil, err
				}
			}
			e = b.addVar(e, n.Name, init)
			b.recordDef(st, n.Name, init)

		case *ast.AssignStmt:
			rhs, err := b.procExpr(n.Expr, sc, st, e.Schema())
			if err != nil {
				return nil, nil, err
			}
			if algebra.HasRef(e.Schema(), "", n.Name) {
				e = b.assignVar(e, n.Name, rhs)
			} else {
				// Assignment to a variable of an enclosing scope (inside a
				// branch) or an undeclared variable: introduce the column.
				e = b.addVar(e, n.Name, rhs)
			}
			b.recordDef(st, n.Name, rhs)

		case *ast.SelectIntoStmt:
			qrel, err := b.query(n.Select, b.mergedContext(e, outer), st)
			if err != nil {
				return nil, nil, err
			}
			outs := qrel.Schema()
			targets := n.Select.Into
			if len(outs) < len(targets) {
				return nil, nil, unsupportedf("SELECT INTO: %d columns for %d targets", len(outs), len(targets))
			}
			var assigns []algebra.MergeAssign
			for j, t := range targets {
				if !algebra.HasRef(e.Schema(), "", t) {
					e = b.addVar(e, t, algebra.NullConst())
				}
				assigns = append(assigns, algebra.MergeAssign{Target: t, Source: outs[j].Name})
				delete(st.constInit, t)
				delete(st.symdefs, t)
			}
			e = &algebra.ApplyMerge{Assigns: assigns, L: e, R: qrel}

		case *ast.IfStmt:
			pred, err := b.procExpr(n.Cond, sc, st, e.Schema())
			if err != nil {
				return nil, nil, err
			}
			// Every variable assigned in either branch must exist as a
			// column of the current chain so the Conditional Apply-Merge
			// has a target to merge into. Variables of an enclosing scope
			// are seeded with their current value (a free reference);
			// branch-local temporaries start as ⊥.
			_, ifWrites := ddg.ReadsWrites(n)
			for _, w := range ifWrites.Sorted() {
				if algebra.HasRef(e.Schema(), "", w) {
					continue
				}
				var init algebra.Expr = algebra.NullConst()
				if outer != nil {
					if c, ok := algebra.ResolveRef(outer.Schema(), "", w); ok {
						init = &algebra.ColRef{Qual: c.Qual, Name: c.Name}
					}
				}
				e = b.addVar(e, w, init)
			}
			thenRel, ret, err := b.stmtsOver(&algebra.Single{}, b.mergedContext(e, outer), n.Then, newBodyState(), topSt)
			if err != nil {
				return nil, nil, err
			}
			if ret != nil {
				return nil, nil, unsupportedf("RETURN inside a conditional branch")
			}
			var elseRel algebra.Rel
			if len(n.Else) > 0 {
				elseRel, ret, err = b.stmtsOver(&algebra.Single{}, b.mergedContext(e, outer), n.Else, newBodyState(), topSt)
				if err != nil {
					return nil, nil, err
				}
				if ret != nil {
					return nil, nil, unsupportedf("RETURN inside a conditional branch")
				}
			}
			// Invalidate statically-tracked values of assigned variables.
			_, writes := ddg.ReadsWrites(n)
			for w := range writes {
				delete(st.constInit, w)
				delete(st.symdefs, w)
			}
			e = &algebra.CondApplyMerge{Pred: pred, Then: thenRel, Else: elseRel, In: e}

		case *ast.DeclareCursorStmt:
			if st.cursor != nil {
				return nil, nil, unsupportedf("multiple cursors")
			}
			st.cursor = n

		case *ast.OpenStmt, *ast.CloseStmt, *ast.DeallocateStmt:
			// No algebraic contribution.

		case *ast.FetchStmt:
			if st.cursor == nil || n.Cursor != st.cursor.Name {
				return nil, nil, unsupportedf("FETCH from unknown cursor %q", n.Cursor)
			}
			if len(st.fetchVars) > 0 {
				return nil, nil, unsupportedf("FETCH outside the loop after the priming fetch")
			}
			st.fetchVars = n.Into

		case *ast.WhileStmt:
			ne, err := b.scalarLoop(e, n, st, list[i+1:])
			if err != nil {
				return nil, nil, err
			}
			e = ne

		case *ast.ReturnStmt:
			if n.Table != "" {
				return nil, nil, unsupportedf("table RETURN in scalar context")
			}
			if i != len(list)-1 {
				return nil, nil, unsupportedf("statements after RETURN")
			}
			retE, err := b.procExpr(n.Expr, sc, st, e.Schema())
			if err != nil {
				return nil, nil, err
			}
			return e, retE, nil

		case *ast.InsertStmt:
			return nil, nil, unsupportedf("INSERT outside a table-valued cursor loop")

		default:
			return nil, nil, unsupportedf("statement %T", s)
		}
	}
	return e, nil, nil
}

// scopeFor builds the name-resolution scope: local relation first, then the
// enclosing context.
func (b *UDFBuilder) scopeFor(e algebra.Rel, outer algebra.Rel) *scope {
	sc := &scope{schema: e.Schema()}
	if outer != nil {
		sc.outer = &scope{schema: outer.Schema()}
	}
	return sc
}

// mergedContext returns the row context visible to nested constructs: the
// current chain, with the enclosing context's columns appended.
func (b *UDFBuilder) mergedContext(e algebra.Rel, outer algebra.Rel) algebra.Rel {
	if outer == nil {
		return e
	}
	return &contextRel{cols: append(append([]algebra.Column{}, e.Schema()...), outer.Schema()...)}
}

// contextRel is a schema-only pseudo-relation used for name resolution of
// nested scopes; it never reaches planning.
type contextRel struct{ cols []algebra.Column }

// Schema implements algebra.Rel.
func (c *contextRel) Schema() []algebra.Column { return c.cols }

// Children implements algebra.Rel.
func (c *contextRel) Children() []algebra.Rel { return nil }

// WithChildren implements algebra.Rel.
func (c *contextRel) WithChildren(ch []algebra.Rel) algebra.Rel { return c }

// Describe implements algebra.Rel.
func (c *contextRel) Describe() string { return "Context" }

// addVar extends the chain with a new variable column via Apply-cross of a
// projection over Single (the paper's algebraization of declarations).
func (b *UDFBuilder) addVar(e algebra.Rel, name string, init algebra.Expr) algebra.Rel {
	proj := &algebra.Project{
		Cols: []algebra.ProjCol{{E: init, As: name}},
		In:   &algebra.Single{},
	}
	return &algebra.Apply{Kind: algebra.CrossJoin, L: e, R: proj}
}

// assignVar models an assignment to an existing variable with Apply-Merge
// over a projection on Single.
func (b *UDFBuilder) assignVar(e algebra.Rel, name string, rhs algebra.Expr) algebra.Rel {
	proj := &algebra.Project{
		Cols: []algebra.ProjCol{{E: rhs, As: name}},
		In:   &algebra.Single{},
	}
	return &algebra.ApplyMerge{
		Assigns: []algebra.MergeAssign{{Target: name, Source: name}},
		L:       e,
		R:       proj,
	}
}

// recordDef tracks statically-known values and inlinable definitions.
func (b *UDFBuilder) recordDef(st *bodyState, name string, e algebra.Expr) {
	delete(st.constInit, name)
	delete(st.symdefs, name)
	if c, ok := e.(*algebra.Const); ok {
		st.constInit[name] = c.Val
	}
	if inlinable(e) {
		st.symdefs[name] = e
	}
}

// inlinable reports whether an expression is a pure scalar computation that
// may be duplicated into loop bodies (no embedded relational parts).
func inlinable(e algebra.Expr) bool {
	pure := true
	algebra.VisitExpr(e, func(x algebra.Expr) {
		switch x.(type) {
		case *algebra.Subquery, *algebra.Exists:
			pure = false
		}
	}, func(algebra.Rel) { pure = false })
	return pure
}

// procExpr algebrizes a procedural-scope expression: bare names resolve to
// variable columns through the scope chain, :refs matching local columns
// become column references, and references to enclosing-context variables
// with inlinable definitions are substituted (so prologue values flow into
// loop bodies).
func (b *UDFBuilder) procExpr(expr ast.Expr, sc *scope, st *bodyState, localSchema []algebra.Column) (algebra.Expr, error) {
	e, err := b.Alg.expr(expr, sc)
	if err != nil {
		return nil, err
	}
	e = b.bindLocals(e, sc)
	// Inline enclosing-context definitions for refs outside the local
	// schema.
	subst := map[algebra.Ref]algebra.Expr{}
	algebra.VisitExpr(e, func(x algebra.Expr) {
		if c, ok := x.(*algebra.ColRef); ok && c.Qual == "" {
			if !algebra.HasRef(localSchema, "", c.Name) {
				if def, ok := st.symdefs[c.Name]; ok {
					subst[algebra.Ref{Name: c.Name}] = def
				}
			}
		}
	}, nil)
	if len(subst) > 0 {
		e = substituteCols(e, subst)
	}
	return e, nil
}

// bindLocals rewrites parameter references whose names match scope columns
// into column references (":totalbusiness" written where totalbusiness is a
// local variable).
func (b *UDFBuilder) bindLocals(e algebra.Expr, sc *scope) algebra.Expr {
	m := map[string]algebra.Expr{}
	algebra.VisitExpr(e, func(x algebra.Expr) {
		if p, ok := x.(*algebra.ParamRef); ok {
			if c, found := sc.resolve("", p.Name); found {
				m[p.Name] = &algebra.ColRef{Qual: c.Qual, Name: c.Name}
			}
		}
	}, nil)
	if len(m) == 0 {
		return e
	}
	return algebra.SubstituteParamsExpr(e, m)
}

// query algebrizes an embedded query against the given row context: bare
// names fall back to context columns, and :refs matching context columns
// become column references (correlation); remaining :refs stay parameters
// (the UDF's formal parameters).
func (b *UDFBuilder) query(sel *ast.SelectStmt, context algebra.Rel, st *bodyState) (algebra.Rel, error) {
	var sc *scope
	if context != nil {
		sc = &scope{schema: context.Schema()}
	}
	qrel, err := b.Alg.query(sel, sc)
	if err != nil {
		return nil, err
	}
	if context == nil {
		return qrel, nil
	}
	m := map[string]algebra.Expr{}
	for ref := range algebra.FreeRefs(qrel) {
		if !ref.IsParam {
			continue
		}
		if c, ok := algebra.ResolveRef(context.Schema(), "", ref.Name); ok {
			m[ref.Name] = &algebra.ColRef{Qual: c.Qual, Name: c.Name}
		}
	}
	return algebra.SubstituteParams(qrel, m), nil
}

// scalarLoop algebraizes a cursor loop in a scalar UDF (Section VII-A):
// the acyclic prefix becomes per-row computation over the cursor relation;
// the cyclic suffix becomes builtin aggregates where it is a builtin fold
// (udf_fold.go), and an auxiliary user-defined aggregate otherwise.
func (b *UDFBuilder) scalarLoop(e algebra.Rel, loop *ast.WhileStmt, st *bodyState, rest []ast.Stmt) (algebra.Rel, error) {
	body, err := b.loopBody(loop, st)
	if err != nil {
		return nil, err
	}
	g := ddg.Build(body)
	fc := g.FirstCyclic()
	if fc < 0 {
		return nil, unsupportedf("cursor loop without cyclic dependence has last-row semantics")
	}
	pre, suffix := body[:fc], body[fc:]

	// The aggregate body must be purely imperative.
	for _, s := range suffix {
		switch s.(type) {
		case *ast.DeclareStmt, *ast.AssignStmt, *ast.IfStmt:
		default:
			return nil, unsupportedf("statement %T in cyclic loop suffix", s)
		}
	}

	ein, err := b.perRow(e, pre, st)
	if err != nil {
		return nil, err
	}
	einSchema := ein.Schema()

	reads, writes := ddg.VarSet{}, ddg.VarSet{}
	for _, s := range suffix {
		r, w := ddg.ReadsWrites(s)
		reads.Union(r)
		writes.Union(w)
	}
	delete(writes, "@@fetch_status")

	// Condition 1 (Section VII): initial values of all written variables
	// must be statically determinable.
	var state []catalog.AggStateVar
	for _, w := range writes.Sorted() {
		init, ok := st.constInit[w]
		if !ok {
			if algebra.HasRef(einSchema, "", w) {
				continue // loop-local temporary recomputed per row
			}
			return nil, unsupportedf("initial value of %s is not statically determinable", w)
		}
		state = append(state, catalog.AggStateVar{Name: w, Init: init})
	}
	stateNames := ddg.VarSet{}
	for _, sv := range state {
		stateNames.Add(sv.Name)
	}

	// Parameters: per-row values read but not part of the aggregate state.
	var params []string
	for _, r := range reads.Sorted() {
		if stateNames[r] {
			continue
		}
		if algebra.HasRef(einSchema, "", r) {
			params = append(params, r)
			continue
		}
		return nil, unsupportedf("loop suffix reads %s, which is neither state nor a per-row value", r)
	}

	// Live state variables after the loop become the aggregate results.
	liveAfter := ddg.VarSet{}
	for _, s := range rest {
		r, _ := ddg.ReadsWrites(s)
		liveAfter.Union(r)
	}
	var results []string
	for _, sv := range state {
		if liveAfter[sv.Name] {
			results = append(results, sv.Name)
		}
	}
	if len(results) == 0 {
		return e, nil // dead loop: contributes nothing
	}
	sort.Strings(results)

	// A live result the suffix folds with a builtin step becomes builtin
	// aggregates; any other gets one auxiliary aggregate (a tuple-valued
	// aggregate split into per-component aggregates; they share the same
	// body).
	args := make([]algebra.Expr, len(params))
	for j, pn := range params {
		args[j] = &algebra.ColRef{Name: pn}
	}
	var calls []algebra.AggCall
	var assigns []algebra.MergeAssign
	var outs []algebra.ProjCol // each result over the aggregates
	project := false
	for _, res := range results {
		alias := b.rw.FreshName("agg")
		var out algebra.Expr = &algebra.ColRef{Name: alias}
		if f, ok := b.builtinFold(res, st.constInit[res], suffix, writes, ein, st); ok {
			aggs, val := b.foldAggs(f, alias)
			calls = append(calls, aggs...)
			if val != nil {
				out, project = val, true
			}
		} else {
			def := &catalog.Aggregate{
				State:  state,
				Params: params,
				Body:   suffix,
				Result: res,
			}
			def.Name = synthAggName(def)
			b.NewAggs = append(b.NewAggs, def)
			b.rw.RegisterAux(def)
			calls = append(calls, algebra.AggCall{Func: def.Name, Args: args, As: alias})
		}
		outs = append(outs, algebra.ProjCol{E: out, As: alias})
		assigns = append(assigns, algebra.MergeAssign{Target: res, Source: alias})
		delete(st.constInit, res)
		delete(st.symdefs, res)
	}
	var loopRel algebra.Rel = &algebra.GroupBy{Aggs: calls, In: ein}
	if project {
		loopRel = &algebra.Project{Cols: outs, In: loopRel}
	}
	return &algebra.ApplyMerge{Assigns: assigns, L: e, R: loopRel}, nil
}
