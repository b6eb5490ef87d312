package plan

import (
	"fmt"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/sqltypes"
)

// joinEstimate estimates inner-join cardinality: product scaled by the
// larger distinct count of the equi keys (the textbook formula).
func (p *Planner) joinEstimate(j *algebra.Join, l, r float64) float64 {
	equi, _ := splitEqui(j.Cond, j.L.Schema(), j.R.Schema())
	if len(equi) == 0 {
		if j.Cond == nil {
			return l * r
		}
		return l * r * 0.1
	}
	d := 10.0
	if st, _ := p.columnStats(j.L, equi[0].l); st != nil && st.DistinctCount > 0 {
		d = float64(st.DistinctCount)
	}
	if st, _ := p.columnStats(j.R, equi[0].r); st != nil && float64(st.DistinctCount) > d {
		d = float64(st.DistinctCount)
	}
	est := l * r / d
	if est < 1 {
		est = 1
	}
	return est
}

// equiPair is one equi-join conjunct col_L = col_R.
type equiPair struct {
	l, r *algebra.ColRef
}

// splitEqui separates a join condition into equi pairs (left col = right
// col) and a residual predicate.
func splitEqui(cond algebra.Expr, lSchema, rSchema []algebra.Column) ([]equiPair, algebra.Expr) {
	var pairs []equiPair
	var residual []algebra.Expr
	for _, c := range algebra.SplitConjuncts(cond) {
		cmp, ok := c.(*algebra.Cmp)
		if ok && cmp.Op == sqltypes.CmpEQ {
			lc, lok := cmp.L.(*algebra.ColRef)
			rc, rok := cmp.R.(*algebra.ColRef)
			if lok && rok {
				switch {
				case algebra.HasRef(lSchema, lc.Qual, lc.Name) && algebra.HasRef(rSchema, rc.Qual, rc.Name):
					pairs = append(pairs, equiPair{l: lc, r: rc})
					continue
				case algebra.HasRef(lSchema, rc.Qual, rc.Name) && algebra.HasRef(rSchema, lc.Qual, lc.Name):
					pairs = append(pairs, equiPair{l: rc, r: lc})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return pairs, algebra.AndAll(residual)
}

func (p *Planner) build(rel algebra.Rel) (exec.Node, error) {
	switch n := rel.(type) {
	case *algebra.Scan:
		return p.buildScan(n, nil)

	case *algebra.Single:
		return &exec.Single{}, nil

	case *algebra.Select:
		return p.buildSelect(n)

	case *algebra.Project:
		child, err := p.build(n.In)
		if err != nil {
			return nil, err
		}
		exprs := make([]algebra.Expr, len(n.Cols))
		for i, c := range n.Cols {
			exprs[i] = c.E
		}
		return p.project(exprs, n.Dedup, child, n.Schema())

	case *algebra.Join:
		return p.buildJoin(n)

	case *algebra.GroupBy:
		return p.buildGroupBy(n)

	case *algebra.UnionAll:
		l, err := p.build(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.build(n.R)
		if err != nil {
			return nil, err
		}
		return &exec.UnionAll{L: l, R: r}, nil

	case *algebra.Limit:
		child, err := p.build(n.In)
		if err != nil {
			return nil, err
		}
		if p.Vectorized {
			return &exec.BatchLimit{N: n.N, Child: child}, nil
		}
		return &exec.Limit{N: n.N, Child: child}, nil

	case *algebra.Sort:
		child, err := p.build(n.In)
		if err != nil {
			return nil, err
		}
		keys := make([]exec.SortSpec, len(n.Keys))
		for i, k := range n.Keys {
			ev, err := exec.Compile(k.E, child.Schema(), p)
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortSpec{Key: ev, Desc: k.Desc}
		}
		return &exec.Sort{Keys: keys, Child: child}, nil

	case *algebra.Apply:
		return p.buildApply(n)

	case *algebra.TableFunc:
		args := make([]exec.Evaluator, len(n.Args))
		for i, a := range n.Args {
			ev, err := exec.Compile(a, nil, p)
			if err != nil {
				return nil, err
			}
			args[i] = ev
		}
		return exec.NewFuncTable(n.Name, args, n.Cols), nil

	case *algebra.ApplyMerge, *algebra.CondApplyMerge:
		return nil, fmt.Errorf("plan: %s must be removed by the rewriter before execution", rel.Describe())
	}
	return nil, fmt.Errorf("plan: unsupported logical operator %T", rel)
}

// project plans a projection of exprs over a built child. A non-DISTINCT
// projection of plain column references over a join or an index lookup
// folds into its output list, so no projection operator copies its rows.
func (p *Planner) project(exprs []algebra.Expr, dedup bool, child exec.Node, schema []algebra.Column) (exec.Node, error) {
	if !dedup {
		if cols, ok := columnPositions(exprs, child.Schema()); ok && exec.Narrow(child, cols, schema) {
			return child, nil
		}
	}
	if p.Vectorized {
		evals, err := exec.CompileVecAll(exprs, child.Schema(), p)
		if err != nil {
			return nil, err
		}
		return exec.NewBatchProject(evals, dedup, child, schema), nil
	}
	evals, err := exec.CompileAll(exprs, child.Schema(), p)
	if err != nil {
		return nil, err
	}
	return exec.NewProject(evals, dedup, child, schema), nil
}

// columnPositions returns the position in schema that each expression
// names, resolving as algebra.ResolveRef does, or false when an expression
// is not a column reference of schema.
func columnPositions(exprs []algebra.Expr, schema []algebra.Column) ([]int, bool) {
	cols := make([]int, len(exprs))
	for i, e := range exprs {
		ref, ok := e.(*algebra.ColRef)
		if !ok {
			return nil, false
		}
		if cols[i] = algebra.RefIndex(schema, ref.Qual, ref.Name); cols[i] < 0 {
			return nil, false
		}
	}
	return cols, true
}

// buildScan plans a base-table scan that skips the segments whose zones
// rule out one of bounds.
func (p *Planner) buildScan(n *algebra.Scan, bounds []exec.ScanBound) (exec.Node, error) {
	t, ok := p.Store.Table(n.Table)
	if !ok {
		return nil, fmt.Errorf("plan: no storage for table %q", n.Table)
	}
	if p.Vectorized {
		s := exec.NewBatchScan(t, n.Cols)
		s.Bounds = bounds
		return s, nil
	}
	s := exec.NewTableScan(t, n.Cols)
	s.Bounds = bounds
	return s, nil
}

// buildSelect plans a selection, preferring an index equality probe when
// the input is a base table with an indexed column compared to a
// row-independent expression (constant or parameter) — the access path that
// makes iterative UDF invocation viable at all. Without a probe, a scan
// directly below takes the predicate's constant and parameter comparisons
// as zone bounds; the filter above it stays whole.
func (p *Planner) buildSelect(n *algebra.Select) (exec.Node, error) {
	scan, onScan := n.In.(*algebra.Scan)
	if onScan {
		t, tok := p.Store.Table(scan.Table)
		if tok {
			conjuncts := algebra.SplitConjuncts(n.Pred)
			for i, c := range conjuncts {
				cmp, ok := c.(*algebra.Cmp)
				if !ok || cmp.Op != sqltypes.CmpEQ {
					continue
				}
				ord, key, _ := matchColumnKey(cmp, scan.Cols)
				if ord < 0 || !t.HasIndexableCol(scan.Cols[ord].Name) {
					continue
				}
				col := scan.Cols[ord]
				keyEval, err := exec.Compile(key, nil, p)
				if err != nil {
					continue // key references columns; not a probe
				}
				p.note("IndexLookup(%s.%s)", scan.Table, col.Name)
				var node exec.Node = exec.NewIndexLookup(t, col.Name, keyEval, scan.Cols)
				rest := append(append([]algebra.Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
				if residual := algebra.AndAll(rest); residual != nil {
					ev, err := exec.Compile(residual, scan.Cols, p)
					if err != nil {
						return nil, err
					}
					node = &exec.Filter{Pred: ev, Child: node}
				}
				return node, nil
			}
		}
	}
	var child exec.Node
	var err error
	if bounds := p.scanBounds(n.Pred, scan); len(bounds) > 0 {
		if child, err = p.buildScan(scan, bounds); err == nil {
			p.note("%s", exec.PlanLabel(child))
		}
	} else {
		child, err = p.build(n.In)
	}
	if err != nil {
		return nil, err
	}
	if p.Vectorized {
		ev, err := exec.CompilePred(n.Pred, child.Schema(), p)
		if err != nil {
			return nil, err
		}
		return &exec.BatchFilter{Pred: ev, Child: child}, nil
	}
	ev, err := exec.Compile(n.Pred, child.Schema(), p)
	if err != nil {
		return nil, err
	}
	return &exec.Filter{Pred: ev, Child: child}, nil
}

// scanBounds returns the conjuncts of pred that compare a column of scan
// (nil: no scan) with a constant or a parameter by =, <, <=, > or >=, as
// zone bounds with the column on the left. A key is never a call or a
// subquery, so evaluating it once per open runs no UDF.
func (p *Planner) scanBounds(pred algebra.Expr, scan *algebra.Scan) []exec.ScanBound {
	if scan == nil {
		return nil
	}
	var bounds []exec.ScanBound
	for _, c := range algebra.SplitConjuncts(pred) {
		cmp, ok := c.(*algebra.Cmp)
		if !ok || cmp.Op == sqltypes.CmpNE {
			continue
		}
		ord, key, mirrored := matchColumnKey(cmp, scan.Cols)
		if ord < 0 || !isZoneKey(key) {
			continue
		}
		op := cmp.Op
		if mirrored {
			op = op.Mirror()
		}
		ev, err := exec.Compile(key, nil, p)
		if err != nil {
			continue
		}
		bounds = append(bounds, exec.ScanBound{Col: ord, Op: op, Key: ev,
			Text: scan.Cols[ord].Name + " " + op.String() + " " + key.String()})
	}
	return bounds
}

// isZoneKey reports whether e is a constant or a parameter.
func isZoneKey(e algebra.Expr) bool {
	switch e.(type) {
	case *algebra.Const, *algebra.ParamRef:
		return true
	}
	return false
}

// matchColumnKey returns the ordinal in scanCols of the column that cmp
// compares with an expression independent of the scanned row, that key,
// and whether the column stands on the right, so that cmp's operator must
// be mirrored to read `column op key`; ord < 0 when cmp compares no such
// pair.
func matchColumnKey(cmp *algebra.Cmp, scanCols []algebra.Column) (ord int, key algebra.Expr, mirrored bool) {
	try := func(colE, keyE algebra.Expr) int {
		ref, ok := colE.(*algebra.ColRef)
		if !ok || algebra.ExprUsesRefsOf(keyE, scanCols) {
			return -1
		}
		return algebra.RefIndex(scanCols, ref.Qual, ref.Name)
	}
	if ord := try(cmp.L, cmp.R); ord >= 0 {
		return ord, cmp.R, false
	}
	return try(cmp.R, cmp.L), cmp.L, true
}

// buildJoin chooses among index nested-loop join (as a correlated Apply over
// an index probe), hash join, and plain nested loops by estimated cost. An
// inner join whose right input has no usable index may probe an index on
// its left input instead: R ⋈ L runs as the index join, and a column-only
// projection that restores L's columns before R's folds into its output
// list.
func (p *Planner) buildJoin(n *algebra.Join) (exec.Node, error) {
	lRows, rRows := p.estimate(n.L), p.estimate(n.R)
	equi, residual := splitEqui(n.Cond, n.L.Schema(), n.R.Schema())

	costNL := lRows * rRows
	costHash := lRows + p.Cost.HashBuildRow*rRows
	if len(equi) == 0 {
		costHash = costNL + 1
	}
	// An index join probes its inner input's index once per outer row and
	// fetches every match. An inner join may probe either input; restore
	// is set when it probes the left one.
	costIdx := costNL + costHash + 1 // never chosen
	var idxCol, idxTab string
	var restore []algebra.Expr
	if len(equi) > 0 {
		var ok bool
		if idxCol, idxTab, ok = p.indexedScan(n.R, equi[0].r); ok {
			costIdx = lRows*p.Cost.ProbeCost + p.joinEstimate(n, lRows, rRows)
		} else if n.Kind == algebra.InnerJoin || n.Kind == algebra.CrossJoin {
			if idxCol, idxTab, ok = p.indexedScan(n.L, equi[0].l); ok {
				if restore = columnRefs(n.Schema()); restore != nil {
					costIdx = rRows*p.Cost.ProbeCost + p.joinEstimate(n, lRows, rRows)
				}
			}
		}
	}

	switch {
	case costIdx <= costHash && costIdx <= costNL && restore == nil:
		p.note("IndexNLJoin(%s.%s) [l=%.0f r=%.0f]", idxTab, idxCol, lRows, rRows)
		return p.buildIndexJoin(n, equi, residual)
	case costIdx <= costHash && costIdx <= costNL:
		p.note("IndexNLJoin(%s.%s) [l=%.0f r=%.0f]", idxTab, idxCol, rRows, lRows)
		swapped := make([]equiPair, len(equi))
		for i, pr := range equi {
			swapped[i] = equiPair{l: pr.r, r: pr.l}
		}
		child, err := p.buildIndexJoin(&algebra.Join{Kind: n.Kind, Cond: n.Cond, L: n.R, R: n.L}, swapped, residual)
		if err != nil {
			return nil, err
		}
		return p.project(restore, false, child, n.Schema())
	case len(equi) > 0 && costHash <= costNL:
		p.note("HashJoin(%s) [l=%.0f r=%.0f]", n.Kind, lRows, rRows)
		return p.buildHashJoin(n, equi, residual)
	default:
		p.note("NLJoin(%s) [l=%.0f r=%.0f]", n.Kind, lRows, rRows)
		return p.buildNLJoin(n)
	}
}

// indexedScan reports whether rel is a base-table scan (possibly under a
// selection) with an index on the column ref names.
func (p *Planner) indexedScan(rel algebra.Rel, ref *algebra.ColRef) (string, string, bool) {
	if sel, ok := rel.(*algebra.Select); ok {
		rel = sel.In
	}
	scan, ok := rel.(*algebra.Scan)
	if !ok {
		return "", "", false
	}
	t, ok := p.Store.Table(scan.Table)
	if !ok {
		return "", "", false
	}
	c, ok := algebra.ResolveRef(scan.Cols, ref.Qual, ref.Name)
	if !ok || !t.HasIndexableCol(c.Name) {
		return "", "", false
	}
	return c.Name, scan.Table, true
}

// columnRefs returns a qualified reference to each column of schema, or nil
// when some column cannot be named without ambiguity: it has no qualifier,
// or another column has the same qualified name.
func columnRefs(schema []algebra.Column) []algebra.Expr {
	seen := make(map[algebra.Ref]bool, len(schema))
	for _, c := range schema {
		ref := algebra.Ref{Qual: c.Qual, Name: c.Name}
		if c.Qual == "" || seen[ref] {
			return nil
		}
		seen[ref] = true
	}
	return algebra.ColRefsTo(schema)
}

// buildIndexJoin lowers the join to a correlated Apply whose right side is
// an index probe keyed on the outer row: the classic index nested-loop join.
func (p *Planner) buildIndexJoin(n *algebra.Join, equi []equiPair, residual algebra.Expr) (exec.Node, error) {
	l, err := p.build(n.L)
	if err != nil {
		return nil, err
	}
	lSchema := n.L.Schema()

	// Rebuild the right side as selection over the scan with the equi
	// conditions (minus the probe pair) plus residual folded in; then
	// substitute left references with correlation params.
	probe := equi[0]
	var rightPreds []algebra.Expr
	for _, pr := range equi[1:] {
		rightPreds = append(rightPreds, &algebra.Cmp{Op: sqltypes.CmpEQ, L: pr.l, R: pr.r})
	}
	if residual != nil {
		rightPreds = append(rightPreds, residual)
	}
	var rightRel algebra.Rel = n.R
	if pred := algebra.AndAll(rightPreds); pred != nil {
		rightRel = &algebra.Select{Pred: pred, In: rightRel}
	}
	rightRel, corr := p.substituteCorr(rightRel, lSchema)

	// Plan the right side replacing its scan with an index probe.
	probeParam := fmt.Sprintf("inlj$%d", p.nextCorr())
	rightNode, err := p.buildProbeSide(rightRel, probe.r, probeParam)
	if err != nil {
		return nil, err
	}
	keyEval, err := exec.Compile(probe.l, lSchema, p)
	if err != nil {
		return nil, err
	}
	kind := n.Kind
	if kind == algebra.CrossJoin {
		kind = algebra.InnerJoin
	}
	return exec.NewApply(kind, corr,
		[]exec.ApplyBind{{Param: probeParam, Arg: keyEval}}, l, rightNode), nil
}

func (p *Planner) nextCorr() int {
	p.corrSeq++
	return p.corrSeq
}

// buildProbeSide plans the right side of an index join, replacing its base
// scan with an IndexLookup on probeCol keyed by the probe parameter.
func (p *Planner) buildProbeSide(rel algebra.Rel, probeCol *algebra.ColRef, probeParam string) (exec.Node, error) {
	switch n := rel.(type) {
	case *algebra.Scan:
		t, ok := p.Store.Table(n.Table)
		if !ok {
			return nil, fmt.Errorf("plan: no storage for table %q", n.Table)
		}
		c, ok := algebra.ResolveRef(n.Cols, probeCol.Qual, probeCol.Name)
		if !ok {
			return nil, fmt.Errorf("plan: probe column %s missing from %s", probeCol, n.Table)
		}
		keyEval, err := exec.Compile(&algebra.ParamRef{Name: probeParam}, nil, p)
		if err != nil {
			return nil, err
		}
		return exec.NewIndexLookup(t, c.Name, keyEval, n.Cols), nil
	case *algebra.Select:
		child, err := p.buildProbeSide(n.In, probeCol, probeParam)
		if err != nil {
			return nil, err
		}
		ev, err := exec.Compile(n.Pred, child.Schema(), p)
		if err != nil {
			return nil, err
		}
		return &exec.Filter{Pred: ev, Child: child}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported probe side %T", rel)
	}
}

func (p *Planner) buildHashJoin(n *algebra.Join, equi []equiPair, residual algebra.Expr) (exec.Node, error) {
	l, err := p.build(n.L)
	if err != nil {
		return nil, err
	}
	r, err := p.build(n.R)
	if err != nil {
		return nil, err
	}
	var residualEval exec.Evaluator
	if residual != nil {
		joined := append(append([]algebra.Column{}, l.Schema()...), r.Schema()...)
		residualEval, err = exec.Compile(residual, joined, p)
		if err != nil {
			return nil, err
		}
	}
	kind := n.Kind
	if kind == algebra.CrossJoin {
		kind = algebra.InnerJoin
	}
	if p.Vectorized {
		lkeys := make([]exec.VecFactory, len(equi))
		rkeys := make([]exec.VecFactory, len(equi))
		for i, pr := range equi {
			le, err := exec.CompileVec(pr.l, l.Schema(), p)
			if err != nil {
				return nil, err
			}
			re, err := exec.CompileVec(pr.r, r.Schema(), p)
			if err != nil {
				return nil, err
			}
			lkeys[i], rkeys[i] = le, re
		}
		return exec.NewBatchHashJoin(kind, lkeys, rkeys, residualEval, l, r), nil
	}
	lkeys := make([]exec.Evaluator, len(equi))
	rkeys := make([]exec.Evaluator, len(equi))
	for i, pr := range equi {
		le, err := exec.Compile(pr.l, l.Schema(), p)
		if err != nil {
			return nil, err
		}
		re, err := exec.Compile(pr.r, r.Schema(), p)
		if err != nil {
			return nil, err
		}
		lkeys[i], rkeys[i] = le, re
	}
	return exec.NewHashJoin(kind, lkeys, rkeys, residualEval, l, r), nil
}

func (p *Planner) buildNLJoin(n *algebra.Join) (exec.Node, error) {
	l, err := p.build(n.L)
	if err != nil {
		return nil, err
	}
	r, err := p.build(n.R)
	if err != nil {
		return nil, err
	}
	var cond exec.Evaluator
	if n.Cond != nil {
		joined := append(append([]algebra.Column{}, l.Schema()...), r.Schema()...)
		cond, err = exec.Compile(n.Cond, joined, p)
		if err != nil {
			return nil, err
		}
	}
	return exec.NewNLJoin(n.Kind, cond, l, r), nil
}

func (p *Planner) buildGroupBy(n *algebra.GroupBy) (exec.Node, error) {
	// The keys, then every aggregate's arguments, in order.
	exprs := make([]algebra.Expr, 0, len(n.Keys)+len(n.Aggs))
	for _, k := range n.Keys {
		exprs = append(exprs, k)
	}
	for _, a := range n.Aggs {
		exprs = append(exprs, a.Args...)
	}
	child, err := p.build(n.In)
	if err != nil {
		return nil, err
	}
	if p.Vectorized {
		return p.buildBatchGroupBy(n, child)
	}
	evals, err := exec.CompileAll(exprs, child.Schema(), p)
	if err != nil {
		return nil, err
	}
	keys, args := evals[:len(n.Keys):len(n.Keys)], evals[len(n.Keys):]
	aggs := make([]*exec.AggSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		spec := &exec.AggSpec{Func: a.Func, Distinct: a.Distinct}
		if ud, ok := p.Cat.Aggregate(a.Func); ok {
			spec.UserDef = ud
		}
		if len(a.Args) > 0 {
			spec.Args, args = args[:len(a.Args):len(a.Args)], args[len(a.Args):]
		}
		aggs[i] = spec
	}
	return exec.NewHashAgg(keys, aggs, child, n.Schema()), nil
}

// buildBatchGroupBy lowers a GROUP BY, keyed or not, onto the vectorized
// aggregation operator: keys and aggregate arguments evaluate
// batch-at-a-time into the same group table as the row HashAgg, so every
// aggregate kind (builtin, DISTINCT, user-defined) is supported and grouped
// queries — the shape the decorrelated UDF rewrites produce — no longer
// bridge to the row engine.
func (p *Planner) buildBatchGroupBy(n *algebra.GroupBy, child exec.Node) (exec.Node, error) {
	keys := make([]exec.VecFactory, len(n.Keys))
	for i, k := range n.Keys {
		ev, err := exec.CompileVec(k, child.Schema(), p)
		if err != nil {
			return nil, err
		}
		keys[i] = ev
	}
	aggs := make([]*exec.AggSpec, len(n.Aggs))
	args := make([][]exec.VecFactory, len(n.Aggs))
	for i, a := range n.Aggs {
		spec := &exec.AggSpec{Func: a.Func, Distinct: a.Distinct,
			Args: make([]exec.Evaluator, len(a.Args))}
		if ud, ok := p.Cat.Aggregate(a.Func); ok {
			spec.UserDef = ud
		}
		vecs := make([]exec.VecFactory, len(a.Args))
		for j, arg := range a.Args {
			ev, err := exec.CompileVec(arg, child.Schema(), p)
			if err != nil {
				return nil, err
			}
			vecs[j] = ev
		}
		aggs[i], args[i] = spec, vecs
	}
	return exec.NewBatchGroupBy(keys, aggs, args, child, n.Schema()), nil
}

// buildApply plans a correlated Apply operator: the right side is executed
// per left row with correlation values published as parameters.
func (p *Planner) buildApply(n *algebra.Apply) (exec.Node, error) {
	l, err := p.build(n.L)
	if err != nil {
		return nil, err
	}
	lSchema := n.L.Schema()
	right, corr := p.substituteCorr(n.R, lSchema)
	rNode, err := p.build(right)
	if err != nil {
		return nil, err
	}
	binds := make([]exec.ApplyBind, len(n.Binds))
	for i, b := range n.Binds {
		ev, err := exec.Compile(b.Arg, lSchema, p)
		if err != nil {
			return nil, err
		}
		binds[i] = exec.ApplyBind{Param: b.Param, Arg: ev}
	}
	kind := n.Kind
	if kind == algebra.CrossJoin {
		kind = algebra.InnerJoin
	}
	p.note("Apply(%s) correlated", n.Kind)
	return exec.NewApply(kind, corr, binds, l, rNode), nil
}
