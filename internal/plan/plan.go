// Package plan translates logical algebra trees into physical exec plans.
// It performs the cost-based physical choices the paper relies on: index
// nested-loop join vs. hash join vs. plain nested loops (the plan switches
// observed in Experiment 2), index lookups for parameterized equality
// predicates inside UDF bodies, and correlated Apply execution for queries
// that could not be decorrelated.
package plan

import (
	"fmt"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// Costs parameterizes the cost model. The two engine profiles (SYS1/SYS2)
// share these defaults; they are exported for ablation benchmarks.
type Costs struct {
	// SeqRow is the cost of streaming one row.
	SeqRow float64
	// ProbeCost is the cost of one hash-index probe.
	ProbeCost float64
	// HashBuildRow is the per-row cost of building a hash table.
	HashBuildRow float64
	// ApplyOverhead is the per-outer-row overhead of correlated execution.
	ApplyOverhead float64
}

// DefaultCosts returns the default cost model.
func DefaultCosts() Costs {
	return Costs{SeqRow: 1, ProbeCost: 4, HashBuildRow: 2, ApplyOverhead: 8}
}

// Planner builds physical plans.
//
// A Planner is safe for concurrent Build/BuildExplain calls: each call runs
// on a private fork carrying the per-build scratch state (the choice log and
// the correlation-parameter sequence), while the shared fields (catalog,
// store, interpreter, cost model, Vectorized) are read-only after
// construction. Do not mutate Cost or Vectorized while queries are in
// flight; the query service builds a fresh engine view per settings change
// instead.
type Planner struct {
	Cat    *catalog.Catalog
	Store  *storage.Store
	Interp *exec.Interp
	Cost   Costs
	// Vectorized selects the batch execution path for the hot operators
	// (scan, filter, project, limit, hash join, aggregation); row operators
	// bridge to batch children through adapters, so any plan shape remains
	// executable.
	Vectorized bool
	// Parallelism is the intra-query degree for top-level vectorized plans:
	// when > 1, scan/filter/project/probe pipelines become morsel-driven
	// Exchange operators and aggregations get per-worker partial states
	// where the operators support it (EXPLAIN notes each parallel
	// operator). Embedded statements and Apply subplans always plan
	// serially — they execute once per UDF invocation or outer row, where
	// worker fan-out would only add overhead.
	Parallelism int

	// Per-build scratch state; only ever touched on a fork (see fork).
	// choices collects physical operator choices for EXPLAIN; corrSeq
	// numbers correlation parameters uniquely within one build (the Apply
	// operator scopes them in a fresh frame, so cross-plan reuse of the
	// same parameter name is harmless).
	choices []string
	corrSeq int
}

// New builds a planner.
func New(cat *catalog.Catalog, store *storage.Store, interp *exec.Interp) *Planner {
	return &Planner{Cat: cat, Store: store, Interp: interp, Cost: DefaultCosts()}
}

// fork returns a shallow copy with cleared per-build state, so concurrent
// builds on the same planner never share mutable fields.
func (p *Planner) fork() *Planner {
	cp := *p
	cp.choices = nil
	cp.corrSeq = 0
	return &cp
}

// Build compiles a logical tree into an executable plan, applying
// intra-query parallelism at the root when configured.
func (p *Planner) Build(rel algebra.Rel) (exec.Node, error) {
	f := p.fork()
	n, err := f.build(prune(rel, nil))
	if err != nil {
		return nil, err
	}
	n, _ = f.finalize(n)
	return n, nil
}

// BuildSerial compiles without the parallel rewrite (embedded statements
// inside UDF bodies, which run once per invocation).
func (p *Planner) BuildSerial(rel algebra.Rel) (exec.Node, error) {
	return p.fork().build(prune(rel, nil))
}

// BuildExplain compiles and also returns the physical choice log plus the
// plan's effective intra-query degree (1 when the plan stayed serial —
// including when parallelism was configured but no operator had a
// parallel-safe decomposition).
func (p *Planner) BuildExplain(rel algebra.Rel) (exec.Node, []string, int, error) {
	f := p.fork()
	n, err := f.build(prune(rel, nil))
	if err != nil {
		return nil, f.choices, 1, err
	}
	n, degree := f.finalize(n)
	return n, f.choices, degree, nil
}

// finalize applies the parallel rewrite to a built top-level plan, logs
// every parallel operator introduced for EXPLAIN, and reports the plan's
// effective degree.
func (p *Planner) finalize(n exec.Node) (exec.Node, int) {
	if !p.Vectorized || p.Parallelism <= 1 {
		return n, 1
	}
	pn, notes, ok := exec.Parallelize(n, p.Parallelism)
	if !ok {
		return n, 1
	}
	for _, note := range notes {
		p.note("%s", note)
	}
	return pn, p.Parallelism
}

func (p *Planner) note(format string, args ...any) {
	p.choices = append(p.choices, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// CallResolver
// ---------------------------------------------------------------------------

// ResolveScalarCall implements exec.CallResolver: scalar UDF invocations go
// through the interpreter (the paper's iterative baseline).
func (p *Planner) ResolveScalarCall(name string, argc int) (func(ctx *exec.Ctx, args []sqltypes.Value) (sqltypes.Value, error), bool) {
	fn, ok := p.Cat.Function(name)
	if !ok || fn.IsTableValued() || len(fn.Def.Params) != argc {
		return nil, false
	}
	interp := p.Interp
	return func(ctx *exec.Ctx, args []sqltypes.Value) (sqltypes.Value, error) {
		if ctx.Interp != nil {
			return ctx.Interp.CallScalar(ctx, name, args)
		}
		if interp == nil {
			return sqltypes.Null, exec.Errorf("no interpreter for UDF %q", name)
		}
		return interp.CallScalar(ctx, name, args)
	}, true
}

// BuildSubplan implements exec.CallResolver: it decouples the subquery from
// its outer schema by rewriting outer column references into parameters and
// returns the bindings the evaluator must publish per row.
func (p *Planner) BuildSubplan(rel algebra.Rel, outer []algebra.Column) (exec.Node, []exec.CorrBinding, error) {
	sub, corr := p.substituteCorr(rel, outer)
	n, err := p.build(prune(sub, nil))
	if err != nil {
		return nil, nil, err
	}
	return n, corr, nil
}

// substituteCorr rewrites free column references of rel that resolve in the
// outer schema into parameter references, returning the rewritten tree and
// the bindings (parameter name -> outer column ordinal).
func (p *Planner) substituteCorr(rel algebra.Rel, outer []algebra.Column) (algebra.Rel, []exec.CorrBinding) {
	free := algebra.FreeRefs(rel)
	repl := map[algebra.Ref]string{}
	var corr []exec.CorrBinding
	for ref := range free {
		if ref.IsParam {
			continue
		}
		for i, c := range outer {
			if c.Matches(ref.Qual, ref.Name) {
				p.corrSeq++
				param := fmt.Sprintf("corr$%d$%s", p.corrSeq, ref.Name)
				repl[ref] = param
				corr = append(corr, exec.CorrBinding{Param: param, Col: i})
				break
			}
		}
	}
	if len(repl) == 0 {
		return rel, nil
	}
	out := algebra.MapExprsDeep(rel, func(e algebra.Expr) algebra.Expr {
		if c, ok := e.(*algebra.ColRef); ok {
			if param, ok := repl[algebra.Ref{Qual: c.Qual, Name: c.Name}]; ok {
				return &algebra.ParamRef{Name: param}
			}
		}
		return e
	})
	return out, corr
}

// ---------------------------------------------------------------------------
// Cardinality and cost estimation
// ---------------------------------------------------------------------------

// Estimate returns the estimated output row count of a logical tree.
func (p *Planner) Estimate(rel algebra.Rel) float64 { return p.estimate(rel) }

// CostOf returns a crude total cost estimate for executing a logical tree:
// the sum of estimated row counts flowing through every operator (a
// streaming-cost lower bound; joins add the product-free hash-join cost).
// The engine's cost-based mode uses it to arbitrate between the iterative
// and rewritten forms, mirroring "correlated evaluation remains as an
// alternative for the optimizer to consider".
func (p *Planner) CostOf(rel algebra.Rel) float64 {
	cost := p.estimate(rel)
	switch n := rel.(type) {
	case *algebra.Join:
		// Hash-join style: build the right side, stream the left.
		cost += p.CostOf(n.L) + p.Cost.HashBuildRow*p.CostOf(n.R)
	case *algebra.Apply:
		// Correlated evaluation: the inner side runs once per outer row.
		lRows := p.estimate(n.L)
		cost += p.CostOf(n.L) + lRows*(p.Cost.ApplyOverhead+p.CostOf(n.R))
	default:
		for _, c := range rel.Children() {
			cost += p.CostOf(c)
		}
	}
	return cost
}

func (p *Planner) estimate(rel algebra.Rel) float64 {
	switch n := rel.(type) {
	case *algebra.Scan:
		if t, ok := p.Store.Table(n.Table); ok {
			return float64(t.RowCount())
		}
		return 1000
	case *algebra.Single:
		return 1
	case *algebra.Select:
		return p.estimate(n.In) * p.selectivity(n.Pred, n.In)
	case *algebra.Project:
		in := p.estimate(n.In)
		if n.Dedup {
			return in * 0.8
		}
		return in
	case *algebra.Join:
		l, r := p.estimate(n.L), p.estimate(n.R)
		switch n.Kind {
		case algebra.SemiJoin:
			return l * 0.5
		case algebra.AntiJoin:
			return l * 0.5
		case algebra.LeftOuterJoin:
			est := p.joinEstimate(n, l, r)
			if est < l {
				est = l
			}
			return est
		case algebra.CrossJoin:
			if n.Cond == nil {
				return l * r
			}
			return p.joinEstimate(n, l, r)
		default:
			return p.joinEstimate(n, l, r)
		}
	case *algebra.GroupBy:
		in := p.estimate(n.In)
		if len(n.Keys) == 0 {
			return 1
		}
		est := in / 10
		if est < 1 {
			est = 1
		}
		return est
	case *algebra.UnionAll:
		return p.estimate(n.L) + p.estimate(n.R)
	case *algebra.Limit:
		in := p.estimate(n.In)
		if float64(n.N) < in {
			return float64(n.N)
		}
		return in
	case *algebra.Sort:
		return p.estimate(n.In)
	case *algebra.Apply:
		return p.estimate(n.L) * p.estimate(n.R)
	case *algebra.ApplyMerge:
		return p.estimate(n.L)
	case *algebra.CondApplyMerge:
		return p.estimate(n.In)
	case *algebra.TableFunc:
		return 100
	default:
		return 1000
	}
}

// selectivity estimates the fraction of rows passing a predicate.
func (p *Planner) selectivity(pred algebra.Expr, in algebra.Rel) float64 {
	sel := 1.0
	for _, c := range algebra.SplitConjuncts(pred) {
		sel *= p.conjunctSelectivity(c, in)
	}
	if sel < 1e-9 {
		sel = 1e-9
	}
	return sel
}

func (p *Planner) conjunctSelectivity(c algebra.Expr, in algebra.Rel) float64 {
	cmp, ok := c.(*algebra.Cmp)
	if !ok {
		return 0.5
	}
	op := cmp.Op
	col, colOK := cmp.L.(*algebra.ColRef)
	other := cmp.R
	if !colOK {
		col, colOK = cmp.R.(*algebra.ColRef)
		other = cmp.L
		// Normalize to "col OP literal" by mirroring the comparison.
		op = op.Mirror()
	}
	if !colOK {
		return 0.33
	}
	stats, n := p.columnStats(in, col)
	_ = n
	switch op {
	case sqltypes.CmpEQ:
		if stats != nil && stats.DistinctCount > 0 {
			return 1 / float64(stats.DistinctCount)
		}
		return 0.01
	case sqltypes.CmpNE:
		return 0.9
	default:
		// Range predicate: interpolate against min/max when the bound is a
		// literal (this mirrors histogram-based estimation and is what lets
		// the planner see that "custkey <= K" selects K/N of the table).
		lit, isLit := other.(*algebra.Const)
		if stats == nil || !isLit || stats.Min.IsNull() || stats.Max.IsNull() {
			return 0.33
		}
		lo, lok := stats.Min.AsFloat()
		hi, hok := stats.Max.AsFloat()
		v, vok := lit.Val.AsFloat()
		if !lok || !hok || !vok || hi <= lo {
			return 0.33
		}
		frac := (v - lo) / (hi - lo)
		if op == sqltypes.CmpGT || op == sqltypes.CmpGE {
			frac = 1 - frac
		}
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return frac
	}
}

// columnStats locates storage statistics for a column referenced through a
// (possibly nested) logical tree, following simple pass-through operators.
func (p *Planner) columnStats(rel algebra.Rel, ref *algebra.ColRef) (*storage.ColStats, float64) {
	switch n := rel.(type) {
	case *algebra.Scan:
		if !algebra.HasRef(n.Cols, ref.Qual, ref.Name) {
			return nil, 0
		}
		t, ok := p.Store.Table(n.Table)
		if !ok {
			return nil, 0
		}
		st, err := t.Stats(ref.Name)
		if err != nil {
			return nil, 0
		}
		return &st, float64(t.RowCount())
	case *algebra.Select:
		return p.columnStats(n.In, ref)
	case *algebra.Join:
		// Resolve by qualifier first: an unqualified name (or an ambiguous
		// one) may exist on both sides, and a left-first probe would return
		// the wrong table's stats for a reference that names the right side.
		if ref.Qual != "" {
			inL := algebra.HasRef(n.L.Schema(), ref.Qual, ref.Name)
			inR := algebra.HasRef(n.R.Schema(), ref.Qual, ref.Name)
			switch {
			case inL && !inR:
				return p.columnStats(n.L, ref)
			case inR && !inL:
				return p.columnStats(n.R, ref)
			}
		}
		if st, c := p.columnStats(n.L, ref); st != nil {
			return st, c
		}
		return p.columnStats(n.R, ref)
	case *algebra.Project:
		// Follow the projection column whose output matches the reference; a
		// plain column rename passes the underlying stats through, anything
		// computed has none.
		for _, c := range n.Cols {
			if !(algebra.Column{Qual: c.Qual, Name: c.As}).Matches(ref.Qual, ref.Name) {
				continue
			}
			if cr, ok := c.E.(*algebra.ColRef); ok {
				return p.columnStats(n.In, cr)
			}
			return nil, 0
		}
		return nil, 0
	case *algebra.ApplyMerge:
		// The schema is the left child's; columns assigned by the merge take
		// values from the right side, so their base stats no longer apply.
		if applyMergeAssigns(n, ref) {
			return nil, 0
		}
		return p.columnStats(n.L, ref)
	case *algebra.Sort:
		return p.columnStats(n.In, ref)
	case *algebra.Limit:
		return p.columnStats(n.In, ref)
	}
	return nil, 0
}

// applyMergeAssigns reports whether the ApplyMerge overwrites the referenced
// column. An empty Assigns list assigns every attribute common to both
// children.
func applyMergeAssigns(n *algebra.ApplyMerge, ref *algebra.ColRef) bool {
	if len(n.Assigns) > 0 {
		for _, a := range n.Assigns {
			if a.Target == ref.Name {
				return true
			}
		}
		return false
	}
	return algebra.HasRef(n.R.Schema(), "", ref.Name)
}
