package core

import (
	"errors"
	"fmt"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
)

// Result is the outcome of the rewrite pipeline.
type Result struct {
	// Rel is the rewritten tree (equal to the input when nothing fired).
	Rel algebra.Rel
	// Decorrelated reports whether no Apply operators remain.
	Decorrelated bool
	// InlinedUDFs names the UDF invocations that were merged.
	InlinedUDFs []string
	// NewAggs are auxiliary aggregates that must be registered before the
	// rewritten query runs.
	NewAggs []*catalog.Aggregate
	// Trace is the sequence of rule firings.
	Trace []string
}

// Decorrelator is the end-to-end rewrite pipeline of Figure 9: it merges
// UDF expression trees into the calling query (Section V) and removes the
// Apply operators with the rules of Section VI.
type Decorrelator struct {
	Cat *catalog.Catalog
	// Estimate is the planner's row-count estimate, handed to the rule
	// engine (Rewriter.Estimate); nil is allowed.
	Estimate func(algebra.Rel) float64
}

// NewDecorrelator builds a pipeline over a catalog.
func NewDecorrelator(cat *catalog.Catalog) *Decorrelator {
	return &Decorrelator{Cat: cat}
}

// Rewrite merges every algebraizable UDF invocation in the tree and applies
// the transformation rules to a fixpoint.
func (d *Decorrelator) Rewrite(rel algebra.Rel) (*Result, error) {
	rw := NewRewriter(d.Cat)
	rw.Estimate = d.Estimate
	builder := NewUDFBuilder(d.Cat, rw)
	res := &Result{}

	// Step 1+2: replace UDF invocations by their algebraic form under an
	// Apply with the bind extension (Figure 6), repeating until no more
	// invocations can be merged (innermost-first so arguments are simple).
	for pass := 0; ; pass++ {
		if pass == maxRewritePasses {
			passCapReached("Decorrelator.Rewrite")
			break
		}
		merged, name, err := d.mergeOneCall(rw, builder, rel)
		if err != nil {
			return nil, err
		}
		if name == "" {
			break
		}
		res.InlinedUDFs = append(res.InlinedUDFs, name)
		rel = merged
	}

	// Step 3: remove the Apply operators.
	rel = rw.Rewrite(rel)

	res.Rel = rel
	res.Decorrelated = Decorrelated(rel)
	res.NewAggs = builder.NewAggs
	res.Trace = rw.Trace
	return res, nil
}

// scalarUDFCall matches a Call expression that refers to a scalar UDF whose
// arguments contain no further UDF calls (innermost-first extraction).
func (d *Decorrelator) scalarUDFCall(e algebra.Expr) *algebra.Call {
	var found *algebra.Call
	algebra.VisitExpr(e, func(x algebra.Expr) {
		if found != nil {
			return
		}
		call, ok := x.(*algebra.Call)
		if !ok {
			return
		}
		fn, ok := d.Cat.Function(call.Name)
		if !ok || fn.IsTableValued() {
			return
		}
		for _, a := range call.Args {
			if d.scalarUDFCall(a) != nil {
				return // extract the inner one first
			}
		}
		found = call
	}, nil)
	return found
}

// mergeOneCall finds one UDF invocation (scalar call in a projection or
// selection, or a table-function reference) and merges its expression tree.
// It returns the new tree and the merged function's name, or "" when
// nothing was merged.
func (d *Decorrelator) mergeOneCall(rw *Rewriter, b *UDFBuilder, rel algebra.Rel) (algebra.Rel, string, error) {
	var mergedName string
	var buildErr error
	out := algebra.Transform(rel, func(n algebra.Rel) algebra.Rel {
		if mergedName != "" || buildErr != nil {
			return n
		}
		switch node := n.(type) {
		case *algebra.Project:
			for i, c := range node.Cols {
				call := d.scalarUDFCall(c.E)
				if call == nil {
					continue
				}
				repl, rv, err := d.applyForCall(rw, b, node.In, call)
				if err != nil {
					if errors.Is(err, ErrUnsupported) {
						return n // leave iterative
					}
					buildErr = err
					return n
				}
				cols := make([]algebra.ProjCol, len(node.Cols))
				copy(cols, node.Cols)
				cols[i] = algebra.ProjCol{
					E:    replaceExprNode(c.E, call, &algebra.ColRef{Name: rv}),
					Qual: c.Qual,
					As:   c.As,
				}
				mergedName = call.Name
				return &algebra.Project{Cols: cols, Dedup: node.Dedup, In: repl}
			}
		case *algebra.Select:
			call := d.scalarUDFCall(node.Pred)
			if call == nil {
				return n
			}
			inSchema := node.In.Schema()
			repl, rv, err := d.applyForCall(rw, b, node.In, call)
			if err != nil {
				if errors.Is(err, ErrUnsupported) {
					return n
				}
				buildErr = err
				return n
			}
			mergedName = call.Name
			pred := replaceExprNode(node.Pred, call, &algebra.ColRef{Name: rv})
			return &algebra.Project{
				Cols: passthroughCols(inSchema),
				In:   &algebra.Select{Pred: pred, In: repl},
			}
		case *algebra.TableFunc:
			repl, err := d.expandTableFunc(rw, b, node)
			if err != nil {
				if errors.Is(err, ErrUnsupported) {
					return n
				}
				buildErr = err
				return n
			}
			mergedName = node.Name
			return repl
		}
		return n
	})
	if buildErr != nil {
		return nil, "", buildErr
	}
	if mergedName == "" {
		return rel, "", nil
	}
	return out, mergedName, nil
}

// applyForCall builds the Apply-with-bind form of Figure 6 for a scalar UDF
// invocation over the given input relation: the result is
// In A×(bind: fp_i = arg_i) Π_{retval as rv}(E_udf), with the UDF's local
// names alpha-renamed to avoid capture, and rv a fresh result column.
func (d *Decorrelator) applyForCall(rw *Rewriter, b *UDFBuilder, in algebra.Rel, call *algebra.Call) (algebra.Rel, string, error) {
	fn, ok := d.Cat.Function(call.Name)
	if !ok {
		return nil, "", fmt.Errorf("unknown function %q", call.Name)
	}
	if len(call.Args) != len(fn.Def.Params) {
		return nil, "", fmt.Errorf("function %q expects %d args, got %d", call.Name, len(fn.Def.Params), len(call.Args))
	}
	eudf, err := b.BuildScalar(fn)
	if err != nil {
		return nil, "", err
	}
	// Alpha-rename the UDF's internal (unqualified) columns and its formal
	// parameters so multiple invocations cannot capture each other.
	eudf, paramMap := d.alphaRename(rw, eudf, fn)
	rv := rw.FreshName("rv")
	renamed := &algebra.Project{
		Cols: []algebra.ProjCol{{E: &algebra.ColRef{Name: mustGet(paramMap, "retval")}, As: rv}},
		In:   eudf,
	}
	binds := make([]algebra.Bind, len(call.Args))
	for i, p := range fn.Def.Params {
		binds[i] = algebra.Bind{Param: mustGet(paramMap, "$param$"+p.Name), Arg: call.Args[i]}
	}
	return &algebra.Apply{Kind: algebra.CrossJoin, Binds: binds, L: in, R: renamed}, rv, nil
}

func mustGet(m map[string]string, k string) string {
	v, ok := m[k]
	if !ok {
		panic("core: missing alpha-rename entry for " + k)
	}
	return v
}

// alphaRename renames every unqualified output column, every table alias
// (qualifier), and every formal parameter of a UDF expression tree to fresh
// names, so that merging the tree into a calling query can never capture
// the caller's names — in particular when the UDF queries the same table as
// the outer query under the same default alias. It returns the renamed tree
// plus the mapping (parameters are keyed as "$param$<name>").
func (d *Decorrelator) alphaRename(rw *Rewriter, eudf algebra.Rel, fn *catalog.Function) (algebra.Rel, map[string]string) {
	names := map[string]bool{}
	quals := map[string]bool{}
	algebra.Visit(eudf, func(n algebra.Rel) {
		switch x := n.(type) {
		case *algebra.Project:
			for _, c := range x.Cols {
				if c.Qual == "" {
					names[c.As] = true
				} else {
					quals[c.Qual] = true
				}
			}
		case *algebra.GroupBy:
			for _, a := range x.Aggs {
				names[a.As] = true
			}
		case *algebra.Scan:
			quals[x.Alias] = true
		case *algebra.TableFunc:
			for _, c := range x.Cols {
				if c.Qual != "" {
					quals[c.Qual] = true
				}
			}
		}
	})
	colMap := map[string]string{}
	out := map[string]string{}
	for name := range names {
		f := rw.FreshName(name)
		colMap[name] = f
		out[name] = f
	}
	renamed := algebra.RenameColumns(eudf, colMap)

	qualMap := map[string]string{}
	for q := range quals {
		if q == "" {
			continue
		}
		qualMap[q] = rw.FreshName(q)
	}
	renamed = renameQualifiers(renamed, qualMap)

	paramSubst := map[string]algebra.Expr{}
	for _, p := range fn.Def.Params {
		f := rw.FreshName(p.Name)
		out["$param$"+p.Name] = f
		paramSubst[p.Name] = &algebra.ParamRef{Name: f}
	}
	renamed = algebra.SubstituteParams(renamed, paramSubst)
	return renamed, out
}

// renameQualifiers rewrites table aliases throughout a tree: scan aliases,
// qualified column references, and qualified projection outputs.
func renameQualifiers(rel algebra.Rel, m map[string]string) algebra.Rel {
	if len(m) == 0 {
		return rel
	}
	rel = algebra.MapExprsDeep(rel, func(e algebra.Expr) algebra.Expr {
		if c, ok := e.(*algebra.ColRef); ok && c.Qual != "" {
			if to, hit := m[c.Qual]; hit {
				return &algebra.ColRef{Qual: to, Name: c.Name}
			}
		}
		return e
	})
	return algebra.Transform(rel, func(n algebra.Rel) algebra.Rel {
		switch x := n.(type) {
		case *algebra.Scan:
			to, hit := m[x.Alias]
			if !hit {
				return n
			}
			cols := make([]algebra.Column, len(x.Cols))
			for i, c := range x.Cols {
				cols[i] = algebra.Column{Qual: to, Name: c.Name, Type: c.Type}
			}
			return &algebra.Scan{Table: x.Table, Alias: to, Cols: cols}
		case *algebra.Project:
			changed := false
			cols := make([]algebra.ProjCol, len(x.Cols))
			for i, c := range x.Cols {
				cols[i] = c
				if to, hit := m[c.Qual]; hit && c.Qual != "" {
					cols[i].Qual = to
					changed = true
				}
			}
			if changed {
				return &algebra.Project{Cols: cols, Dedup: x.Dedup, In: x.In}
			}
		case *algebra.TableFunc:
			changed := false
			cols := make([]algebra.Column, len(x.Cols))
			for i, c := range x.Cols {
				cols[i] = c
				if to, hit := m[c.Qual]; hit && c.Qual != "" {
					cols[i].Qual = to
					changed = true
				}
			}
			if changed {
				return &algebra.TableFunc{Name: x.Name, Args: x.Args, Cols: cols}
			}
		}
		return n
	})
}

// expandTableFunc replaces a table-valued UDF reference in a FROM clause by
// its algebraized body with arguments substituted (Section VII-B), wrapped
// in a projection that re-qualifies the outputs under the use-site alias.
func (d *Decorrelator) expandTableFunc(rw *Rewriter, b *UDFBuilder, tf *algebra.TableFunc) (algebra.Rel, error) {
	fn, ok := d.Cat.Function(tf.Name)
	if !ok || !fn.IsTableValued() {
		return nil, fmt.Errorf("unknown table function %q", tf.Name)
	}
	if len(tf.Args) != len(fn.Def.Params) {
		return nil, fmt.Errorf("function %q expects %d args, got %d", tf.Name, len(fn.Def.Params), len(tf.Args))
	}
	body, err := b.BuildTable(fn)
	if err != nil {
		return nil, err
	}
	body, paramMap := d.alphaRename(rw, body, fn)
	subst := map[string]algebra.Expr{}
	for i, p := range fn.Def.Params {
		subst[mustGet(paramMap, "$param$"+p.Name)] = tf.Args[i]
	}
	body = algebra.SubstituteParams(body, subst)
	inner := body.Schema()
	if len(inner) != len(tf.Cols) {
		return nil, fmt.Errorf("function %q: body arity %d, declared %d", tf.Name, len(inner), len(tf.Cols))
	}
	cols := make([]algebra.ProjCol, len(inner))
	for i, c := range inner {
		cols[i] = algebra.ProjCol{
			E:    &algebra.ColRef{Qual: c.Qual, Name: c.Name},
			Qual: tf.Cols[i].Qual,
			As:   tf.Cols[i].Name,
		}
	}
	return &algebra.Project{Cols: cols, In: body}, nil
}
