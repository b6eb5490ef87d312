package core

import (
	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
)

// ruleKeyRestrictAcrossJoin carries the outer side's constant restrictions
// of an equi-join column across the join, onto the grouping key that column
// meets, below the group-by (constant transitivity; the first step of magic
// decorrelation, Seshadri, Pirahesh and Leung, ICDE 1996):
//
//	σ_{a θ c}(e1) ⋈_{a=k} G_{k;…}(e2) = σ_{a θ c}(e1) ⋈_{a=k} G_{k;…}(σ_{k θ c}(e2))
//
// for an inner or left outer join. An inner row whose key fails k θ c can
// never equal the key of an outer row that passes a θ c. Because k is a
// grouping key, the filter removes whole groups and leaves the others
// intact, and NULL keys never matched. Only a comparison of the join column
// alone with a constant is copied: never one with a UDF call, a parameter,
// a subquery or another column.
//
// After K1/K2 and GL-scalar-agg decorrelation the group-by computes the
// UDF's aggregate for every key of the inner table; with the copy, a
// statement over a few outer keys groups only those keys. The
// select-through-project, select-into-join and join-pushdown rules carry
// the copy down to the scan.
//
// With Rewriter.Estimate set, a conjunct is copied only when it lowers the
// estimated rows of the group-by's input, so a range that covers the whole
// key domain adds no filter. Each conjunct is decided once per rewrite.
func ruleKeyRestrictAcrossJoin(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool) {
	j, ok := n.(*algebra.Join)
	if !ok || j.Cond == nil || (j.Kind != algebra.InnerJoin && j.Kind != algebra.LeftOuterJoin) {
		return nil, false
	}
	outer, ok := j.L.(*algebra.Select)
	if !ok {
		return nil, false
	}
	g, ok := j.R.(*algebra.GroupBy)
	if !ok || len(g.Keys) == 0 {
		return nil, false
	}
	lSchema, rSchema := outer.Schema(), g.Schema()
	var copies []algebra.Expr
	for _, c := range algebra.SplitConjuncts(j.Cond) {
		a, k, ok := joinKeyPair(c, lSchema, rSchema, g.Keys)
		if !ok {
			continue
		}
		for _, p := range algebra.SplitConjuncts(outer.Pred) {
			cp, ok := restrictionCopy(p, lSchema, a, k)
			if !ok {
				continue
			}
			id := cp.String()
			if rw.keyRestricts[id] {
				continue
			}
			rw.keyRestricts[id] = true
			if rw.Estimate != nil && rw.Estimate(&algebra.Select{Pred: cp, In: g.In}) >= rw.Estimate(g.In) {
				continue
			}
			copies = append(copies, cp)
		}
	}
	if len(copies) == 0 {
		return nil, false
	}
	restricted := &algebra.GroupBy{Keys: g.Keys, Aggs: g.Aggs,
		In: &algebra.Select{Pred: algebra.AndAll(copies), In: g.In}}
	return &algebra.Join{Kind: j.Kind, Cond: j.Cond, L: j.L, R: restricted}, true
}

// joinKeyPair matches an equality conjunct a = k, in either order, where a
// is a column of the outer side only and k is a grouping key of the inner
// side only. It returns a's position in lSchema and the key as the group-by
// names it.
func joinKeyPair(c algebra.Expr, lSchema, rSchema []algebra.Column, keys []*algebra.ColRef) (int, *algebra.ColRef, bool) {
	cmp, ok := c.(*algebra.Cmp)
	if !ok || cmp.Op != sqltypes.CmpEQ {
		return 0, nil, false
	}
	l, lok := cmp.L.(*algebra.ColRef)
	r, rok := cmp.R.(*algebra.ColRef)
	if !lok || !rok {
		return 0, nil, false
	}
	for _, ak := range [2][2]*algebra.ColRef{{l, r}, {r, l}} {
		a, k := ak[0], ak[1]
		ai, ki := refIndex(lSchema, a), refIndex(rSchema, k)
		if ai < 0 || ki < 0 || ki >= len(keys) || refIndex(rSchema, a) >= 0 || refIndex(lSchema, k) >= 0 {
			continue
		}
		return ai, keys[ki], true
	}
	return 0, nil, false
}

// restrictionCopy returns p with k in place of the outer column at lSchema[a]
// when p compares that column alone with a constant.
func restrictionCopy(p algebra.Expr, lSchema []algebra.Column, a int, k *algebra.ColRef) (algebra.Expr, bool) {
	cmp, ok := p.(*algebra.Cmp)
	if !ok {
		return nil, false
	}
	isA := func(e algebra.Expr) bool {
		c, ok := e.(*algebra.ColRef)
		return ok && refIndex(lSchema, c) == a
	}
	_, lConst := cmp.L.(*algebra.Const)
	_, rConst := cmp.R.(*algebra.Const)
	key := &algebra.ColRef{Qual: k.Qual, Name: k.Name}
	switch {
	case isA(cmp.L) && rConst:
		return &algebra.Cmp{Op: cmp.Op, L: key, R: cmp.R}, true
	case lConst && isA(cmp.R):
		return &algebra.Cmp{Op: cmp.Op, L: cmp.L, R: key}, true
	}
	return nil, false
}

// refIndex returns the position of the column a reference resolves to, or
// -1 (the first match, as algebra.ResolveRef picks it).
func refIndex(schema []algebra.Column, ref *algebra.ColRef) int {
	for i, c := range schema {
		if c.Matches(ref.Qual, ref.Name) {
			return i
		}
	}
	return -1
}
