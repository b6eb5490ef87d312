package core

import (
	"fmt"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

// maxRewritePasses bounds the fixpoint iteration of the rule engine.
const maxRewritePasses = 64

// Rule is one algebraic transformation: it returns a replacement tree and
// true when it fires on the given node.
type Rule struct {
	Name  string
	Apply func(rw *Rewriter, n algebra.Rel) (algebra.Rel, bool)
}

// Rewriter drives rule application to a fixpoint and carries the state the
// rules need: the catalog (for aggregate resolution), fresh-name generation,
// and a trace of fired rules for tests and EXPLAIN output.
type Rewriter struct {
	Cat   *catalog.Catalog
	Trace []string

	// Estimate, when set, is the planner's row-count estimate; the rule
	// key-restrict-across-join copies a restriction only where it lowers
	// the estimate. Nil copies every restriction the rule matches.
	Estimate func(algebra.Rel) float64

	// auxAggs holds auxiliary aggregates synthesized during this rewrite
	// (not yet registered in the catalog); the scalar-aggregate
	// decorrelation needs their initial state to patch up empty groups
	// across the outer join.
	auxAggs map[string]*catalog.Aggregate

	// keyRestricts remembers every restriction key-restrict-across-join
	// has decided on (copied or refused), so it fires once per conjunct.
	keyRestricts map[string]bool

	nameSeq int
	rules   []Rule
}

// RegisterAux records a synthesized auxiliary aggregate.
func (rw *Rewriter) RegisterAux(a *catalog.Aggregate) { rw.auxAggs[a.Name] = a }

// auxInit returns the initial value of an auxiliary aggregate's result
// variable: the value an empty group must produce.
func (rw *Rewriter) auxInit(name string) (sqltypes.Value, bool) {
	a, ok := rw.auxAggs[name]
	if !ok {
		return sqltypes.Null, false
	}
	for _, sv := range a.State {
		if sv.Name == a.Result {
			return sv.Init, true
		}
	}
	return sqltypes.Null, false
}

// NewRewriter builds a rewriter with the full rule set of Tables I and II
// plus the decorrelation transformations of Galindo-Legaria & Joshi used by
// the paper's examples.
func NewRewriter(cat *catalog.Catalog) *Rewriter {
	rw := &Rewriter{Cat: cat, auxAggs: map[string]*catalog.Aggregate{}, keyRestricts: map[string]bool{}}
	rw.rules = []Rule{
		{"R9-bind-removal", ruleR9BindRemoval},
		{"leftouter-to-cross", ruleLeftOuterToCross},
		{"R1-apply-single", ruleR1ApplySingle},
		{"R2-merge-project-single", ruleR2MergeProjectSingle},
		{"R8-cond-merge-scalar", ruleR8CondMergeScalar},
		{"R8-cond-merge-eager", ruleCondMergeEager},
		{"R6-cond-merge-union", ruleR6CondMergeUnion},
		{"R4-merge-removal", ruleR4MergeRemoval},
		{"simplify-select-through-project", rulePushSelectThroughProject},
		{"simplify-prune-unused-apply", rulePruneUnusedApply},
		{"R7-union-to-case", ruleR7UnionToCase},
		{"R5-project-past-apply", ruleR5ProjectPastApply},
		{"K4-project-pullup", ruleK4ProjectPullup},
		{"semi-project-drop", ruleSemiProjectDrop},
		{"K3-select-pullup", ruleK3SelectPullup},
		{"hoist-correlated-select", ruleHoistCorrelatedSelect},
		{"K1K2-apply-to-join", ruleK1K2ApplyToJoin},
		{"key-restrict-across-join", ruleKeyRestrictAcrossJoin},
		{"apply-assoc", ruleApplyAssoc},
		{"apply-union-distribute", ruleApplyUnionDistribute},
		{"apply-join-pushdown", ruleApplyJoinPushdown},
		{"GL-scalar-agg-decorrelation", ruleScalarAggDecorrelate},
		{"subquery-to-apply", ruleSubqueryToApply},
		{"exists-to-apply", ruleExistsToApply},
		{"simplify-select-merge", ruleSelectMerge},
		{"simplify-select-true", ruleSelectTrue},
		{"simplify-join-single", ruleJoinSingle},
		{"simplify-select-into-join", rulePushSelectIntoJoin},
		{"simplify-join-pushdown", rulePushdownIntoJoinChildren},
		{"R3-project-compose", ruleR3ProjectCompose},
	}
	return rw
}

// FreshName produces a unique column/parameter name with the given prefix.
func (rw *Rewriter) FreshName(prefix string) string {
	rw.nameSeq++
	return fmt.Sprintf("%s_%d", prefix, rw.nameSeq)
}

// Rewrite applies the rule set bottom-up to a fixpoint.
func (rw *Rewriter) Rewrite(rel algebra.Rel) algebra.Rel {
	for pass := 0; pass < maxRewritePasses; pass++ {
		changed := false
		rel = algebra.Transform(rel, func(n algebra.Rel) algebra.Rel {
			for {
				fired := false
				for _, rule := range rw.rules {
					if out, ok := rule.Apply(rw, n); ok {
						rw.Trace = append(rw.Trace, rule.Name)
						if c := observer.Load(); c != nil {
							c.Fired(rule.Name, n, out)
						}
						n = out
						fired = true
						changed = true
						break
					}
				}
				if !fired {
					return n
				}
			}
		})
		if !changed {
			return rel
		}
	}
	passCapReached("Rewriter.Rewrite")
	return rel
}

// Decorrelated reports whether the tree is fully decorrelated: no Apply
// family operators remain.
func Decorrelated(rel algebra.Rel) bool { return !algebra.HasApply(rel) }

// Normalize applies only the semantics-preserving simplification rules
// (predicate pushdown, selection/projection normalization) without touching
// UDF invocations or introducing Apply operators. Both execution paths use
// it before planning, so the iterative baseline gets the ordinary
// single-query optimizations a commercial system would perform.
func Normalize(cat *catalog.Catalog, rel algebra.Rel) algebra.Rel {
	rw := &Rewriter{Cat: cat, auxAggs: map[string]*catalog.Aggregate{}}
	rw.rules = []Rule{
		{"simplify-select-merge", ruleSelectMerge},
		{"simplify-select-true", ruleSelectTrue},
		{"simplify-join-single", ruleJoinSingle},
		{"simplify-select-into-join", rulePushSelectIntoJoin},
		{"simplify-join-pushdown", rulePushdownIntoJoinChildren},
		{"R3-project-compose", ruleR3ProjectCompose},
	}
	return rw.Rewrite(rel)
}
