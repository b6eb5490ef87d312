package core

import (
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

func testRewriter() *Rewriter { return NewRewriter(catalog.New()) }

func scanT(alias string, cols ...string) *algebra.Scan {
	s := &algebra.Scan{Table: "t_" + alias, Alias: alias}
	for _, c := range cols {
		s.Cols = append(s.Cols, algebra.Column{Qual: alias, Name: c, Type: sqltypes.KindInt})
	}
	return s
}

func col(qual, name string) *algebra.ColRef { return &algebra.ColRef{Qual: qual, Name: name} }

func intC(v int64) *algebra.Const { return &algebra.Const{Val: sqltypes.NewInt(v)} }

func eq(l, r algebra.Expr) *algebra.Cmp { return &algebra.Cmp{Op: sqltypes.CmpEQ, L: l, R: r} }

// ---------------------------------------------------------------------------
// Table II rules
// ---------------------------------------------------------------------------

func TestRuleR1(t *testing.T) {
	r := scanT("r", "a")
	if out, ok := ruleR1ApplySingle(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: &algebra.Single{}}); !ok || out != algebra.Rel(r) {
		t.Error("r A× S should be r")
	}
	if out, ok := ruleR1ApplySingle(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: &algebra.Single{}, R: r}); !ok || out != algebra.Rel(r) {
		t.Error("S A× r should be r")
	}
	// Not for semijoin.
	if _, ok := ruleR1ApplySingle(testRewriter(), &algebra.Apply{Kind: algebra.SemiJoin, L: r, R: &algebra.Single{}}); ok {
		t.Error("R1 must not fire for semijoin")
	}
	// Not with binds pending.
	a := &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: &algebra.Single{},
		Binds: []algebra.Bind{{Param: "p", Arg: col("r", "a")}}}
	if _, ok := ruleR1ApplySingle(testRewriter(), a); ok {
		t.Error("R1 must not fire while binds remain")
	}
}

func TestRuleR2(t *testing.T) {
	// r AM Π_{a+1 as a}(S)  →  Π_{(a+1) as a, b}(r)
	r := scanUnqual("a", "b")
	am := &algebra.ApplyMerge{
		Assigns: []algebra.MergeAssign{{Target: "a", Source: "a"}},
		L:       r,
		R: &algebra.Project{Cols: []algebra.ProjCol{{
			E: &algebra.Arith{Op: sqltypes.OpAdd, L: col("", "a"), R: intC(1)}, As: "a"}},
			In: &algebra.Single{}},
	}
	out, ok := ruleR2MergeProjectSingle(testRewriter(), am)
	if !ok {
		t.Fatal("R2 should fire")
	}
	p, ok := out.(*algebra.Project)
	if !ok || len(p.Cols) != 2 {
		t.Fatalf("R2 result: %s", algebra.Print(out))
	}
	if _, isArith := p.Cols[0].E.(*algebra.Arith); !isArith {
		t.Errorf("assigned column should carry the expression, got %s", p.Cols[0].E)
	}
	if ref, isRef := p.Cols[1].E.(*algebra.ColRef); !isRef || ref.Name != "b" {
		t.Errorf("unassigned column should pass through, got %s", p.Cols[1].E)
	}
}

// scanUnqual builds a relation with unqualified columns (variable chains).
func scanUnqual(cols ...string) algebra.Rel {
	pc := make([]algebra.ProjCol, len(cols))
	for i, c := range cols {
		pc[i] = algebra.ProjCol{E: intC(int64(i)), As: c}
	}
	return &algebra.Project{Cols: pc, In: &algebra.Single{}}
}

func TestRuleR3(t *testing.T) {
	inner := &algebra.Project{Cols: []algebra.ProjCol{
		{E: &algebra.Arith{Op: sqltypes.OpMul, L: col("r", "a"), R: intC(2)}, As: "x"},
	}, In: scanT("r", "a")}
	outer := &algebra.Project{Cols: []algebra.ProjCol{
		{E: &algebra.Arith{Op: sqltypes.OpAdd, L: col("", "x"), R: intC(1)}, As: "y"},
	}, In: inner}
	out, ok := ruleR3ProjectCompose(testRewriter(), outer)
	if !ok {
		t.Fatal("R3 should fire")
	}
	p := out.(*algebra.Project)
	if p.Cols[0].E.String() != "((r.a * 2) + 1)" {
		t.Errorf("composed expr = %s", p.Cols[0].E)
	}
	if _, isScan := p.In.(*algebra.Scan); !isScan {
		t.Errorf("inner projection should be gone")
	}
}

func TestRuleR4(t *testing.T) {
	// General AM over a non-Single right child becomes Π(r A× rename(e)).
	r := scanUnqual("v", "w")
	rhs := &algebra.GroupBy{Aggs: []algebra.AggCall{{Func: "sum", Args: []algebra.Expr{col("s", "x")}, As: "v"}},
		In: scanT("s", "x")}
	am := &algebra.ApplyMerge{L: r, R: rhs} // default assigns: common name "v"
	out, ok := ruleR4MergeRemoval(testRewriter(), am)
	if !ok {
		t.Fatal("R4 should fire")
	}
	p, isProj := out.(*algebra.Project)
	if !isProj {
		t.Fatalf("R4 result should be a projection:\n%s", algebra.Print(out))
	}
	if len(p.Cols) != 2 || p.Cols[0].As != "v" || p.Cols[1].As != "w" {
		t.Errorf("projection must preserve left schema order: %s", p.Describe())
	}
	apply, isApply := p.In.(*algebra.Apply)
	if !isApply || apply.Kind != algebra.LeftOuterJoin {
		t.Fatalf("R4 should produce a left-outer Apply (NULL-assigning AM semantics)")
	}
	// The inner outputs must be renamed to avoid capture.
	innerProj := apply.R.(*algebra.Project)
	if innerProj.Cols[0].As == "v" {
		t.Error("inner output should be alpha-renamed")
	}
}

func TestRuleR6Structure(t *testing.T) {
	// AMC whose predicate tests a variable the branches do not assign.
	in := scanUnqual("x", "y")
	pred := &algebra.Cmp{Op: sqltypes.CmpGT, L: col("", "y"), R: intC(0)}
	thenRel := &algebra.Project{Cols: []algebra.ProjCol{{E: intC(1), As: "x"}}, In: &algebra.Single{}}
	elseRel := &algebra.Project{Cols: []algebra.ProjCol{{E: intC(2), As: "x"}}, In: &algebra.Single{}}
	amc := &algebra.CondApplyMerge{Pred: pred, Then: thenRel, Else: elseRel, In: in}

	out, ok := ruleR6CondMergeUnion(testRewriter(), amc)
	if !ok {
		t.Fatal("R6 should fire")
	}
	am, isAM := out.(*algebra.ApplyMerge)
	if !isAM {
		t.Fatalf("R6 result should be ApplyMerge:\n%s", algebra.Print(out))
	}
	if _, isUnion := am.R.(*algebra.UnionAll); !isUnion {
		t.Fatalf("R6 inner should be a union")
	}
	if len(am.Assigns) != 1 || am.Assigns[0].Target != "x" {
		t.Errorf("assignments = %+v", am.Assigns)
	}
	// The branch outputs are alpha-renamed so the selections cannot
	// capture them.
	if am.Assigns[0].Source == "x" {
		t.Error("branch output should be renamed")
	}
}

func TestRuleR6BailsOnCapture(t *testing.T) {
	// Predicate references the assigned variable: σ above the branch would
	// see the new value; the rule must decline.
	in := scanUnqual("x")
	pred := &algebra.Cmp{Op: sqltypes.CmpGT, L: col("", "x"), R: intC(0)}
	thenRel := &algebra.Project{Cols: []algebra.ProjCol{{E: intC(1), As: "x"}}, In: &algebra.Single{}}
	amc := &algebra.CondApplyMerge{Pred: pred, Then: thenRel, In: in}
	if _, ok := ruleR6CondMergeUnion(testRewriter(), amc); ok {
		t.Error("R6 must bail when the predicate references a branch-bound name")
	}
}

func TestRuleR7(t *testing.T) {
	// Canonical R7 input: Π_{e1 as a}(σ_{p}(r)) ∪ Π_{e2 as a}(σ_{¬p}(r)).
	pred := &algebra.Cmp{Op: sqltypes.CmpGT, L: col("", "y"), R: intC(0)}
	mk := func(v int64, p algebra.Expr) *algebra.Project {
		return &algebra.Project{
			Cols: []algebra.ProjCol{{E: intC(v), As: "a"}},
			In:   &algebra.Select{Pred: p, In: &algebra.Single{}},
		}
	}
	union := &algebra.UnionAll{L: mk(1, pred), R: mk(2, &algebra.Not{E: pred})}
	out, ok := ruleR7UnionToCase(testRewriter(), union)
	if !ok {
		t.Fatal("R7 should fire on complementary selections")
	}
	proj := out.(*algebra.Project)
	if _, isCase := proj.Cols[0].E.(*algebra.Case); !isCase {
		t.Errorf("R7 should produce a conditional projection, got %s", proj.Cols[0].E)
	}
	// Non-complementary predicates must not fire.
	bad := &algebra.UnionAll{L: mk(1, pred), R: mk(2, pred)}
	if _, ok := ruleR7UnionToCase(testRewriter(), bad); ok {
		t.Error("R7 must require mutually exclusive predicates")
	}
}

func TestRuleR8(t *testing.T) {
	in := scanUnqual("level", "total")
	pred := &algebra.Cmp{Op: sqltypes.CmpGT, L: col("", "total"), R: intC(100)}
	thenRel := &algebra.Project{Cols: []algebra.ProjCol{{E: &algebra.Const{Val: sqltypes.NewString("Gold")}, As: "level"}}, In: &algebra.Single{}}
	amc := &algebra.CondApplyMerge{Pred: pred, Then: thenRel, In: in} // no else: keep value
	out, ok := ruleR8CondMergeScalar(testRewriter(), amc)
	if !ok {
		t.Fatal("R8 should fire")
	}
	p := out.(*algebra.Project)
	cse, isCase := p.Cols[0].E.(*algebra.Case)
	if !isCase {
		t.Fatalf("level should become CASE, got %s", p.Cols[0].E)
	}
	// Missing else branch keeps the existing value.
	if ref, isRef := cse.Else.(*algebra.ColRef); !isRef || ref.Name != "level" {
		t.Errorf("else arm should reference the old value, got %s", cse.Else)
	}
	if ref, isRef := p.Cols[1].E.(*algebra.ColRef); !isRef || ref.Name != "total" {
		t.Errorf("unassigned column should pass through, got %s", p.Cols[1].E)
	}
}

func TestRuleR9(t *testing.T) {
	r := scanT("r", "a")
	inner := &algebra.Select{
		Pred: eq(col("s", "x"), &algebra.ParamRef{Name: "p"}),
		In:   scanT("s", "x"),
	}
	a := &algebra.Apply{Kind: algebra.CrossJoin,
		Binds: []algebra.Bind{{Param: "p", Arg: col("r", "a")}}, L: r, R: inner}
	out, ok := ruleR9BindRemoval(testRewriter(), a)
	if !ok {
		t.Fatal("R9 should fire")
	}
	na := out.(*algebra.Apply)
	if len(na.Binds) != 0 {
		t.Error("binds should be gone")
	}
	if algebra.HasFreeParams(na.R) {
		t.Error("params should be substituted")
	}
	free := algebra.FreeRefs(na.R)
	if !free[algebra.Ref{Qual: "r", Name: "a"}] {
		t.Errorf("inner should now reference r.a: %v", free.Sorted())
	}
}

func TestRuleR5(t *testing.T) {
	// (Π_{a, a*2 as d}(r)) A× e where e uses only pass-through column a.
	r := scanT("r", "a")
	lproj := &algebra.Project{Cols: []algebra.ProjCol{
		{E: col("r", "a"), As: "a"},
		{E: &algebra.Arith{Op: sqltypes.OpMul, L: col("r", "a"), R: intC(2)}, As: "d"},
	}, In: r}
	inner := &algebra.Select{Pred: eq(col("s", "x"), col("", "a")), In: scanT("s", "x")}
	a := &algebra.Apply{Kind: algebra.CrossJoin, L: lproj, R: inner}
	out, ok := ruleR5ProjectPastApply(testRewriter(), a)
	if !ok {
		t.Fatal("R5 should fire")
	}
	p := out.(*algebra.Project)
	if _, isApply := p.In.(*algebra.Apply); !isApply {
		t.Fatalf("R5 should move the projection above the apply:\n%s", algebra.Print(out))
	}
	// e referencing the computed column d blocks the rule.
	innerBad := &algebra.Select{Pred: eq(col("s", "x"), col("", "d")), In: scanT("s", "x")}
	if _, ok := ruleR5ProjectPastApply(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: lproj, R: innerBad}); ok {
		t.Error("R5 must not fire when e uses a computed attribute")
	}
}

// ---------------------------------------------------------------------------
// Table I rules
// ---------------------------------------------------------------------------

func TestRuleK1(t *testing.T) {
	r := scanT("r", "a")
	e := scanT("s", "x") // uncorrelated
	out, ok := ruleK1K2ApplyToJoin(testRewriter(), &algebra.Apply{Kind: algebra.LeftOuterJoin, L: r, R: e})
	if !ok {
		t.Fatal("K1 should fire")
	}
	j := out.(*algebra.Join)
	if j.Kind != algebra.LeftOuterJoin || j.Cond != nil {
		t.Errorf("K1 result: %s", j.Describe())
	}
}

func TestRuleK2(t *testing.T) {
	r := scanT("r", "a")
	inner := &algebra.Select{Pred: eq(col("s", "x"), col("r", "a")), In: scanT("s", "x")}
	out, ok := ruleK1K2ApplyToJoin(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: inner})
	if !ok {
		t.Fatal("K2 should fire")
	}
	j := out.(*algebra.Join)
	if j.Kind != algebra.InnerJoin || j.Cond == nil {
		t.Errorf("K2 result: %s", j.Describe())
	}
	// Correlated below the selection blocks both K1 and K2.
	deepCorr := &algebra.Select{Pred: eq(col("s2", "y"), intC(1)),
		In: &algebra.Select{Pred: eq(col("s", "x"), col("r", "a")), In: scanT("s", "x")}}
	if _, ok := ruleK1K2ApplyToJoin(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: deepCorr}); ok {
		t.Error("K2 must not fire when the selection input is correlated")
	}
}

func TestRuleK3K4(t *testing.T) {
	r := scanT("r", "a")
	sel := &algebra.Select{Pred: eq(col("s", "x"), col("r", "a")), In: scanT("s", "x")}
	out, ok := ruleK3SelectPullup(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: sel})
	if !ok {
		t.Fatal("K3 should fire")
	}
	if _, isSel := out.(*algebra.Select); !isSel {
		t.Errorf("K3 should hoist the selection:\n%s", algebra.Print(out))
	}

	proj := &algebra.Project{Cols: []algebra.ProjCol{{E: col("s", "x"), As: "x2"}}, In: scanT("s", "x")}
	out4, ok := ruleK4ProjectPullup(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: proj})
	if !ok {
		t.Fatal("K4 should fire")
	}
	p := out4.(*algebra.Project)
	if len(p.Cols) != 2 { // r.a passthrough + x2
		t.Errorf("K4 should merge schemas: %s", p.Describe())
	}
}

func TestScalarAggDecorrelation(t *testing.T) {
	// r A× G_{sum(x) as v}(σ_{s.k = r.a}(s))  →  Π(r ⟕ (k G sum))
	r := scanT("r", "a")
	gb := &algebra.GroupBy{
		Aggs: []algebra.AggCall{{Func: "sum", Args: []algebra.Expr{col("s", "x")}, As: "v"}},
		In: &algebra.Select{Pred: eq(col("s", "k"), col("r", "a")),
			In: scanT("s", "k", "x")},
	}
	out, ok := ruleScalarAggDecorrelate(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: gb})
	if !ok {
		t.Fatal("scalar-agg decorrelation should fire")
	}
	s := algebra.Print(out)
	for _, want := range []string{"Join(leftouter)", "GroupBy[s.k]", "sum(s.x) AS v"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestScalarAggDecorrelationCountBug(t *testing.T) {
	r := scanT("r", "a")
	gb := &algebra.GroupBy{
		Aggs: []algebra.AggCall{{Func: "count", As: "c"}},
		In: &algebra.Select{Pred: eq(col("s", "k"), col("r", "a")),
			In: scanT("s", "k")},
	}
	out, ok := ruleScalarAggDecorrelate(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: gb})
	if !ok {
		t.Fatal("rule should fire")
	}
	if !strings.Contains(algebra.Print(out), "coalesce") {
		t.Errorf("COUNT must be wrapped in coalesce to avoid the count bug:\n%s", algebra.Print(out))
	}
}

func TestScalarAggDecorrelationEquivalenceSubstitution(t *testing.T) {
	// The aggregate argument references the outer column; substitution via
	// the equality pair must make the inner side self-contained.
	r := scanT("r", "a")
	gb := &algebra.GroupBy{
		Aggs: []algebra.AggCall{{Func: "sum", Args: []algebra.Expr{
			&algebra.Arith{Op: sqltypes.OpMul, L: col("s", "x"), R: col("r", "a")},
		}, As: "v"}},
		In: &algebra.Select{Pred: eq(col("s", "k"), col("r", "a")),
			In: scanT("s", "k", "x")},
	}
	out, ok := ruleScalarAggDecorrelate(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: gb})
	if !ok {
		t.Fatal("rule should fire with substitutable correlation")
	}
	if strings.Contains(algebra.Print(out), "sum((s.x * r.a))") {
		t.Errorf("outer reference should have been substituted:\n%s", algebra.Print(out))
	}
	if !strings.Contains(algebra.Print(out), "sum((s.x * s.k))") {
		t.Errorf("expected substituted aggregate argument:\n%s", algebra.Print(out))
	}
}

func TestScalarAggDecorrelationBailsOnNonEquality(t *testing.T) {
	r := scanT("r", "a")
	gb := &algebra.GroupBy{
		Aggs: []algebra.AggCall{{Func: "sum", Args: []algebra.Expr{col("s", "x")}, As: "v"}},
		In: &algebra.Select{Pred: &algebra.Cmp{Op: sqltypes.CmpGT, L: col("s", "k"), R: col("r", "a")},
			In: scanT("s", "k", "x")},
	}
	if _, ok := ruleScalarAggDecorrelate(testRewriter(), &algebra.Apply{Kind: algebra.CrossJoin, L: r, R: gb}); ok {
		t.Error("non-equality correlation must not decorrelate")
	}
}

func TestExistsToApply(t *testing.T) {
	r := scanT("r", "a")
	inner := &algebra.Select{Pred: eq(col("s", "x"), col("r", "a")), In: scanT("s", "x")}
	sel := &algebra.Select{Pred: &algebra.Exists{Rel: inner}, In: r}
	out, ok := ruleExistsToApply(testRewriter(), sel)
	if !ok {
		t.Fatal("exists-to-apply should fire")
	}
	a := out.(*algebra.Apply)
	if a.Kind != algebra.SemiJoin {
		t.Errorf("EXISTS should become semijoin apply, got %s", a.Kind)
	}
	selNeg := &algebra.Select{Pred: &algebra.Exists{Neg: true, Rel: inner}, In: r}
	outNeg, _ := ruleExistsToApply(testRewriter(), selNeg)
	if outNeg.(*algebra.Apply).Kind != algebra.AntiJoin {
		t.Error("NOT EXISTS should become antijoin apply")
	}
}

func TestFixpointTerminates(t *testing.T) {
	// A chain of nested applies and merges must reach a fixpoint within the
	// pass budget.
	r := scanT("r", "a")
	var rel algebra.Rel = r
	for i := 0; i < 10; i++ {
		rel = &algebra.Apply{Kind: algebra.CrossJoin, L: rel,
			R: &algebra.Project{Cols: []algebra.ProjCol{{E: intC(int64(i)), As: "x" + string(rune('a'+i))}}, In: &algebra.Single{}}}
	}
	rw := testRewriter()
	out := rw.Rewrite(rel)
	if algebra.HasApply(out) {
		t.Errorf("chain should fully simplify:\n%s", algebra.Print(out))
	}
}

func TestHoistCorrelatedSelect(t *testing.T) {
	corr := &algebra.Select{Pred: eq(col("c", "k"), col("outer", "k")), In: scanT("c", "k")}
	j := &algebra.Join{Kind: algebra.CrossJoin, L: corr, R: scanT("d", "m")}
	out, ok := ruleHoistCorrelatedSelect(testRewriter(), j)
	if !ok {
		t.Fatal("hoist should fire")
	}
	sel, isSel := out.(*algebra.Select)
	if !isSel {
		t.Fatalf("expected hoisted selection:\n%s", algebra.Print(out))
	}
	if !strings.Contains(sel.Pred.String(), "outer.k") {
		t.Errorf("hoisted predicate = %s", sel.Pred)
	}
}

func TestPushdownIntoJoinChildren(t *testing.T) {
	j := &algebra.Join{Kind: algebra.InnerJoin,
		Cond: algebra.AndAll([]algebra.Expr{
			eq(col("a", "x"), col("b", "y")), // cross-side: stays
			eq(col("a", "x"), intC(5)),       // left-only: pushes
		}),
		L: scanT("a", "x"), R: scanT("b", "y")}
	out, ok := rulePushdownIntoJoinChildren(testRewriter(), j)
	if !ok {
		t.Fatal("pushdown should fire")
	}
	nj := out.(*algebra.Join)
	if _, isSel := nj.L.(*algebra.Select); !isSel {
		t.Errorf("left-only conjunct should be pushed:\n%s", algebra.Print(out))
	}
	if nj.Cond == nil || !strings.Contains(nj.Cond.String(), "b.y") {
		t.Errorf("join conjunct should remain: %v", nj.Cond)
	}
}

// ---------------------------------------------------------------------------
// key-restrict-across-join
// ---------------------------------------------------------------------------

func cmpOp(op sqltypes.CmpOp, l, r algebra.Expr) *algebra.Cmp {
	return &algebra.Cmp{Op: op, L: l, R: r}
}

// sumByKey is G_{i.k; sum(i.v) AS s}(in).
func sumByKey(in algebra.Rel) *algebra.GroupBy {
	return &algebra.GroupBy{Keys: []*algebra.ColRef{col("i", "k")},
		Aggs: []algebra.AggCall{{Func: "sum", Args: []algebra.Expr{col("i", "v")}, As: "s"}},
		In:   in}
}

// restrictJoin is σ_pred(o) ⋈_{o.a = i.k} G_{i.k; sum(i.v)}(i), the shape K1/K2
// and GL-scalar-agg decorrelation leave behind.
func restrictJoin(kind algebra.JoinKind, pred algebra.Expr) *algebra.Join {
	return &algebra.Join{Kind: kind, Cond: eq(col("o", "a"), col("i", "k")),
		L: &algebra.Select{Pred: pred, In: scanT("o", "a", "b")},
		R: sumByKey(scanT("i", "k", "v"))}
}

// copiedRestriction returns the predicate the rule put under the group-by.
func copiedRestriction(t *testing.T, out algebra.Rel) string {
	t.Helper()
	j, ok := out.(*algebra.Join)
	if !ok {
		t.Fatalf("want a join:\n%s", algebra.Print(out))
	}
	sel, ok := j.R.(*algebra.GroupBy).In.(*algebra.Select)
	if !ok {
		t.Fatalf("want a selection under the group-by:\n%s", algebra.Print(out))
	}
	return sel.Pred.String()
}

func TestKeyRestrictAcrossJoinFires(t *testing.T) {
	between := algebra.AndAll([]algebra.Expr{
		cmpOp(sqltypes.CmpGE, col("o", "a"), intC(3)),
		cmpOp(sqltypes.CmpGT, intC(7), col("o", "a")), // constant on the left
		cmpOp(sqltypes.CmpNE, col("o", "b"), intC(1)), // not the join column
	})
	for _, kind := range []algebra.JoinKind{algebra.LeftOuterJoin, algebra.InnerJoin} {
		in := restrictJoin(kind, between)
		out, ok := ruleKeyRestrictAcrossJoin(testRewriter(), in)
		if !ok {
			t.Fatalf("%s: should fire", kind)
		}
		if got, want := copiedRestriction(t, out), "((i.k >= 3) AND (7 > i.k))"; got != want {
			t.Errorf("%s: copied %s, want %s", kind, got, want)
		}
		if j := out.(*algebra.Join); j.Kind != kind || j.L != in.L || j.Cond != in.Cond {
			t.Errorf("%s: the join and its outer side must stay:\n%s", kind, algebra.Print(out))
		}
		if err := checkFiring(in, out); err != nil {
			t.Error(err)
		}
	}
	// The equality may name the key first.
	in := restrictJoin(algebra.LeftOuterJoin, cmpOp(sqltypes.CmpEQ, col("o", "a"), intC(4)))
	in.Cond = eq(col("i", "k"), col("o", "a"))
	out, ok := ruleKeyRestrictAcrossJoin(testRewriter(), in)
	if !ok || copiedRestriction(t, out) != "(i.k = 4)" {
		t.Errorf("reversed equality: fired=%v\n%v", ok, out)
	}
}

func TestKeyRestrictAcrossJoinRefuses(t *testing.T) {
	onA := func(r algebra.Expr) algebra.Expr { return cmpOp(sqltypes.CmpLE, col("o", "a"), r) }
	subq := &algebra.Subquery{Rel: &algebra.Project{
		Cols: []algebra.ProjCol{{E: intC(5), As: "c"}}, In: &algebra.Single{}}}
	cases := map[string]algebra.Rel{
		// The paper_rewritten exp2 shape: the UDF's result and the key
		// restriction share one selection above the join.
		"restriction above the join": &algebra.Select{
			Pred: cmpOp(sqltypes.CmpGT, col("o", "a"), intC(-3)),
			In: &algebra.Join{Kind: algebra.LeftOuterJoin, Cond: eq(col("o", "a"), col("i", "k")),
				L: scanT("o", "a", "b"), R: sumByKey(scanT("i", "k", "v"))}},
		"UDF call":         restrictJoin(algebra.LeftOuterJoin, onA(&algebra.Call{Name: "f", Args: []algebra.Expr{intC(1)}})),
		"UDF of the key":   restrictJoin(algebra.LeftOuterJoin, cmpOp(sqltypes.CmpLE, &algebra.Call{Name: "f", Args: []algebra.Expr{col("o", "a")}}, intC(1))),
		"parameter":        restrictJoin(algebra.LeftOuterJoin, onA(&algebra.ParamRef{Name: "p"})),
		"subquery":         restrictJoin(algebra.LeftOuterJoin, onA(subq)),
		"other column":     restrictJoin(algebra.LeftOuterJoin, onA(col("o", "b"))),
		"non-join column":  restrictJoin(algebra.LeftOuterJoin, cmpOp(sqltypes.CmpLE, col("o", "b"), intC(5))),
		"not a comparison": restrictJoin(algebra.LeftOuterJoin, &algebra.IsNull{E: col("o", "a")}),
	}
	// The equality meets an aggregate, not a key.
	agg := restrictJoin(algebra.LeftOuterJoin, onA(intC(5)))
	agg.Cond = eq(col("o", "a"), col("", "s"))
	cases["non-key column"] = agg
	scalar := restrictJoin(algebra.LeftOuterJoin, onA(intC(5)))
	scalar.R = &algebra.GroupBy{Aggs: []algebra.AggCall{{Func: "count", As: "k"}}, In: scanT("i", "v")}
	scalar.Cond = eq(col("o", "a"), col("", "k"))
	cases["scalar group-by"] = scalar
	for _, kind := range []algebra.JoinKind{algebra.SemiJoin, algebra.AntiJoin, algebra.CrossJoin} {
		cases[kind.String()+" join"] = restrictJoin(kind, onA(intC(5)))
	}
	for name, rel := range cases {
		rw := testRewriter()
		rw.Rewrite(rel)
		for _, fired := range rw.Trace {
			if fired == "key-restrict-across-join" {
				t.Errorf("%s: must not fire:\n%s", name, algebra.Print(rel))
			}
		}
	}
}

func TestKeyRestrictAcrossJoinEstimateGate(t *testing.T) {
	// An estimator that sees no pruning refuses every copy; one that sees
	// pruning lets each falling conjunct through on its own.
	pred := algebra.AndAll([]algebra.Expr{
		cmpOp(sqltypes.CmpGT, col("o", "a"), intC(-3)),
		cmpOp(sqltypes.CmpLE, col("o", "a"), intC(15)),
	})
	flat := testRewriter()
	flat.Estimate = func(algebra.Rel) float64 { return 100 }
	if out, ok := ruleKeyRestrictAcrossJoin(flat, restrictJoin(algebra.LeftOuterJoin, pred)); ok {
		t.Errorf("no estimated pruning should mean no copy:\n%s", algebra.Print(out))
	}
	upper := testRewriter()
	upper.Estimate = func(r algebra.Rel) float64 {
		if s, ok := r.(*algebra.Select); ok && strings.Contains(s.Pred.String(), "<=") {
			return 15
		}
		return 100
	}
	out, ok := ruleKeyRestrictAcrossJoin(upper, restrictJoin(algebra.LeftOuterJoin, pred))
	if !ok || copiedRestriction(t, out) != "(i.k <= 15)" {
		t.Errorf("only the pruning conjunct should be copied: fired=%v\n%v", ok, out)
	}
}

func TestKeyRestrictAcrossJoinIdempotent(t *testing.T) {
	// Through a projection and through a join the copy is pushed down to
	// the scans; the rule must not copy it again.
	pred := algebra.AndAll([]algebra.Expr{
		cmpOp(sqltypes.CmpGE, col("o", "a"), intC(3)),
		cmpOp(sqltypes.CmpLE, col("o", "a"), intC(7)),
	})
	throughProject := restrictJoin(algebra.LeftOuterJoin, pred)
	throughProject.R = sumByKey(&algebra.Project{
		Cols: []algebra.ProjCol{{E: col("i", "k"), Qual: "i", As: "k"}, {E: col("i", "v"), Qual: "i", As: "v"}},
		In:   scanT("i", "k", "v")})
	throughJoin := restrictJoin(algebra.InnerJoin, pred)
	throughJoin.R = sumByKey(&algebra.Join{Kind: algebra.InnerJoin, Cond: eq(col("i", "k"), col("p", "k")),
		L: scanT("i", "k", "v"), R: scanT("p", "k")})
	for name, rel := range map[string]algebra.Rel{"project": throughProject, "join": throughJoin} {
		rw := testRewriter()
		out := rw.Rewrite(rel)
		fired := 0
		for _, r := range rw.Trace {
			if r == "key-restrict-across-join" {
				fired++
			}
		}
		printed := algebra.Print(out)
		if fired != 1 || strings.Count(printed, "(i.k >= 3)") != 1 || strings.Count(printed, "(i.k <= 7)") != 1 {
			t.Errorf("%s: %d firings, want 1 with each conjunct copied once:\n%s", name, fired, printed)
		}
		if _, still := out.(*algebra.Join).R.(*algebra.GroupBy).In.(*algebra.Select); still {
			t.Errorf("%s: the copy should have been pushed below the group-by's input:\n%s", name, printed)
		}
	}
}

func TestSanitizerCheckFiring(t *testing.T) {
	r := scanT("r", "a", "b")
	if err := checkFiring(r, &algebra.Select{Pred: eq(col("r", "a"), intC(1)), In: r}); err != nil {
		t.Errorf("a filter preserves the schema: %v", err)
	}
	if err := checkFiring(r, scanT("r", "a")); err == nil {
		t.Error("a lost column should be reported")
	}
	if err := checkFiring(r, scanT("s", "a", "b")); err == nil {
		t.Error("a changed qualifier should be reported")
	}
	if err := checkFiring(r, &algebra.Select{Pred: eq(col("r", "a"), col("x", "y")), In: r}); err == nil {
		t.Error("a new free reference should be reported")
	}
	floats := scanT("r", "a", "b")
	floats.Cols[1].Type = sqltypes.KindFloat
	if err := checkFiring(r, floats); err == nil {
		t.Error("a changed type should be reported")
	}
	floats.Cols[1].Type = sqltypes.KindNull
	if err := checkFiring(r, floats); err != nil {
		t.Errorf("KindNull is compatible with any type: %v", err)
	}
}
