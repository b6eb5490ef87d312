package plan

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// testDB builds a planner over three tables: big (indexed key, 10000
// rows, v = 2k), small (100 rows, v = 3k) and mid (4000 rows, v = 5k), the
// last two unindexed.
func testDB(t *testing.T) (*Planner, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	mk := func(name string, rows int, indexed bool, mul int64) {
		meta := &catalog.Table{Name: name, Cols: []catalog.Column{
			{Name: "k", Type: sqltypes.KindInt},
			{Name: "v", Type: sqltypes.KindInt},
		}}
		if indexed {
			meta.PKCols = []string{"k"}
		}
		if err := cat.AddTable(meta); err != nil {
			t.Fatal(err)
		}
		tab, err := store.CreateTable(meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			tab.Append(storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i) * mul)})
		}
	}
	mk("big", 10000, true, 2)
	mk("small", 100, false, 3)
	mk("mid", 4000, false, 5)
	interp := exec.NewInterp(cat, true)
	return New(cat, store, interp), cat
}

func scanOf(cat *catalog.Catalog, name, alias string) *algebra.Scan {
	meta, _ := cat.Table(name)
	s := &algebra.Scan{Table: name, Alias: alias}
	for _, c := range meta.Cols {
		s.Cols = append(s.Cols, algebra.Column{Qual: alias, Name: c.Name, Type: c.Type})
	}
	return s
}

func TestIndexLookupSelection(t *testing.T) {
	p, cat := testDB(t)
	sel := &algebra.Select{
		Pred: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "b", Name: "k"},
			R: &algebra.Const{Val: sqltypes.NewInt(7)}},
		In: scanOf(cat, "big", "b"),
	}
	node, choices, _, err := p.BuildExplain(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) == 0 || !strings.Contains(choices[0], "IndexLookup(big.k)") {
		t.Errorf("expected index lookup, got %v", choices)
	}
	rows, err := exec.Drain(node, exec.NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("rows = %d", len(rows))
	}
	if v, _ := rows[0][1].AsInt(); v != 14 {
		t.Errorf("v = %v", rows[0][1])
	}
}

func TestSelectionWithParamUsesIndex(t *testing.T) {
	p, cat := testDB(t)
	sel := &algebra.Select{
		Pred: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "b", Name: "k"},
			R: &algebra.ParamRef{Name: "key"}},
		In: scanOf(cat, "big", "b"),
	}
	node, choices, _, err := p.BuildExplain(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) == 0 || !strings.Contains(choices[0], "IndexLookup") {
		t.Fatalf("parameterized equality should probe the index: %v", choices)
	}
	ctx := exec.NewCtx(nil)
	ctx.Set("key", sqltypes.NewInt(42))
	rows, err := exec.Drain(node, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestJoinChoosesIndexNLJoin(t *testing.T) {
	p, cat := testDB(t)
	// small ⋈ big on k: the right side is large and indexed, the left tiny:
	// index nested loops should win.
	j := &algebra.Join{Kind: algebra.InnerJoin,
		Cond: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "s", Name: "k"},
			R: &algebra.ColRef{Qual: "b", Name: "k"}},
		L: scanOf(cat, "small", "s"),
		R: scanOf(cat, "big", "b"),
	}
	node, choices, _, err := p.BuildExplain(j)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(choices, ";")
	if !strings.Contains(joined, "IndexNLJoin") {
		t.Errorf("expected index nested loops, got %v", choices)
	}
	rows, err := exec.Drain(node, exec.NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestJoinChoosesHashJoinWithoutIndex(t *testing.T) {
	p, cat := testDB(t)
	// big ⋈ small on columns neither side indexes.
	j := &algebra.Join{Kind: algebra.InnerJoin,
		Cond: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "b", Name: "v"},
			R: &algebra.ColRef{Qual: "s", Name: "k"}},
		L: scanOf(cat, "big", "b"),
		R: scanOf(cat, "small", "s"),
	}
	_, choices, _, err := p.BuildExplain(j)
	if err != nil {
		t.Fatal(err)
	}
	if want := "HashJoin(inner) [l=10000 r=100]"; strings.Join(choices, ";") != want {
		t.Errorf("choices = %v, want [%s]", choices, want)
	}
}

// eqJoin joins two scans on l.k = r.k.
func eqJoin(l, r algebra.Rel, lq, rq string) *algebra.Join {
	return &algebra.Join{Kind: algebra.InnerJoin,
		Cond: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: lq, Name: "k"},
			R: &algebra.ColRef{Qual: rq, Name: "k"}},
		L: l, R: r}
}

// sortedRows renders rows as sorted strings for order-insensitive
// comparison.
func sortedRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestJoinCommutesToLeftIndex: big ⋈ small with only big indexed probes
// big's index once per small row, and returns what the hash join returns,
// big's columns first.
func TestJoinCommutesToLeftIndex(t *testing.T) {
	p, cat := testDB(t)
	j := eqJoin(scanOf(cat, "big", "b"), scanOf(cat, "small", "s"), "b", "s")
	node, choices, _, err := p.BuildExplain(j)
	if err != nil {
		t.Fatal(err)
	}
	if want := "IndexNLJoin(big.k) [l=100 r=10000]"; strings.Join(choices, ";") != want {
		t.Fatalf("choices = %v, want [%s]", choices, want)
	}
	if got, want := fmt.Sprint(node.Schema()), fmt.Sprint(j.Schema()); got != want {
		t.Fatalf("schema = %s, want %s", got, want)
	}
	got, err := exec.Drain(node, exec.NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	// The same join planned without the index: probes cost more than any
	// hash join.
	hp := *p
	hp.Cost.ProbeCost = 1e12
	hash, choices, _, err := hp.BuildExplain(j)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.Join(choices, ";"), "HashJoin") {
		t.Fatalf("reference plan = %v, want a hash join", choices)
	}
	want, err := exec.Drain(hash, exec.NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || fmt.Sprint(sortedRows(got)) != fmt.Sprint(sortedRows(want)) {
		t.Fatalf("commuted rows differ from the hash join's:\n%v\n%v", sortedRows(got), sortedRows(want))
	}
	for _, r := range got {
		if k, _ := r[0].AsInt(); r[1].Int() != 2*k || r[3].Int() != 3*k {
			t.Fatalf("row %v: want big's (k, 2k) before small's (k, 3k)", r)
		}
	}
}

// TestJoinLargeOuterKeepsHashJoin: the index join is charged for the
// matches it fetches, so probing big once per mid row (4 000 probes,
// 4 000 matches) loses to hashing mid, though the probes alone would win.
func TestJoinLargeOuterKeepsHashJoin(t *testing.T) {
	p, cat := testDB(t)
	j := eqJoin(scanOf(cat, "big", "b"), scanOf(cat, "mid", "m"), "b", "m")
	_, choices, _, err := p.BuildExplain(j)
	if err != nil {
		t.Fatal(err)
	}
	if want := "HashJoin(inner) [l=10000 r=4000]"; strings.Join(choices, ";") != want {
		t.Errorf("choices = %v, want [%s]", choices, want)
	}
	if probes, hash := 4000*p.Cost.ProbeCost, 10000+p.Cost.HashBuildRow*4000; probes >= hash {
		t.Fatalf("probe cost %v must be under the hash cost %v for this case to test the fetch term", probes, hash)
	}
}

// TestJoinAmbiguousColumnsKeepOrder: when an output column cannot be named
// without ambiguity, the join is not commuted (no order-restoring
// projection could name it).
func TestJoinAmbiguousColumnsKeepOrder(t *testing.T) {
	p, cat := testDB(t)
	unqualified := &algebra.Project{In: scanOf(cat, "small", "s"), Cols: []algebra.ProjCol{
		{E: &algebra.ColRef{Qual: "s", Name: "k"}, As: "k"},
		{E: &algebra.ColRef{Qual: "s", Name: "v"}, As: "w"},
	}}
	for name, j := range map[string]*algebra.Join{
		"no qualifier":    eqJoin(scanOf(cat, "big", "b"), unqualified, "b", ""),
		"identical names": eqJoin(scanOf(cat, "big", "x"), scanOf(cat, "small", "x"), "x", "x"),
	} {
		node, choices, _, err := p.BuildExplain(j)
		if err != nil {
			t.Fatal(err)
		}
		if want := "HashJoin(inner) [l=10000 r=100]"; strings.Join(choices, ";") != want {
			t.Errorf("%s: choices = %v, want [%s]", name, choices, want)
		}
		rows, err := exec.Drain(node, exec.NewCtx(nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 100 || rows[0][1].Int() != 2*rows[0][0].Int() {
			t.Errorf("%s: %d rows, first %v", name, len(rows), rows[0])
		}
	}
}

func TestJoinWithoutEquiUsesNLJoin(t *testing.T) {
	p, cat := testDB(t)
	j := &algebra.Join{Kind: algebra.InnerJoin,
		Cond: &algebra.Cmp{Op: sqltypes.CmpLT,
			L: &algebra.ColRef{Qual: "s", Name: "k"},
			R: &algebra.ColRef{Qual: "s2", Name: "k"}},
		L: scanOf(cat, "small", "s"),
		R: scanOf(cat, "small", "s2"),
	}
	_, choices, _, err := p.BuildExplain(j)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(choices, ";"), "NLJoin") {
		t.Errorf("expected nested loops, got %v", choices)
	}
}

func TestRangeSelectivityEstimate(t *testing.T) {
	p, cat := testDB(t)
	// k <= 999 over big (keys 0..9999): expect roughly 10% estimate.
	sel := &algebra.Select{
		Pred: &algebra.Cmp{Op: sqltypes.CmpLE,
			L: &algebra.ColRef{Qual: "b", Name: "k"},
			R: &algebra.Const{Val: sqltypes.NewInt(999)}},
		In: scanOf(cat, "big", "b"),
	}
	est := p.Estimate(sel)
	if est < 500 || est > 2000 {
		t.Errorf("range estimate = %.0f, want ~1000", est)
	}
	// Reversed literal-first orientation must estimate the same way.
	rev := &algebra.Select{
		Pred: &algebra.Cmp{Op: sqltypes.CmpGE,
			L: &algebra.Const{Val: sqltypes.NewInt(999)},
			R: &algebra.ColRef{Qual: "b", Name: "k"}},
		In: scanOf(cat, "big", "b"),
	}
	estRev := p.Estimate(rev)
	if estRev < 500 || estRev > 2000 {
		t.Errorf("reversed range estimate = %.0f, want ~1000", estRev)
	}
	// A range closed on both sides is one interval, not two independent
	// halves: k >= 500 and k <= 509 holds 10 integer keys, where the
	// product of its one-sided fractions estimates about 480 rows.
	ge := func(l, r algebra.Expr) algebra.Expr { return &algebra.Cmp{Op: sqltypes.CmpGE, L: l, R: r} }
	le := func(l, r algebra.Expr) algebra.Expr { return &algebra.Cmp{Op: sqltypes.CmpLE, L: l, R: r} }
	k := &algebra.ColRef{Qual: "b", Name: "k"}
	c500, c509 := &algebra.Const{Val: sqltypes.NewInt(500)}, &algebra.Const{Val: sqltypes.NewInt(509)}
	for name, pred := range map[string]algebra.Expr{
		"column-first":   &algebra.Logic{Op: algebra.LogicAnd, L: ge(k, c500), R: le(k, c509)},
		"constant-first": &algebra.Logic{Op: algebra.LogicAnd, L: le(c500, k), R: ge(c509, k)},
	} {
		est := p.Estimate(&algebra.Select{Pred: pred, In: scanOf(cat, "big", "b")})
		if est < 9 || est > 11 {
			t.Errorf("%s closed range estimate = %.1f, want ~10", name, est)
		}
	}
}

func TestEqualityEstimateUsesDistinct(t *testing.T) {
	p, cat := testDB(t)
	sel := &algebra.Select{
		Pred: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "b", Name: "k"},
			R: &algebra.Const{Val: sqltypes.NewInt(5)}},
		In: scanOf(cat, "big", "b"),
	}
	est := p.Estimate(sel)
	if est > 5 {
		t.Errorf("equality on unique key should estimate ~1 row, got %.1f", est)
	}
}

func TestApplyPlanExecutesCorrelated(t *testing.T) {
	p, cat := testDB(t)
	// small A× σ_{big.k = small.k}(big): correlated evaluation.
	inner := &algebra.Select{
		Pred: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "b", Name: "k"},
			R: &algebra.ColRef{Qual: "s", Name: "k"}},
		In: scanOf(cat, "big", "b"),
	}
	a := &algebra.Apply{Kind: algebra.CrossJoin, L: scanOf(cat, "small", "s"), R: inner}
	node, err := p.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(node, exec.NewCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestApplyMergeRejected(t *testing.T) {
	p, _ := testDB(t)
	am := &algebra.ApplyMerge{L: &algebra.Single{}, R: &algebra.Single{}}
	if _, err := p.Build(am); err == nil {
		t.Fatal("ApplyMerge must be rejected by the planner")
	}
}
