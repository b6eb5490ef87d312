package plan

import (
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// testDB builds a planner over two tables: big (indexed key, 10000 rows)
// and small (100 rows).
func testDB(t *testing.T) (*Planner, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	mk := func(name string, rows int, indexed bool) {
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
			tab.Append(storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 2))})
		}
	}
	mk("big", 10000, true)
	mk("small", 100, false)
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
	// big ⋈ small on small's un-indexed side.
	j := &algebra.Join{Kind: algebra.InnerJoin,
		Cond: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "b", Name: "k"},
			R: &algebra.ColRef{Qual: "s", Name: "k"}},
		L: scanOf(cat, "big", "b"),
		R: scanOf(cat, "small", "s"),
	}
	_, choices, _, err := p.BuildExplain(j)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(choices, ";")
	if !strings.Contains(joined, "HashJoin") {
		t.Errorf("expected hash join, got %v", choices)
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
