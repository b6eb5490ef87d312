package sqlgen

import (
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
)

func scan(table, alias string, cols ...string) *algebra.Scan {
	out := &algebra.Scan{Table: table, Alias: alias}
	for _, c := range cols {
		out.Cols = append(out.Cols, algebra.Column{Qual: alias, Name: c, Type: sqltypes.KindInt})
	}
	return out
}

func TestGenerateScanProjectSelect(t *testing.T) {
	rel := &algebra.Project{
		Cols: []algebra.ProjCol{
			{E: &algebra.ColRef{Qual: "o", Name: "orderkey"}, As: "orderkey"},
			{E: &algebra.Arith{Op: sqltypes.OpMul,
				L: &algebra.ColRef{Qual: "o", Name: "totalprice"},
				R: &algebra.Const{Val: sqltypes.NewFloat(0.15)}}, As: "d"},
		},
		In: &algebra.Select{
			Pred: &algebra.Cmp{Op: sqltypes.CmpGT,
				L: &algebra.ColRef{Qual: "o", Name: "totalprice"},
				R: &algebra.Const{Val: sqltypes.NewInt(100)}},
			In: scan("orders", "o", "orderkey", "totalprice"),
		},
	}
	sql, err := Generate(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SELECT", "o.orderkey AS orderkey", "(o.totalprice * 0.15) AS d",
		"FROM orders o", "WHERE (o.totalprice > 100)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
}

func TestGenerateLeftOuterJoinGroupBy(t *testing.T) {
	// The Example 2 shape: customer LOJ (group-by over orders).
	gb := &algebra.GroupBy{
		Keys: []*algebra.ColRef{{Qual: "orders", Name: "custkey"}},
		Aggs: []algebra.AggCall{{Func: "sum",
			Args: []algebra.Expr{&algebra.ColRef{Qual: "orders", Name: "totalprice"}},
			As:   "totalbusiness"}},
		In: scan("orders", "orders", "custkey", "totalprice"),
	}
	rel := &algebra.Project{
		Cols: []algebra.ProjCol{
			{E: &algebra.ColRef{Qual: "c", Name: "custkey"}, As: "custkey"},
			{E: &algebra.Case{
				Whens: []algebra.CaseWhen{{
					Cond: &algebra.Cmp{Op: sqltypes.CmpGT,
						L: &algebra.ColRef{Name: "totalbusiness"},
						R: &algebra.Const{Val: sqltypes.NewInt(1000000)}},
					Then: &algebra.Const{Val: sqltypes.NewString("Platinum")},
				}},
				Else: &algebra.Const{Val: sqltypes.NewString("Regular")},
			}, As: "level"},
		},
		In: &algebra.Join{
			Kind: algebra.LeftOuterJoin,
			Cond: &algebra.Cmp{Op: sqltypes.CmpEQ,
				L: &algebra.ColRef{Qual: "c", Name: "custkey"},
				R: &algebra.ColRef{Qual: "orders", Name: "custkey"}},
			L: scan("customer", "c", "custkey", "name"),
			R: gb,
		},
	}
	sql, err := Generate(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LEFT OUTER JOIN", "GROUP BY", "sum(", "CASE WHEN", "'Platinum'"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
	// The derived table boundary must rename orders.custkey references.
	if strings.Contains(sql, "ON (c.custkey = orders.custkey)") {
		t.Errorf("join condition must reference the derived-table alias:\n%s", sql)
	}
}

func TestGenerateSemiAnti(t *testing.T) {
	inner := &algebra.Select{
		Pred: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "o", Name: "custkey"},
			R: &algebra.ColRef{Qual: "c", Name: "custkey"}},
		In: scan("orders", "o", "custkey"),
	}
	for _, kind := range []algebra.JoinKind{algebra.SemiJoin, algebra.AntiJoin} {
		rel := &algebra.Join{Kind: kind, L: scan("customer", "c", "custkey"), R: inner}
		sql, err := Generate(rel)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sql, "EXISTS") {
			t.Errorf("%v should render EXISTS:\n%s", kind, sql)
		}
		if kind == algebra.AntiJoin && !strings.Contains(sql, "NOT EXISTS") {
			t.Errorf("antijoin should render NOT EXISTS:\n%s", sql)
		}
	}
}

func TestGenerateRejectsApply(t *testing.T) {
	rel := &algebra.Apply{Kind: algebra.CrossJoin,
		L: scan("customer", "c", "custkey"), R: &algebra.Single{}}
	if _, err := Generate(rel); err == nil {
		t.Fatal("apply must be rejected")
	}
}

func TestGenerateLimitSortDistinct(t *testing.T) {
	rel := &algebra.Limit{N: 5, In: &algebra.Sort{
		Keys: []algebra.SortKey{{E: &algebra.ColRef{Qual: "c", Name: "custkey"}, Desc: true}},
		In: &algebra.Project{
			Cols:  []algebra.ProjCol{{E: &algebra.ColRef{Qual: "c", Name: "custkey"}, As: "custkey"}},
			Dedup: true,
			In:    scan("customer", "c", "custkey"),
		},
	}}
	sql, err := Generate(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DISTINCT", "ORDER BY", "DESC", "LIMIT 5"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
}

func TestGenerateUnionAll(t *testing.T) {
	p1 := &algebra.Project{Cols: []algebra.ProjCol{{E: &algebra.Const{Val: sqltypes.NewInt(1)}, As: "x"}}, In: &algebra.Single{}}
	p2 := &algebra.Project{Cols: []algebra.ProjCol{{E: &algebra.Const{Val: sqltypes.NewInt(2)}, As: "x"}}, In: &algebra.Single{}}
	sql, err := Generate(&algebra.UnionAll{L: p1, R: p2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "UNION ALL") {
		t.Errorf("missing UNION ALL:\n%s", sql)
	}
}

// TestGenerateFloatLiteralKeepsKind checks that a FLOAT constant with an
// integral value re-parses as a FLOAT: qty / 2.0 must not become the
// integer division qty / 2.
func TestGenerateFloatLiteralKeepsKind(t *testing.T) {
	rel := &algebra.Project{
		Cols: []algebra.ProjCol{
			{E: &algebra.Arith{Op: sqltypes.OpDiv,
				L: &algebra.ColRef{Qual: "l", Name: "qty"},
				R: &algebra.Const{Val: sqltypes.NewFloat(2)}}, As: "half"},
			{E: &algebra.Const{Val: sqltypes.NewFloat(3e6)}, As: "big"},
			{E: &algebra.Const{Val: sqltypes.NewInt(2)}, As: "two"},
		},
		In: scan("lineitem", "l", "qty"),
	}
	sql, err := Generate(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(l.qty / 2.0) AS half", "3e+06 AS big", "2 AS two"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
}

// TestGenerateDerivedTableNamesUnique checks that a derived table gives
// columns sharing a bare name distinct names, skipping names already taken,
// and that references from outside read the right one.
func TestGenerateDerivedTableNamesUnique(t *testing.T) {
	inner := &algebra.Join{Kind: algebra.LeftOuterJoin,
		L: scan("lineitem", "l", "partkey", "partkey_2"),
		R: scan("partcost", "pc", "partkey"),
		Cond: &algebra.Cmp{Op: sqltypes.CmpEQ,
			L: &algebra.ColRef{Qual: "l", Name: "partkey"},
			R: &algebra.ColRef{Qual: "pc", Name: "partkey"}}}
	rel := &algebra.Project{
		Cols: []algebra.ProjCol{{E: &algebra.ColRef{Qual: "pc", Name: "partkey"}, As: "cost_key"}},
		In: &algebra.Join{Kind: algebra.InnerJoin, L: inner, R: scan("part", "p", "partkey"),
			Cond: &algebra.Cmp{Op: sqltypes.CmpEQ,
				L: &algebra.ColRef{Qual: "p", Name: "partkey"},
				R: &algebra.ColRef{Qual: "l", Name: "partkey"}}},
	}
	sql, err := Generate(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"l.partkey AS partkey,", "l.partkey_2 AS partkey_2,", "pc.partkey AS partkey_3",
		"d_1.partkey_3 AS cost_key", "(p.partkey = d_1.partkey)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
}
