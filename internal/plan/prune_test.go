package plan

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/exec"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// pruneDB builds a planner over o (orders: 600 rows, cust NULL every 41st
// row and beyond c's keys every 7th), c (customers: 400 rows, indexed on
// id; region NULL every 9th) and l (lines: 60 rows, unindexed). o and c
// share the column name v.
func pruneDB(t *testing.T) (*Planner, *catalog.Catalog) {
	t.Helper()
	script, err := parser.ParseScript(`
create table o (k int primary key, cust int, amt int, v int);
create table c (id int primary key, score int, v int, region int);
create table l (ok int, x int);`)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	store := storage.NewStore()
	for _, ct := range script.Tables {
		meta, err := cat.AddTableFromAST(ct)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.CreateTable(meta); err != nil {
			t.Fatal(err)
		}
	}
	i64 := func(v int) sqltypes.Value { return sqltypes.NewInt(int64(v)) }
	load := func(name string, n int, row func(i int) storage.Row) {
		tab, _ := store.Table(name)
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if err := tab.Append(rows...); err != nil {
			t.Fatal(err)
		}
	}
	load("o", 600, func(i int) storage.Row {
		cust := i64(i * 13 % 400)
		switch {
		case i%41 == 0:
			cust = sqltypes.Null
		case i%7 == 0:
			cust = i64(1000 + i) // no such customer
		}
		return storage.Row{i64(i), cust, i64(i * 37 % 500), i64(i % 11)}
	})
	load("c", 400, func(i int) storage.Row {
		region := i64(i % 5)
		if i%9 == 0 {
			region = sqltypes.Null
		}
		return storage.Row{i64(i), i64(i * 7 % 300), i64(i % 13), region}
	})
	load("l", 60, func(i int) storage.Row { return storage.Row{i64(i * 7 % 500), i64(i)} })
	return New(cat, store, exec.NewInterp(cat, true)), cat
}

// pruneExecutors are the three executor settings every pruning case runs on.
var pruneExecutors = []struct {
	name        string
	vectorized  bool
	parallelism int
}{{"row", false, 0}, {"vectorized", true, 0}, {"parallel-4", true, 4}}

// unprunedBuild plans rel as Build does, without the pruning pass.
func (p *Planner) unprunedBuild(rel algebra.Rel) (exec.Node, error) {
	f := p.fork()
	n, err := f.build(rel)
	if err != nil {
		return nil, err
	}
	n, _ = f.finalize(n)
	return n, nil
}

// rowStrings renders rows for comparison, sorted unless ordered.
func rowStrings(rows []storage.Row, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// hasNullLast reports whether some row's last column is NULL.
func hasNullLast(rows []storage.Row) bool {
	for _, r := range rows {
		if r[len(r)-1].IsNull() {
			return true
		}
	}
	return false
}

// joinWidths lists each join's emitted and full column counts in n's plan,
// and fails when a projection of plain columns sits directly on a join:
// such a projection folds into the join.
func joinWidths(t *testing.T, n exec.Node) []string {
	t.Helper()
	var out []string
	var walk func(n exec.Node)
	walk = func(n exec.Node) {
		label := exec.PlanLabel(n)
		if strings.Contains(label, "Join(") || strings.HasPrefix(label, "Apply(") {
			out = append(out, label)
		}
		for _, c := range exec.PlanChildren(n) {
			if strings.HasPrefix(label, "Project") || strings.HasPrefix(label, "BatchProject") {
				cl := exec.PlanLabel(c)
				if (strings.Contains(cl, "Join(") || strings.HasPrefix(cl, "Apply(")) && !strings.Contains(label, "distinct") {
					if _, ok := columnOnly(n); ok {
						t.Errorf("column-only %s sits on %s", label, cl)
					}
				}
			}
			walk(c)
		}
	}
	walk(n)
	return out
}

// columnOnly reports whether a built projection only copies columns: its
// output names every column of its input at most once, in some order.
// Projections built from expressions are opaque, so this checks the
// schema: the fold leaves no projection whose every output column is an
// input column by name.
func columnOnly(n exec.Node) (exec.Node, bool) {
	ch := exec.PlanChildren(n)
	if len(ch) != 1 {
		return nil, false
	}
	in := ch[0].Schema()
	for _, c := range n.Schema() {
		if !algebra.HasRef(in, c.Qual, c.Name) {
			return nil, false
		}
	}
	return ch[0], true
}

// TestPruneMatchesUnprunedPlan runs each pruning edge case on the row, the
// vectorized and the parallel vectorized executor, and compares the result
// with the same statement planned without the pruning pass. want lists the
// row executor's join labels, which pin how far each join narrowed.
func TestPruneMatchesUnprunedPlan(t *testing.T) {
	defer func(n int) { exec.MorselRows = n }(exec.MorselRows)
	exec.MorselRows = 64 // several morsels per table at parallelism 4
	p, cat := pruneDB(t)
	query := func(sql string) algebra.Rel {
		sel, err := parser.ParseQuery(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rel, err := core.NewAlgebrizer(cat).Query(sel)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return core.Normalize(cat, rel)
	}
	// The parser has no UNION ALL; the rewrite rules build it.
	union := &algebra.UnionAll{
		L: query("select o.k, c.score from o join c on o.cust = c.id where c.region = 1"),
		R: query("select c.id, l.x from c join l on c.id = l.ok"),
	}
	// Normalize leaves EXISTS and IN as subqueries; the rewrite rules build
	// semi and anti joins.
	ref := func(q, n string) *algebra.ColRef { return &algebra.ColRef{Qual: q, Name: n} }
	semi := func(kind algebra.JoinKind, cond algebra.Expr, r algebra.Rel, cols ...string) algebra.Rel {
		j := &algebra.Join{Kind: kind, Cond: cond, L: scanOf(cat, "o", "o"), R: r}
		if len(cols) == 0 {
			return &algebra.GroupBy{Aggs: []algebra.AggCall{{Func: "count", As: "n"}}, In: j}
		}
		var pc []algebra.ProjCol
		for _, c := range cols {
			pc = append(pc, algebra.ProjCol{E: ref("o", c), As: c})
		}
		return &algebra.Project{Cols: pc, In: j}
	}
	custIsID := &algebra.Cmp{Op: sqltypes.CmpEQ, L: ref("o", "cust"), R: ref("c", "id")}
	scoreOverAmt := algebra.AndAll([]algebra.Expr{custIsID,
		&algebra.Cmp{Op: sqltypes.CmpGT, L: ref("c", "score"), R: ref("o", "amt")}})
	region2 := &algebra.Select{Pred: &algebra.Cmp{Op: sqltypes.CmpEQ, L: ref("c", "region"),
		R: &algebra.Const{Val: sqltypes.NewInt(2)}}, In: scanOf(cat, "c", "c")}
	cases := []struct {
		name    string
		rel     algebra.Rel
		ordered bool
		want    []string // the row executor's join labels
	}{
		{"distinct_keeps_every_column",
			query("select count(*) from (select distinct o.cust, c.region from o join c on o.cust = c.id) d"),
			false, []string{"HashJoin(inner) cols=2/8"}},
		{"count_star_reads_nothing",
			query("select count(*) from o join c on o.cust = c.id"),
			false, []string{"HashJoin(inner) cols=1/8"}},
		{"count_star_index_join",
			query("select count(*) from o join c on o.cust = c.id where o.k < 60"),
			false, []string{"Apply(inner) cols=1/8"}},
		{"semi_join_residual",
			semi(algebra.SemiJoin, scoreOverAmt, scanOf(cat, "c", "c"), "k"),
			false, []string{"HashJoin(semi) cols=1/4"}},
		{"anti_join",
			semi(algebra.AntiJoin, custIsID, region2, "k", "amt"),
			false, []string{"HashJoin(anti) cols=2/4"}},
		{"count_star_over_semi_join",
			semi(algebra.SemiJoin, custIsID, region2),
			false, []string{"HashJoin(semi) cols=1/4"}},
		{"correlated_apply",
			&algebra.Project{Cols: []algebra.ProjCol{{E: ref("o", "k"), As: "k"}, {E: ref("l", "x"), As: "x"}},
				In: &algebra.Apply{Kind: algebra.InnerJoin, L: scanOf(cat, "o", "o"),
					R: &algebra.Select{Pred: &algebra.Cmp{Op: sqltypes.CmpEQ, L: ref("l", "ok"), R: ref("o", "amt")},
						In: scanOf(cat, "l", "l")}}},
			false, []string{"Apply(inner) cols=2/6"}},
		{"correlated_left_apply_with_bind",
			&algebra.Project{Cols: []algebra.ProjCol{{E: ref("l", "x"), As: "x"}},
				In: &algebra.Apply{Kind: algebra.LeftOuterJoin, L: scanOf(cat, "o", "o"),
					Binds: []algebra.Bind{{Param: "amt", Arg: ref("o", "amt")}},
					R: &algebra.Select{Pred: &algebra.Cmp{Op: sqltypes.CmpEQ, L: ref("l", "ok"), R: &algebra.ParamRef{Name: "amt"}},
						In: scanOf(cat, "l", "l")}}},
			false, []string{"Apply(leftouter) cols=1/6"}},
		{"exists_subquery",
			query("select o.k from o where exists (select * from c where c.id = o.cust and c.score > 100)"),
			false, nil},
		{"residual_reads_unprojected_columns",
			query("select o.k from o join c on o.cust = c.id and c.score > o.amt"),
			false, []string{"HashJoin(inner) cols=1/8"}},
		{"index_join_residual",
			query("select o.k from o join c on o.cust = c.id and c.score > o.amt where o.k < 60"),
			false, []string{"Apply(inner) cols=1/8"}},
		{"correlated_subquery_reads_join_column",
			query(`select o.k, (select count(*) from l where l.ok = o.amt and l.x < c.score) as n
			       from o join c on o.cust = c.id`),
			false, []string{"HashJoin(inner) cols=3/8"}},
		{"union_all_over_joins", union,
			false, []string{"HashJoin(inner) cols=2/8", "Apply(inner) cols=2/6"}},
		{"count_star_over_union_all",
			&algebra.GroupBy{Aggs: []algebra.AggCall{{Func: "count", As: "n"}}, In: union},
			false, []string{"HashJoin(inner) cols=2/8", "Apply(inner) cols=2/6"}},
		{"repeat_and_rename_one_column",
			query("select o.k as a, o.k as b, c.v as v from o join c on o.cust = c.id"),
			false, []string{"HashJoin(inner) cols=3/8"}},
		{"same_named_columns",
			query("select o.v, c.v, amt from o join c on o.cust = c.id where score > 10 and o.v <> c.v"),
			false, []string{"HashJoin(inner) cols=3/8"}},
		{"left_join_right_columns_only",
			query("select c.region, c.score from o left join c on o.cust = c.id"),
			false, []string{"HashJoin(leftouter) cols=2/8"}},
		{"left_index_join_right_columns_only",
			query("select c.score from l left join c on l.ok = c.id"),
			false, []string{"Apply(leftouter) cols=1/6"}},
		{"commuted_index_join",
			query("select l.x, c.region from c join l on c.id = l.ok"),
			false, []string{"Apply(inner) cols=2/6"}},
		{"group_by_over_join",
			query("select c.region, sum(o.amt), count(*) from o join c on o.cust = c.id group by c.region"),
			false, []string{"HashJoin(inner) cols=2/8"}},
		{"order_by_unprojected_column",
			query("select o.k from o join c on o.cust = c.id order by c.score, o.k"),
			true, []string{"HashJoin(inner) cols=2/8"}},
		{"residual_reads_derived_column",
			query(`select o.k from o join (select c.id as id, c.score * 2 as s2 from c) cc
			       on o.cust = cc.id and cc.s2 > o.amt`),
			false, []string{"HashJoin(inner) cols=1/6"}},
		{"residual_reads_nested_join_column",
			query("select l.x from o join c on o.cust = c.id join l on l.ok = o.amt and c.score > l.x"),
			false, nil},
		{"theta_join",
			query("select l.x from l join c on l.x > c.score and c.region = 1"),
			false, []string{"NLJoin(inner) cols=1/6"}},
		{"cross_join_count_star",
			query("select count(*) from l, c where c.id < 30"),
			false, []string{"NLJoin(cross) cols=1/6"}},
		{"three_way_join",
			query("select l.x from l join o on l.ok = o.amt join c on o.cust = c.id where c.region = 3"),
			false, nil},
	}
	for _, c := range cases {
		for _, ex := range pruneExecutors {
			t.Run(c.name+"/"+ex.name, func(t *testing.T) {
				q := *p
				q.Vectorized, q.Parallelism = ex.vectorized, ex.parallelism
				pruned, choices, _, err := q.BuildExplain(c.rel)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := q.unprunedBuild(c.rel)
				if err != nil {
					t.Fatal(err)
				}
				got, err := exec.Drain(pruned, exec.NewCtx(nil))
				if err != nil {
					t.Fatal(err)
				}
				want, err := exec.Drain(ref, exec.NewCtx(nil))
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatal("the case returns no rows")
				}
				if strings.HasPrefix(c.name, "left_") && !hasNullLast(want) {
					t.Fatal("no row of the left join is NULL-extended")
				}
				if g, w := rowStrings(got, c.ordered), rowStrings(want, c.ordered); strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Fatalf("pruned plan returned %d rows, unpruned %d\npruned: %v\nunpruned: %v", len(g), len(w), g, w)
				}
				if fmt.Sprint(pruned.Schema()) != fmt.Sprint(ref.Schema()) {
					t.Fatalf("schema %v, want %v", pruned.Schema(), ref.Schema())
				}
				joins := joinWidths(t, pruned)
				if ex.name == "row" && c.want != nil && strings.Join(joins, ", ") != strings.Join(c.want, ", ") {
					t.Errorf("joins %v (choices %v), want %v", joins, choices, c.want)
				}
			})
		}
	}
}
