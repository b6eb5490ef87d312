package core

import (
	"errors"
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/parser"
)

// buildCatalog parses DDL and returns the catalog.
func buildCatalog(t *testing.T, ddl string) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	script, err := parser.ParseScript(ddl)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range script.Tables {
		if _, err := cat.AddTableFromAST(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range script.Functions {
		if _, err := cat.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

const udfTestSchema = `
create table orders (orderkey int primary key, custkey int, totalprice float);
create table lineitem (lineitemkey int primary key, partkey int, price float, qty int, disc float);
`

// buildScalarUDF builds the expression tree for a named scalar UDF.
func buildScalarUDF(t *testing.T, ddl, name string) (algebra.Rel, *UDFBuilder, error) {
	t.Helper()
	cat := buildCatalog(t, ddl)
	rw := NewRewriter(cat)
	b := NewUDFBuilder(cat, rw)
	fn, ok := cat.Function(name)
	if !ok {
		t.Fatalf("function %q missing", name)
	}
	rel, err := b.BuildScalar(fn)
	return rel, b, err
}

func TestBuildScalarSimpleExpression(t *testing.T) {
	// Paper Example 3: the tree of Figure 2 — a projection of retval over
	// an Apply chain rooted at Single.
	rel, _, err := buildScalarUDF(t, udfTestSchema+`
create function disc(float amount) returns float as
begin
  return amount * 0.15;
end`, "disc")
	if err != nil {
		t.Fatal(err)
	}
	top, ok := rel.(*algebra.Project)
	if !ok || len(top.Cols) != 1 || top.Cols[0].As != "retval" {
		t.Fatalf("top of the UDF tree must project retval:\n%s", algebra.Print(rel))
	}
	if !algebra.HasApply(rel) {
		t.Error("pre-simplification tree should contain Apply operators (Figure 2)")
	}
	// Parameterized by the formal parameter.
	if !algebra.HasFreeParams(rel) {
		t.Error("tree must be parameterized by :amount")
	}
}

func TestBuildScalarBranchingUsesCondApplyMerge(t *testing.T) {
	rel, _, err := buildScalarUDF(t, udfTestSchema+`
create function lvl(int k) returns varchar as
begin
  float tb; string level;
  select sum(totalprice) into :tb from orders where custkey = :k;
  if (tb > 100) level = 'Big'; else level = 'Small';
  return level;
end`, "lvl")
	if err != nil {
		t.Fatal(err)
	}
	amcs := algebra.Count(rel, func(n algebra.Rel) bool {
		_, ok := n.(*algebra.CondApplyMerge)
		return ok
	})
	if amcs != 1 {
		t.Errorf("conditional blocks should algebraize to AMC, found %d:\n%s", amcs, algebra.Print(rel))
	}
	ams := algebra.Count(rel, func(n algebra.Rel) bool {
		_, ok := n.(*algebra.ApplyMerge)
		return ok
	})
	if ams < 1 {
		t.Errorf("SELECT INTO should algebraize to Apply-Merge:\n%s", algebra.Print(rel))
	}
}

// loopAggs returns the aggregate calls of every GroupBy in a tree.
func loopAggs(rel algebra.Rel) []algebra.AggCall {
	var out []algebra.AggCall
	algebra.Visit(rel, func(n algebra.Rel) {
		if g, ok := n.(*algebra.GroupBy); ok {
			out = append(out, g.Aggs...)
		}
	})
	return out
}

// cursorLoopUDF wraps a loop body over lineitem(price, qty) in a scalar UDF
// named f whose result variable total starts at init; the body may call
// the scalar UDF dbl.
func cursorLoopUDF(init, body string) string {
	return udfTestSchema + `
create function dbl(int x) returns int as
begin
  return x * 2;
end
create function f(int pkey) returns int as
begin
  int total` + init + `;
  declare c cursor for select price, qty from lineitem where partkey = :pkey;
  open c;
  fetch next from c into @p, @q;
  while @@FETCH_STATUS = 0
  begin
    ` + body + `
    fetch next from c into @p, @q;
  end
  close c; deallocate c;
  return total;
end`
}

func TestBuildScalarCursorLoopSynthesizesAggregate(t *testing.T) {
	// A guarded sum is a builtin fold: sum(case when p > 10 then q end),
	// with the two counts that make a NULL q poison the result as
	// total + NULL does in the loop. No auxiliary aggregate.
	rel, b, err := buildScalarUDF(t, cursorLoopUDF(" = 0", "if (@p > 10) total = total + @q;"), "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.NewAggs) != 0 {
		t.Fatalf("aux aggregates = %d, want 0", len(b.NewAggs))
	}
	var funcs []string
	for _, a := range loopAggs(rel) {
		funcs = append(funcs, a.String())
	}
	got := strings.Join(funcs, "; ")
	for _, want := range []string{"sum(CASE WHEN (p > 10) THEN q END)", "count(CASE WHEN (p > 10) THEN 1 END)", "count(CASE WHEN (p > 10) THEN q END)"} {
		if !strings.Contains(got, want) {
			t.Errorf("loop aggregates %q lack %q", got, want)
		}
	}

	// A counter is count(*) itself: no projection over it.
	rel, b, err = buildScalarUDF(t, cursorLoopUDF(" = 0", "total = total + 1;"), "f")
	if err != nil {
		t.Fatal(err)
	}
	aggs := loopAggs(rel)
	if len(b.NewAggs) != 0 || len(aggs) != 1 || aggs[0].Func != "count" || len(aggs[0].Args) != 0 {
		t.Errorf("counter loop: aux aggregates = %d, aggregates %v; want count(*) alone", len(b.NewAggs), aggs)
	}
}

// TestBuildScalarCursorLoopNonFoldKeepsAuxAggregate pins the loops that are
// not builtin folds to the interpreted auxiliary aggregate.
func TestBuildScalarCursorLoopNonFoldKeepsAuxAggregate(t *testing.T) {
	cases := []struct{ name, init, body, aggName string }{
		// The name is content-addressed; pinning it pins the fingerprint.
		{"product", " = 0", "total = total * 2 + @q;", "aux_agg_b25af3ee"},
		{"guard reads the result", " = 0", "if (total < 100) total = total + @q;", ""},
		{"term reads the result", " = 0", "total = total + total;", ""},
		{"nonzero sum init", " = 5", "total = total + @p;", ""},
		{"null counter", "", "total = total + 1;", ""},
		{"else branch", " = 0", "if (@p > 10) total = total + 1; else total = total + 2;", ""},
		{"two steps", " = 0", "total = total + 1; if (@p > 10) total = total + 1;", ""},
		{"result read elsewhere", " = 0; int n = 0", "total = total + 1; n = n + total;", ""},
		{"term runs a query", " = 0", "total = total + (select count(*) from orders where custkey = @q);", ""},
		{"term calls a UDF", " = 0", "total = total + dbl(@q);", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rel, b, err := buildScalarUDF(t, cursorLoopUDF(c.init, c.body), "f")
			if err != nil {
				t.Fatal(err)
			}
			if len(b.NewAggs) != 1 {
				t.Fatalf("aux aggregates = %d, want 1", len(b.NewAggs))
			}
			agg := b.NewAggs[0]
			if agg.Result != "total" {
				t.Errorf("result var = %s", agg.Result)
			}
			if c.aggName != "" && agg.Name != c.aggName {
				t.Errorf("aggregate name = %s, want %s", agg.Name, c.aggName)
			}
			if !strings.Contains(algebra.Print(rel), agg.Name) {
				t.Error("tree should invoke the auxiliary aggregate")
			}
		})
	}
}

func TestBuildScalarUnsupportedCases(t *testing.T) {
	cases := map[string]string{
		"return-in-branch": `
create function f(int k) returns int as
begin
  if (k > 0) return 1;
  return 2;
end`,
		"arbitrary-while": `
create function f(int k) returns int as
begin
  int i = 0;
  while (i < k)
  begin
    i = i + 1;
  end
  return i;
end`,
		"non-const-agg-init": `
create function f(int k) returns int as
begin
  int acc;
  select sum(totalprice) into :acc from orders where custkey = :k;
  declare c cursor for select price from lineitem;
  open c;
  fetch next from c into @p;
  while @@FETCH_STATUS = 0
  begin
    acc = acc + @p;
    fetch next from c into @p;
  end
  close c;
  return acc;
end`,
		"multiple-cursors": `
create function f(int k) returns int as
begin
  declare c cursor for select price from lineitem;
  declare d cursor for select qty from lineitem;
  open c;
  return 1;
end`,
		"redeclaration": `
create function f(int k) returns int as
begin
  int x = 1;
  int x = 2;
  return x;
end`,
		"no-return": `
create function f(int k) returns int as
begin
  int x = 1;
end`,
	}
	for name, ddl := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := buildScalarUDF(t, udfTestSchema+ddl, "f")
			if !errors.Is(err, ErrUnsupported) {
				t.Errorf("want ErrUnsupported, got %v", err)
			}
		})
	}
}

func TestBuildScalarRecursionRejected(t *testing.T) {
	cat := buildCatalog(t, udfTestSchema+`
create function r(int k) returns int as
begin
  return r(k);
end`)
	rw := NewRewriter(cat)
	b := NewUDFBuilder(cat, rw)
	fn, _ := cat.Function("r")
	// Building succeeds (the recursive call stays an uninterpreted Call);
	// but merging it via the decorrelator must not loop forever.
	rel, err := b.BuildScalar(fn)
	if err != nil {
		t.Fatalf("building with an uninterpreted self-call should work: %v", err)
	}
	_ = rel
	alg := NewAlgebrizer(cat)
	q, err := parser.ParseQuery("select custkey, r(custkey) from orders")
	if err != nil {
		t.Fatal(err)
	}
	qrel, err := alg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// The merge loop is bounded: it stops at maxRewritePasses, which the
	// rule sanitizer otherwise counts as a violation. The result may retain
	// the recursive call but must terminate.
	sanitizer := observer.Load()
	capped := false
	observer.Store(&ruleObserver{Fired: sanitizer.Fired, PassCap: func(string) { capped = true }})
	defer observer.Store(sanitizer)
	if _, err := NewDecorrelator(cat).Rewrite(qrel); err != nil {
		t.Fatal(err)
	}
	if !capped {
		t.Error("merging a recursive UDF should stop at the pass cap")
	}
}

func TestBuildTableValidations(t *testing.T) {
	cases := map[string]string{
		"insert-outside-loop": `
create function f() returns table tt (a int) as
begin
  insert into tt values (1);
  return tt;
end`,
		"no-loop": `
create function f() returns table tt (a int) as
begin
  return tt;
end`,
		"cyclic-dependence": `
create function f() returns table tt (a int) as
begin
  int acc = 0;
  declare c cursor for select price from lineitem;
  open c;
  fetch next from c into @p;
  while @@FETCH_STATUS = 0
  begin
    acc = acc + @p;
    insert into tt values (acc);
    fetch next from c into @p;
  end
  close c;
  return tt;
end`,
		"arity-mismatch": `
create function f() returns table tt (a int, b int) as
begin
  declare c cursor for select price from lineitem;
  open c;
  fetch next from c into @p;
  while @@FETCH_STATUS = 0
  begin
    insert into tt values (@p);
    fetch next from c into @p;
  end
  close c;
  return tt;
end`,
	}
	for name, ddl := range cases {
		t.Run(name, func(t *testing.T) {
			cat := buildCatalog(t, udfTestSchema+ddl)
			rw := NewRewriter(cat)
			b := NewUDFBuilder(cat, rw)
			fn, _ := cat.Function("f")
			if _, err := b.BuildTable(fn); !errors.Is(err, ErrUnsupported) {
				t.Errorf("want ErrUnsupported, got %v", err)
			}
		})
	}
}

func TestBuildTableWellFormed(t *testing.T) {
	cat := buildCatalog(t, udfTestSchema+`
create function f(minq int) returns table tt (pk int, rev float) as
begin
  declare c cursor for select partkey, price, qty from lineitem;
  open c;
  fetch next from c into @pk, @pr, @q;
  while @@FETCH_STATUS = 0
  begin
    if (@q > minq)
      insert into tt values (@pk, @pr * @q);
    fetch next from c into @pk, @pr, @q;
  end
  close c; deallocate c;
  return tt;
end`)
	rw := NewRewriter(cat)
	b := NewUDFBuilder(cat, rw)
	fn, _ := cat.Function("f")
	rel, err := b.BuildTable(fn)
	if err != nil {
		t.Fatal(err)
	}
	schema := rel.Schema()
	if len(schema) != 2 || schema[0].Name != "pk" || schema[1].Name != "rev" {
		t.Errorf("schema = %v", schema)
	}
	// The guard becomes a selection.
	if algebra.Count(rel, func(n algebra.Rel) bool { _, ok := n.(*algebra.Select); return ok }) == 0 {
		t.Errorf("conditional insert should contribute a selection:\n%s", algebra.Print(rel))
	}
	if !algebra.HasFreeParams(rel) {
		t.Error("tree must be parameterized by :minq")
	}
}
