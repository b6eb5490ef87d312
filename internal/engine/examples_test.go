package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// Paper Example 3: single arithmetic expression.
const discountSimpleUDF = `
create function discount_simple(float amount) returns float as
begin
  return amount * 0.15;
end
`

// Paper Example 4: single SQL query.
const totalBusinessUDF = `
create function totalbusiness(int ckey) returns int as
begin
  return select sum(totalprice) from orders where custkey = :ckey;
end
`

// Paper Example 8 (Experiment 1): straight-line code with two scalar
// queries.
const discountUDF = `
create function discount(float amt, int ckey) returns float as
begin
  int custcat; float catdisct, totaldiscount;
  select category into :custcat from customer where custkey = :ckey;
  select frac_discount into :catdisct from categorydiscount where category = :custcat;
  totaldiscount = catdisct * amt;
  return totaldiscount;
end
`

// Paper Example 5: cursor loop with a cyclic data dependence.
const totalLossUDFs = `
create function getcost(int pkey) returns float as
begin
  return select cost from partcost where partkey = :pkey;
end

create function totalloss(int pkey) returns int as
begin
  int total_loss = 0;
  float cost = getcost(:pkey);
  declare c cursor for
    select price, qty, disc from lineitem where partkey = :pkey;
  open c;
  fetch next from c into @price, @qty, @disc;
  while @@FETCH_STATUS = 0
  begin
    float profit = (@price - @disc) - (cost * @qty);
    if (profit < 0)
      total_loss = total_loss - profit;
    fetch next from c into @price, @qty, @disc;
  end
  close c; deallocate c;
  return total_loss;
end
`

// Paper Example 7 shape: table-valued UDF with an insert-only cursor loop.
const bigOrdersUDF = `
create function bigorders(minprice float) returns table tt (ckey int, price float) as
begin
  declare c cursor for select custkey, totalprice from orders;
  open c;
  fetch next from c into @ck, @tp;
  while @@FETCH_STATUS = 0
  begin
    if (@tp > minprice)
      insert into tt values (@ck, @tp * 1.0);
    fetch next from c into @ck, @tp;
  end
  close c; deallocate c;
  return tt;
end
`

// fullEngine builds an engine with the paper schema, all example UDFs, and
// a deterministic dataset covering all tables.
func fullEngine(t *testing.T, mode Mode) *Engine {
	t.Helper()
	return fullEngineProfile(t, SYS1, mode)
}

// fullEngineProfile is fullEngine under the given profile (executor and
// parallelism settings).
func fullEngineProfile(t *testing.T, profile Profile, mode Mode) *Engine {
	t.Helper()
	e := New(profile, mode)
	ddl := paperSchema + serviceLevelUDF + discountSimpleUDF + totalBusinessUDF +
		discountUDF + totalLossUDFs + bigOrdersUDF
	if err := e.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][2]string{{"orders", "custkey"}, {"lineitem", "partkey"}} {
		if err := e.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	var customers, orders, lineitems, partsupps, cats, partcosts []storage.Row
	const nCust, nPart, nCat = 40, 25, 5
	for c := 1; c <= nCust; c++ {
		customers = append(customers, storage.Row{
			sqltypes.NewInt(int64(c)),
			sqltypes.NewString(fmt.Sprintf("cust%d", c)),
			sqltypes.NewInt(int64(c % nCat)),
			sqltypes.NewInt(int64(c % 7)),
		})
		if c%9 == 0 {
			continue // customers without orders
		}
		for o := 0; o < 3; o++ {
			orders = append(orders, storage.Row{
				sqltypes.NewInt(int64(c*100 + o)),
				sqltypes.NewInt(int64(c)),
				sqltypes.NewFloat(float64(rng.Intn(600000)) + 0.25),
			})
		}
	}
	for cat := 0; cat < nCat; cat++ {
		cats = append(cats, storage.Row{
			sqltypes.NewInt(int64(cat)),
			sqltypes.NewFloat(0.05 * float64(cat+1)),
		})
	}
	li := 0
	for p := 1; p <= nPart; p++ {
		partcosts = append(partcosts, storage.Row{
			sqltypes.NewInt(int64(p)),
			sqltypes.NewFloat(float64(10 + p)),
		})
		partsupps = append(partsupps, storage.Row{
			sqltypes.NewInt(int64(p)),
			sqltypes.NewInt(int64(p)),
			sqltypes.NewInt(int64(p % 4)),
			sqltypes.NewFloat(float64(rng.Intn(100))),
		})
		if p%8 == 0 {
			continue // parts without lineitems
		}
		for l := 0; l < 4; l++ {
			li++
			lineitems = append(lineitems, storage.Row{
				sqltypes.NewInt(int64(li)),
				sqltypes.NewInt(int64(p)),
				sqltypes.NewFloat(float64(rng.Intn(300))),
				sqltypes.NewInt(int64(1 + rng.Intn(5))),
				sqltypes.NewFloat(float64(rng.Intn(20))),
			})
		}
	}
	for tbl, rows := range map[string][]storage.Row{
		"customer": customers, "orders": orders, "lineitem": lineitems,
		"partsupp": partsupps, "categorydiscount": cats, "partcost": partcosts,
	} {
		if err := e.Load(tbl, rows); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// compareModes runs a query in iterative and rewrite modes and checks both
// that the rewrite decorrelated and that the results agree.
func compareModes(t *testing.T, query string, wantRewrite bool) (*Result, *Result) {
	t.Helper()
	it := fullEngine(t, ModeIterative)
	rw := fullEngine(t, ModeRewrite)
	rit, err := it.Query(query)
	if err != nil {
		t.Fatalf("iterative: %v", err)
	}
	rrw, err := rw.Query(query)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if rrw.Rewritten != wantRewrite {
		res, _ := rw.RewriteSQL(query)
		extra := ""
		if res != nil {
			extra = "\ntrace: " + strings.Join(res.Trace, ", ")
		}
		t.Fatalf("rewritten = %v, want %v%s", rrw.Rewritten, wantRewrite, extra)
	}
	if wantRewrite && rrw.Counters.UDFCalls != 0 {
		t.Errorf("rewritten plan still made %d UDF calls", rrw.Counters.UDFCalls)
	}
	assertSameRows(t, rit.Rows, rrw.Rows)
	return rit, rrw
}

func TestExample3SingleExpression(t *testing.T) {
	compareModes(t, "select orderkey, discount_simple(totalprice) from orders", true)
}

func TestExample3WhereClause(t *testing.T) {
	rit, _ := compareModes(t, "select orderkey from orders where discount_simple(totalprice) > 50000", true)
	if len(rit.Rows) == 0 {
		t.Fatal("predicate selected nothing; test data too small")
	}
}

func TestExample4SingleQuery(t *testing.T) {
	compareModes(t, "select custkey, totalbusiness(custkey) from customer", true)
}

func TestExample8TwoQueries(t *testing.T) {
	compareModes(t, "select orderkey, discount(totalprice, custkey) from orders", true)
}

func TestExample5CursorLoop(t *testing.T) {
	rit, rrw := compareModes(t, "select partkey, totalloss(partkey) from partsupp", true)
	if len(rit.Rows) != 25 {
		t.Fatalf("rows = %d", len(rit.Rows))
	}
	if rrw.Counters.UDFCalls != 0 {
		t.Errorf("rewritten plan made %d UDF calls", rrw.Counters.UDFCalls)
	}
	// The guarded loop is a builtin fold: sum(case when profit < 0 then
	// profit end) beside its two guard counts, with no auxiliary
	// aggregate to register.
	e := fullEngine(t, ModeRewrite)
	res, err := e.RewriteSQL("select partkey, totalloss(partkey) from partsupp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewAggs) != 0 {
		t.Fatalf("aux aggregates = %d, want 0", len(res.NewAggs))
	}
	sums := algebra.Count(res.Rel, func(n algebra.Rel) bool {
		g, ok := n.(*algebra.GroupBy)
		if !ok {
			return false
		}
		sum := false
		for _, a := range g.Aggs {
			if _, aux := e.Cat.Aggregate(a.Func); aux {
				return false
			}
			sum = sum || a.Func == "sum"
		}
		return sum
	})
	if sums != 1 {
		t.Errorf("want one group-by computing a builtin sum and no auxiliary aggregate:\n%s", algebra.Print(res.Rel))
	}
}

func TestTableValuedUDF(t *testing.T) {
	compareModes(t, "select ckey, price from bigorders(300000) b", true)
}

func TestTableValuedUDFJoined(t *testing.T) {
	compareModes(t, `select c.name, b.price from bigorders(400000) b
	                 join customer c on c.custkey = b.ckey`, true)
}

func TestNestedSubqueryDecorrelation(t *testing.T) {
	// The min-cost-supplier query of Section II (plain SQL, no UDF).
	q := `select partsuppkey, partkey from partsupp p1
	      where supplycost = (select min(supplycost) from partsupp p2
	                          where p2.partkey = p1.partkey)`
	rit, _ := compareModes(t, q, true)
	if len(rit.Rows) == 0 {
		t.Fatal("min-cost supplier returned nothing")
	}
}

func TestUDFOnFilteredOuter(t *testing.T) {
	compareModes(t, "select custkey, service_level(custkey) from customer where custkey <= 15", true)
}

func TestCostBasedModeSmallPrefersIterative(t *testing.T) {
	e := fullEngine(t, ModeCostBased)
	res, err := e.Query("select custkey, service_level(custkey) from customer where custkey <= 2")
	if err != nil {
		t.Fatal(err)
	}
	// With a tiny outer, the iterative plan should win the cost race.
	if res.Rewritten {
		t.Log("cost model chose rewrite for small input (acceptable, but unexpected)")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}
