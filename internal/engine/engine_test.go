package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// paperSchema is the TPC-H subset used by the paper's examples, with the
// augmented attributes of Section X.
const paperSchema = `
create table customer (custkey int primary key, name varchar, category int, nationkey int);
create table orders (orderkey int primary key, custkey int, totalprice float);
create table lineitem (lineitemkey int primary key, partkey int, price float, qty int, disc float);
create table partsupp (partsuppkey int primary key, partkey int, suppkey int, supplycost float);
create table categorydiscount (category int primary key, frac_discount float);
create table partcost (partkey int primary key, cost float);
`

const serviceLevelUDF = `
create function service_level(int ckey) returns char(10) as
begin
  float totalbusiness; string level;
  select sum(totalprice) into :totalbusiness
    from orders where custkey = :ckey;
  if (totalbusiness > 1000000)
    level = 'Platinum';
  else if (totalbusiness > 500000)
    level = 'Gold';
  else level = 'Regular';
  return level;
end
`

// newTestEngine builds an engine with the paper schema and a small
// deterministic dataset.
func newTestEngine(t *testing.T, mode Mode, nCust, ordersPer int) *Engine {
	t.Helper()
	e := New(SYS1, mode)
	if err := e.ExecScript(paperSchema + serviceLevelUDF); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("orders", "custkey"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var customers, orders []storage.Row
	for c := 1; c <= nCust; c++ {
		customers = append(customers, storage.Row{
			sqltypes.NewInt(int64(c)),
			sqltypes.NewString(fmt.Sprintf("cust%d", c)),
			sqltypes.NewInt(int64(c % 5)),
			sqltypes.NewInt(int64(c % 25)),
		})
		// Customer c gets ordersPer orders except multiples of 10 (none),
		// exercising the empty-group path.
		if c%10 == 0 {
			continue
		}
		for o := 0; o < ordersPer; o++ {
			orders = append(orders, storage.Row{
				sqltypes.NewInt(int64(c*1000 + o)),
				sqltypes.NewInt(int64(c)),
				sqltypes.NewFloat(float64(rng.Intn(400000)) + 0.5),
			})
		}
	}
	if err := e.Load("customer", customers); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("orders", orders); err != nil {
		t.Fatal(err)
	}
	return e
}

const example1Query = `select custkey, service_level(custkey) from customer`

func TestExample1IterativeExecutes(t *testing.T) {
	e := newTestEngine(t, ModeIterative, 20, 3)
	res, err := e.Query(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rewritten {
		t.Error("iterative mode must not rewrite")
	}
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Counters.UDFCalls != 20 {
		t.Errorf("UDF calls = %d, want 20 (one per tuple)", res.Counters.UDFCalls)
	}
	// Every level must be one of the three categories.
	for _, r := range res.Rows {
		lv := r[1].Display()
		if lv != "Platinum" && lv != "Gold" && lv != "Regular" {
			t.Errorf("bad level %q", lv)
		}
	}
}

func TestExample1RewriteDecorrelates(t *testing.T) {
	e := newTestEngine(t, ModeRewrite, 20, 3)
	res, err := e.RewriteSQL(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decorrelated {
		t.Fatalf("Example 1 must fully decorrelate; trace:\n%s", strings.Join(res.Trace, "\n"))
	}
	if len(res.InlinedUDFs) != 1 || res.InlinedUDFs[0] != "service_level" {
		t.Errorf("inlined = %v", res.InlinedUDFs)
	}
}

func TestExample1RewriteMatchesIterative(t *testing.T) {
	it := newTestEngine(t, ModeIterative, 30, 4)
	rw := newTestEngine(t, ModeRewrite, 30, 4)

	rit, err := it.Query(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	rrw, err := rw.Query(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if !rrw.Rewritten {
		t.Fatal("rewrite mode should use the decorrelated plan")
	}
	if rrw.Counters.UDFCalls != 0 {
		t.Errorf("decorrelated plan made %d UDF calls", rrw.Counters.UDFCalls)
	}
	assertSameRows(t, rit.Rows, rrw.Rows)
}

// assertSameRows compares results as multisets (order-insensitive).
func assertSameRows(t *testing.T, a, b []storage.Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	count := map[string]int{}
	for _, r := range a {
		count[sqltypes.KeyOf(r...)]++
	}
	for _, r := range b {
		count[sqltypes.KeyOf(r...)]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("row multiset mismatch (key %x: %+d)", k, v)
		}
	}
}

// explain returns sql's plan description as EXPLAIN shows it.
func explain(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	p, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	return p.Describe(e.Mode, e.Profile.Vectorized)
}

// explainAnalyze runs sql with per-operator instrumentation and returns the
// annotated plan tree as EXPLAIN ANALYZE shows it.
func explainAnalyze(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	p, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Run(context.Background(), p, RunOpts{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Materialize(); err != nil {
		t.Fatal(err)
	}
	return rows.Analyze()
}

// TestEngineSurface pins *Engine's exported methods: one prepare path, one
// run path, one statement loop, and their conveniences. A new way into the
// engine is a deliberate edit of this list.
func TestEngineSurface(t *testing.T) {
	want := []string{
		"Begin", "Checkpoint", "CreateIndex", "Exec", "ExecScript", "Load", "MustLoadInts",
		"Prepare", "PreparePartialAgg", "Query", "RewriteSQL", "Run", "RunContext",
	}
	typ := reflect.TypeOf(&Engine{})
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Engine methods = %v\nwant %v", got, want)
	}
}
