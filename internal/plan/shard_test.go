package plan_test

import (
	"strings"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/plan"
)

// shardCatalog builds the bench catalog with orders and lineitem sharded,
// plus the functions of extraUDFs.
func shardCatalog(t *testing.T, extraUDFs ...string) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	schema, err := bench.ShardedSchema()
	if err != nil {
		t.Fatal(err)
	}
	script, err := parser.ParseScript(schema + bench.UDFs + bench.ExtraUDFs + strings.Join(extraUDFs, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range script.Tables {
		if _, err := cat.AddTableFromAST(ct); err != nil {
			t.Fatal(err)
		}
	}
	for _, cf := range script.Functions {
		if _, err := cat.AddFunction(cf); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func classify(t *testing.T, cat *catalog.Catalog, sql string) plan.ShardInfo {
	t.Helper()
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	rel, err := core.NewAlgebrizer(cat).Query(sel)
	if err != nil {
		t.Fatalf("algebrize %q: %v", sql, err)
	}
	rel = core.Normalize(cat, rel)
	return plan.ClassifyShard(rel, cat)
}

// TestClassifyCorpus pins the expected route class of every corpus query
// under the bench sharding (orders by custkey, lineitem by partkey).
func TestClassifyCorpus(t *testing.T) {
	cat := shardCatalog(t)
	for _, q := range bench.Corpus {
		wantKind, ok := bench.ShardClass[q.Name]
		if !ok {
			t.Errorf("corpus query %q has no expected shard class in bench.ShardClass; add one", q.Name)
			continue
		}
		info := classify(t, cat, q.SQL)
		if info.Kind.String() != wantKind {
			t.Errorf("%s: classified %s, want %s (reason: %s)", q.Name, info.Kind, wantKind, info.Reason)
		}
		if info.Kind == plan.ShardRejected && info.Reason == "" {
			t.Errorf("%s: rejected without a reason", q.Name)
		}
	}
}

// shapeUDFs reach tables in the ways a body can: through a subquery in an
// IF condition, a nested call, recursion, a TVF in FROM, and a table that
// does not exist.
const shapeUDFs = `
create function ifsub(int k) returns int as
begin
  int n = 0;
  if (exists (select orderkey from orders where custkey = :k)) n = 1;
  return n;
end

create function outerlvl(int k) returns varchar as
begin
  return lvl(k);
end

create function countdown(int n) returns int as
begin
  int c;
  select category into :c from customer where custkey = :n;
  if (n <= 0) return c;
  return countdown(n - 1);
end

create function bigcount(float minprice) returns int as
begin
  return select count(*) from bigorders(minprice) b;
end

create function ghost(int k) returns int as
begin
  int n;
  select count(*) into :n from nosuchtable where x = :k;
  return n;
end
`

func TestClassifyShapes(t *testing.T) {
	cat := shardCatalog(t, shapeUDFs)
	cases := []struct {
		name, sql  string
		want       plan.ShardKind
		wantReason string // substring of the rejection reason
	}{
		{"pinned point query", "select orderkey, totalprice from orders where custkey = 7", plan.ShardSingle, ""},
		{"pinned with extra conjunct", "select orderkey from orders where custkey = 7 and totalprice > 10", plan.ShardSingle, ""},
		{"range over shard key scatters", "select orderkey from orders where custkey < 7", plan.ShardScatterConcat, ""},
		{"replicated join to sharded probe", "select o.orderkey, c.name from orders o join customer c on o.custkey = c.custkey", plan.ShardScatterConcat, ""},
		{"grouped avg", "select custkey, avg(totalprice) from orders group by custkey", plan.ShardScatterMerge, ""},
		{"scalar avg and count", "select avg(totalprice), count(*), count(totalprice) from orders", plan.ShardScatterMerge, ""},
		{"distinct aggregate", "select count(distinct custkey) from orders", plan.ShardRejected, "DISTINCT aggregate"},
		{"top without order", "select top 5 orderkey from orders", plan.ShardRejected, "LIMIT/TOP without ORDER BY"},
		{"order by over shards", "select orderkey from orders order by totalprice", plan.ShardRejected, "ORDER BY"},
		{"distinct projection", "select distinct custkey from orders", plan.ShardRejected, ""},
		{"two sharded tables", "select o.orderkey from orders o join lineitem l on o.orderkey = l.partkey", plan.ShardRejected, "two sharded tables"},
		{"sharded subquery", "select c.custkey from customer c where c.custkey = (select min(custkey) from orders)", plan.ShardRejected, "subquery reads sharded table"},
		{"replicated only", "select custkey, name from customer where custkey <= 10", plan.ShardSingle, ""},
		{"having rejected", "select custkey, count(*) from orders group by custkey having count(*) > 1", plan.ShardRejected, ""},
		{"UDF reads sharded table in an IF subquery", "select custkey, ifsub(custkey) from customer", plan.ShardRejected, "UDF ifsub reads sharded table orders"},
		{"UDF calls a UDF that reads a sharded table", "select custkey, outerlvl(custkey) from customer", plan.ShardRejected, "UDF outerlvl reads sharded table orders"},
		{"self-recursive UDF over a replicated table", "select custkey, countdown(custkey) from customer", plan.ShardSingle, ""},
		{"UDF reads a TVF over a sharded table", "select custkey, bigcount(100.0) from customer", plan.ShardRejected, "UDF bigcount reads sharded table orders"},
		{"UDF body names an unknown table", "select custkey, ghost(custkey) from customer", plan.ShardRejected, "UDF ghost"},
	}
	for _, tc := range cases {
		info := classify(t, cat, tc.sql)
		if info.Kind != tc.want {
			t.Errorf("%s: classified %s, want %s (reason: %q)", tc.name, info.Kind, tc.want, info.Reason)
			continue
		}
		if tc.wantReason != "" && !strings.Contains(info.Reason, tc.wantReason) {
			t.Errorf("%s: reason %q does not mention %q", tc.name, info.Reason, tc.wantReason)
		}
	}
}

// TestClassifyPinnedKeyValue checks the pinned route exposes the key value
// (the router hashes it to pick the shard).
func TestClassifyPinnedKeyValue(t *testing.T) {
	cat := shardCatalog(t)
	info := classify(t, cat, "select orderkey from orders where custkey = 42")
	if info.Kind != plan.ShardSingle || info.KeyValue == nil {
		t.Fatalf("want pinned single-shard with key value, got %s (key %v)", info.Kind, info.KeyValue)
	}
	if got, _ := info.KeyValue.AsInt(); got != 42 {
		t.Fatalf("pinned key = %v, want 42", info.KeyValue)
	}
	if info.Table != "orders" {
		t.Fatalf("pinned table = %q, want orders", info.Table)
	}
}

// TestMergeSpecLayout pins the gather contract: keys first, then one
// partial column per aggregate with avg contributing two, and Output
// mapping back to the query's projection order.
func TestMergeSpecLayout(t *testing.T) {
	cat := shardCatalog(t)
	info := classify(t, cat, "select custkey, avg(totalprice), count(*) from orders group by custkey")
	if info.Kind != plan.ShardScatterMerge {
		t.Fatalf("classified %s (%s), want scatter-merge", info.Kind, info.Reason)
	}
	spec := info.Merge
	if spec.NumKeys != 1 {
		t.Fatalf("NumKeys = %d, want 1", spec.NumKeys)
	}
	if len(spec.Aggs) != 2 || spec.Aggs[0].Func != "avg" || spec.Aggs[1].Func != "count" {
		t.Fatalf("Aggs = %+v, want [avg count(*)]", spec.Aggs)
	}
	if len(spec.Output) != 3 || spec.Output[0].IsAgg || spec.Output[1].Index != 0 || !spec.Output[2].IsAgg {
		t.Fatalf("Output = %+v, want [key0 agg0 agg1]", spec.Output)
	}
	if len(spec.Cols) != 3 {
		t.Fatalf("Cols = %v, want 3 names", spec.Cols)
	}
}
