package plan_test

import (
	"reflect"
	"strings"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/plan"
	"udfdecorr/internal/storage"
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

// TestMergeSpecLayout pins the scatter-merge contract in one place: the
// partial statement every shard runs (group keys first, then one column
// per partial, avg as a sum and a count), the aggregates the gather merges,
// and the Output mapping back to the query's projection order. Each
// partial statement also runs on one node and must return NumKeys key
// columns followed by the partial columns, with the values of the
// hand-written equivalent.
func TestMergeSpecLayout(t *testing.T) {
	cat := shardCatalog(t)
	node, err := bench.NewEngine(engine.SYS1, engine.ModeRewrite, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := node.ExecScript(bench.ExtraUDFs); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, sql string
		partial   string // whitespace-collapsed partial statement
		same      string // hand-written statement with the partial's rows
		numKeys   int
		aggs      []string
		output    []plan.OutputCol
	}{
		{
			name:    "grouped",
			sql:     "select custkey, count(*), sum(totalprice) from orders group by custkey",
			partial: "SELECT orders.custkey AS custkey, count(*) AS agg_1, sum(orders.totalprice) AS agg_2 FROM orders GROUP BY orders.custkey",
			same:    "select custkey, count(*), sum(totalprice) from orders group by custkey",
			numKeys: 1,
			aggs:    []string{"count", "sum"},
			output:  []plan.OutputCol{{Index: 0}, {IsAgg: true, Index: 0}, {IsAgg: true, Index: 1}},
		},
		{
			name:    "scalar",
			sql:     "select count(*), min(totalprice), max(totalprice) from orders where totalprice > 100000",
			partial: "SELECT count(*) AS agg_1, min(orders.totalprice) AS agg_2, max(orders.totalprice) AS agg_3 FROM orders WHERE (orders.totalprice > 100000)",
			same:    "select count(*), min(totalprice), max(totalprice) from orders where totalprice > 100000",
			aggs:    []string{"count", "min", "max"},
			output:  []plan.OutputCol{{IsAgg: true, Index: 0}, {IsAgg: true, Index: 1}, {IsAgg: true, Index: 2}},
		},
		{
			name:    "avg",
			sql:     "select custkey, avg(totalprice), count(*) from orders group by custkey",
			partial: "SELECT orders.custkey AS custkey, sum(orders.totalprice) AS agg_1__psum, count(orders.totalprice) AS agg_1__pcnt, count(*) AS agg_2 FROM orders GROUP BY orders.custkey",
			same:    "select custkey, sum(totalprice), count(totalprice), count(*) from orders group by custkey",
			numKeys: 1,
			aggs:    []string{"avg", "count"},
			output:  []plan.OutputCol{{Index: 0}, {IsAgg: true, Index: 0}, {IsAgg: true, Index: 1}},
		},
		{
			name:    "renamed key after the aggregate",
			sql:     "select avg(totalprice) as a, custkey as c from orders o group by custkey",
			partial: "SELECT o.custkey AS custkey, sum(o.totalprice) AS agg_1__psum, count(o.totalprice) AS agg_1__pcnt FROM orders o GROUP BY o.custkey",
			same:    "select custkey, sum(totalprice), count(totalprice) from orders group by custkey",
			numKeys: 1,
			aggs:    []string{"avg"},
			output:  []plan.OutputCol{{IsAgg: true, Index: 0}, {Index: 0}},
		},
		{
			name:    "UDF in WHERE",
			sql:     "select count(*), sum(totalprice) from orders where disc(totalprice) > 1000",
			partial: "SELECT count(*) AS agg_1, sum(orders.totalprice) AS agg_2 FROM orders WHERE (disc(orders.totalprice) > 1000)",
			same:    "select count(*), sum(totalprice) from orders where totalprice * 0.15 > 1000",
			aggs:    []string{"count", "sum"},
			output:  []plan.OutputCol{{IsAgg: true, Index: 0}, {IsAgg: true, Index: 1}},
		},
		{
			// The left join becomes a derived table exporting l.partkey and
			// pc.partkey; the count must read the right side's column.
			name:    "right-side column of a join under a join",
			sql:     "select count(pc.partkey) from lineitem l left outer join partcost pc on l.partkey = pc.partkey join part p on p.partkey = l.partkey",
			partial: "SELECT count(d_1.partkey_2) AS agg_1 FROM ( SELECT l.lineitemkey AS lineitemkey, l.partkey AS partkey, l.price AS price, l.qty AS qty, l.disc AS disc, pc.partkey AS partkey_2, pc.cost AS cost FROM lineitem l LEFT OUTER JOIN partcost pc ON (l.partkey = pc.partkey)) d_1 JOIN part p ON (p.partkey = d_1.partkey)",
			same:    "select count(pc.partkey) from lineitem l left outer join partcost pc on l.partkey = pc.partkey join part p on p.partkey = l.partkey",
			aggs:    []string{"count"},
			output:  []plan.OutputCol{{IsAgg: true, Index: 0}},
		},
	}
	// A lineitem whose part has no partcost row, so that the join case's
	// count(pc.partkey) differs from count(l.partkey).
	if err := node.ExecScript("insert into part values (1000001, 'orphan', 1); insert into lineitem values (1000001, 1000001, 1.0, 1, 0.0);"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info := classify(t, cat, tc.sql)
			if info.Kind != plan.ShardScatterMerge {
				t.Fatalf("classified %s (%s), want scatter-merge", info.Kind, info.Reason)
			}
			spec := info.Merge
			if got := strings.Join(strings.Fields(spec.SQL), " "); got != tc.partial {
				t.Errorf("partial statement\n got: %s\nwant: %s", got, tc.partial)
			}
			if spec.NumKeys != tc.numKeys {
				t.Errorf("NumKeys = %d, want %d", spec.NumKeys, tc.numKeys)
			}
			var funcs []string
			width := spec.NumKeys
			for _, a := range spec.Aggs {
				funcs = append(funcs, a.Func)
				width++
				if a.Func == "avg" {
					width++
				}
			}
			if !reflect.DeepEqual(funcs, tc.aggs) {
				t.Errorf("Aggs = %v, want %v", funcs, tc.aggs)
			}
			if !reflect.DeepEqual(spec.Output, tc.output) {
				t.Errorf("Output = %+v, want %+v", spec.Output, tc.output)
			}
			if len(spec.Cols) != len(tc.output) {
				t.Errorf("Cols = %v, want %d names", spec.Cols, len(tc.output))
			}

			got, err := node.Query(spec.SQL)
			if err != nil {
				t.Fatalf("partial statement does not run on one node: %v", err)
			}
			if len(got.Cols) != width {
				t.Fatalf("partial columns %v, want %d (keys, then one per partial)", got.Cols, width)
			}
			for i, name := range partialCols(spec.SQL) {
				if got.Cols[i] != name {
					t.Errorf("column %d = %q, want %q", i, got.Cols[i], name)
				}
			}
			want, err := node.Query(tc.same)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := bench.CanonicalRows(rendered(got.Rows)), bench.CanonicalRows(rendered(want.Rows)); g != w {
				t.Errorf("partial rows differ from %q", tc.same)
			}
		})
	}
}

// partialCols lists the AS names of a rendered partial statement's
// top-level select list, in order.
func partialCols(sql string) []string {
	var names []string
	top, _, _ := strings.Cut(sql, "\nFROM ")
	fields := strings.Fields(top)
	for i := 1; i < len(fields); i++ {
		if fields[i-1] == "AS" {
			names = append(names, strings.TrimSuffix(fields[i], ","))
		}
	}
	return names
}

func rendered(rows []storage.Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] = append(out[i], v.String())
		}
	}
	return out
}
