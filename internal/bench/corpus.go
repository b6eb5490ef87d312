package bench

// ExtraUDFs carries the UDF shapes from internal/core/udf_test.go fixtures
// that the bench schema does not already define: the single-expression UDF
// (disc), the branching UDF over a threshold (lvl), the conditional cursor
// accumulation (tl), and a table-valued function (bigorders). The
// differential suite, the concurrent server smoke and the udfserverd load
// client all install them on top of Schema+UDFs.
const ExtraUDFs = `
create function disc(float amount) returns float as
begin
  return amount * 0.15;
end

create function lvl(int k) returns varchar as
begin
  float tb; string level;
  select sum(totalprice) into :tb from orders where custkey = :k;
  if (tb > 100000) level = 'Big'; else level = 'Small';
  return level;
end

create function tl(int pkey) returns int as
begin
  int total = 0;
  declare c cursor for select price, qty from lineitem where partkey = :pkey;
  open c;
  fetch next from c into @p, @q;
  while @@FETCH_STATUS = 0
  begin
    if (@p > 10) total = total + @q;
    fetch next from c into @p, @q;
  end
  close c; deallocate c;
  return total;
end

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

// CorpusQuery is one entry of the shared differential/load corpus.
type CorpusQuery struct {
	Name string
	SQL  string
	// WantRewrite: the decorrelator must fully remove the Apply operators.
	WantRewrite bool
}

// Corpus is the query corpus shared by the differential test harness, the
// concurrent server smoke and `udfctl load`. Every UDF defined
// by the bench harness (service_level, discount, partcount, getcost,
// totalloss) and by ExtraUDFs (disc, lvl, tl, bigorders) is invoked at least
// once.
// ShardClass is the expected route class of each corpus query when the
// schema is partitioned per ShardKeys (values match plan.ShardKind.String()).
// The differential verify client asserts routable queries match the
// single-node baseline and rejected ones fail with a typed UNSHARDABLE
// error; internal/plan pins the same table against the classifier.
var ShardClass = map[string]string{
	"straight-line expression UDF":                   "scatter-concat",
	"branching UDF (service_level)":                  "rejected", // UDF body reads orders
	"branching UDF (lvl)":                            "rejected", // UDF body reads orders
	"two scalar queries (discount)":                  "scatter-concat",
	"cursor loop (partcount)":                        "single-shard",
	"cursor loop with nested call (totalloss)":       "rejected", // UDF body reads lineitem
	"cursor accumulation (tl)":                       "rejected", // UDF body reads lineitem
	"nested scalar call (getcost)":                   "single-shard",
	"UDF in predicate":                               "scatter-concat",
	"table-valued UDF":                               "rejected", // TVF body reads orders
	"TVF joined to base table":                       "rejected",
	"correlated scalar subquery (min-cost supplier)": "single-shard",
	"UDF over aggregated input":                      "rejected",
	"plain group by (no UDF)":                        "scatter-merge",
	"scalar aggregate (no UDF)":                      "scatter-merge",
}

var Corpus = []CorpusQuery{
	{"straight-line expression UDF", "select orderkey, disc(totalprice) from orders where orderkey <= 120", true},
	{"branching UDF (service_level)", "select custkey, service_level(custkey) from customer where custkey <= 60", true},
	{"branching UDF (lvl)", "select custkey, lvl(custkey) from customer where custkey <= 40", true},
	{"two scalar queries (discount)", "select orderkey, discount(totalprice, custkey) from orders where orderkey <= 100", true},
	{"cursor loop (partcount)", "select categorykey, partcount(categorykey) from category where categorykey <= 12", true},
	{"cursor loop with nested call (totalloss)", "select partkey, totalloss(partkey) from partsupp where partkey <= 80", true},
	{"cursor accumulation (tl)", "select partkey, tl(partkey) from partsupp where partkey <= 60", true},
	{"nested scalar call (getcost)", "select partkey, getcost(partkey) from partcost where partkey <= 90", true},
	{"UDF in predicate", "select orderkey from orders where disc(totalprice) > 20000", true},
	{"table-valued UDF", "select ckey, price from bigorders(180000.0) b", true},
	{"TVF joined to base table",
		"select c.name, b.price from bigorders(190000.0) b join customer c on c.custkey = b.ckey", true},
	{"correlated scalar subquery (min-cost supplier)",
		`select partsuppkey from partsupp p1
		 where supplycost = (select min(supplycost) from partsupp p2
		                     where p2.partkey = p1.partkey)`, true},
	{"UDF over aggregated input",
		"select category, service_level(category) from customer where custkey <= 50", true},
	{"plain group by (no UDF)",
		"select custkey, count(*), sum(totalprice) from orders where custkey <= 40 group by custkey", false},
	{"scalar aggregate (no UDF)",
		"select count(*), sum(totalprice), min(totalprice), max(totalprice) from orders", false},
}
