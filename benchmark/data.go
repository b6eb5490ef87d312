package main

import (
	"fmt"
	"math/rand"
)

// The benchmark owns its inputs: schema, UDF text and row generator are
// copied here (not imported from internal/bench, which later changes may
// edit), so a run on two commits always loads the same bytes.

// sizes scales the dataset. Every workload runs on fullSize; the smoke test
// uses a small one so that it takes seconds under the race detector.
type sizes struct {
	customers  int64 // x 10 orders, except that every 10th customer places none
	parts      int64 // x 3 lineitems, except that every 11th part never sold
	categories int64
}

// fullSize: 10 000 customers, 90 000 orders, 20 000 parts, 200 categories.
var fullSize = sizes{customers: 10_000, parts: 20_000, categories: 200}

const (
	ordersPerCustomer = 10
	lineitemsPerPart  = 3
)

// orders is the number of rows in the orders table.
func (z sizes) orders() int64 { return (z.customers - z.customers/10) * ordersPerCustomer }

// tableDefs is the TPC-H subset with the paper's augmented attributes.
// shardKey is the hash-partitioning column on the sharded tier ("" =
// replicated to every shard).
var tableDefs = []struct {
	name, cols, shardKey string
}{
	{"customer", "custkey int primary key, name varchar, category int, nationkey int", ""},
	{"orders", "orderkey int primary key, custkey int, totalprice float", "custkey"},
	{"lineitem", "lineitemkey int primary key, partkey int, price float, qty int, disc float", "partkey"},
	{"categorydiscount", "category int primary key, frac_discount float", ""},
	{"partcost", "partkey int primary key, cost float", ""},
	{"part", "partkey int primary key, name varchar, category int", ""},
	{"category", "categorykey int primary key, parent int", ""},
	{"categoryancestor", "rowid int primary key, category int, ancestor int", ""},
	{"bench_kv", "k int primary key, v varchar", ""},
}

// schemaSQL renders the CREATE TABLE script, with SHARD KEY clauses when
// sharded.
func schemaSQL(sharded bool) string {
	out := ""
	for _, t := range tableDefs {
		out += "create table " + t.name + " (" + t.cols + ")"
		if sharded && t.shardKey != "" {
			out += " shard key (" + t.shardKey + ")"
		}
		out += ";\n"
	}
	return out
}

// secondaryIndexes are declared after the schema (table, column).
var secondaryIndexes = [][2]string{
	{"orders", "custkey"},
	{"lineitem", "partkey"},
	{"part", "category"},
	{"categoryancestor", "category"},
	{"customer", "category"},
}

// udfSQL holds the paper's three evaluation UDFs (discount: Fig. 10,
// straight-line with two scalar queries; service_level: Fig. 11, branching;
// partcount: Fig. 12, cursor loop) plus the two small ones the statement
// pool uses (getcost: nested scalar query; disc: pure expression).
const udfSQL = `
create function discount(float amt, int ckey) returns float as
begin
  int custcat; float catdisct, totaldiscount;
  select category into :custcat from customer where custkey = :ckey;
  select frac_discount into :catdisct from categorydiscount where category = :custcat;
  totaldiscount = catdisct * amt;
  return totaldiscount;
end

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

create function partcount(int cat) returns int as
begin
  int total = 0;
  declare c cursor for
    select p.partkey from part p, categoryancestor a
    where a.category = :cat and p.category = a.ancestor;
  open c;
  fetch next from c into @pk;
  while @@FETCH_STATUS = 0
  begin
    total = total + 1;
    fetch next from c into @pk;
  end
  close c; deallocate c;
  return total;
end

create function getcost(int pkey) returns float as
begin
  return select cost from partcost where partkey = :pkey;
end

create function disc(float amount) returns float as
begin
  return amount * 0.15;
end
`

// tableData is one generated table in load order. Cells are int64, float64
// or string; sut.go converts them to the program's row type.
type tableData struct {
	name string
	rows [][]any
}

// userBytes estimates the payload a user handed over: 8 bytes per number,
// the byte length of each string.
func (t tableData) userBytes() int64 {
	var n int64
	for _, r := range t.rows {
		for _, c := range r {
			if s, ok := c.(string); ok {
				n += int64(len(s))
			} else {
				n += 8
			}
		}
	}
	return n
}

// generate builds the dataset. Row counts and key structure are fixed; the
// seed drives every random value (prices, costs, quantities).
func generate(seed int64, z sizes) []tableData {
	rng := rand.New(rand.NewSource(seed))

	customers := make([][]any, 0, z.customers)
	orders := make([][]any, 0, z.orders())
	orderKey := int64(0)
	for c := int64(1); c <= z.customers; c++ {
		customers = append(customers, []any{
			c, fmt.Sprintf("Customer#%09d", c), c % z.categories, c % 25,
		})
		if c%10 == 0 {
			continue
		}
		for o := 0; o < ordersPerCustomer; o++ {
			orderKey++
			price := float64(rng.Intn(200_000)) + float64(rng.Intn(100))/100
			orders = append(orders, []any{orderKey, c, price})
		}
	}

	cats := make([][]any, 0, z.categories)
	var ancestors [][]any
	ancRow := int64(0)
	for cat := int64(1); cat <= z.categories; cat++ {
		cats = append(cats, []any{cat, cat / 2}) // binary hierarchy, 1 is the root
		for a := cat; a >= 1; a /= 2 {
			ancRow++
			ancestors = append(ancestors, []any{ancRow, cat, a})
		}
	}
	catDiscounts := make([][]any, 0, z.categories)
	for cat := int64(0); cat < z.categories; cat++ {
		catDiscounts = append(catDiscounts, []any{cat, 0.01 + float64(cat%20)/100})
	}

	parts := make([][]any, 0, z.parts)
	partcosts := make([][]any, 0, z.parts)
	lineitems := make([][]any, 0, z.parts*lineitemsPerPart)
	liKey := int64(0)
	for p := int64(1); p <= z.parts; p++ {
		parts = append(parts, []any{p, fmt.Sprintf("Part#%09d", p), 1 + p%z.categories})
		partcosts = append(partcosts, []any{p, float64(5 + rng.Intn(95))})
		if p%11 == 0 {
			continue
		}
		for l := 0; l < lineitemsPerPart; l++ {
			liKey++
			lineitems = append(lineitems, []any{
				liKey, p, float64(50 + rng.Intn(500)), int64(1 + rng.Intn(6)), float64(rng.Intn(40)),
			})
		}
	}
	return []tableData{
		{"customer", customers},
		{"orders", orders},
		{"category", cats},
		{"categoryancestor", ancestors},
		{"categorydiscount", catDiscounts},
		{"part", parts},
		{"partcost", partcosts},
		{"lineitem", lineitems},
	}
}
