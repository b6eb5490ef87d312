// Package bench holds the evaluation harness: a deterministic TPC-H-subset
// data generator (with the paper's augmented attributes) and the three
// experiments of Section X, each reproducing one figure of the paper.
package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// Config scales the generated dataset. The paper used TPC-H 10 GB
// (customer 1.5M, orders 15M); the defaults here are laptop-scale with the
// same shape (10 orders per customer, skewless keys).
type Config struct {
	Customers         int
	OrdersPerCustomer int
	Parts             int
	LineitemsPerPart  int
	Categories        int
	Seed              int64
}

// DefaultConfig is the laptop-scale dataset used by the experiment driver.
func DefaultConfig() Config {
	return Config{
		Customers:         50_000,
		OrdersPerCustomer: 10,
		Parts:             200_000,
		LineitemsPerPart:  3,
		Categories:        1000,
		Seed:              20140331, // ICDE 2014
	}
}

// SmallConfig is used by tests and the quickstart example.
func SmallConfig() Config {
	return Config{
		Customers:         500,
		OrdersPerCustomer: 4,
		Parts:             800,
		LineitemsPerPart:  3,
		Categories:        50,
		Seed:              7,
	}
}

// Schema is the TPC-H subset with the paper's augmented attributes
// (customer.category, categorydiscount, part.category and the category
// hierarchy used by Experiment 3).
const Schema = `
create table customer (custkey int primary key, name varchar, category int, nationkey int);
create table orders (orderkey int primary key, custkey int, totalprice float);
create table lineitem (lineitemkey int primary key, partkey int, price float, qty int, disc float);
create table partsupp (partsuppkey int primary key, partkey int, suppkey int, supplycost float);
create table categorydiscount (category int primary key, frac_discount float);
create table partcost (partkey int primary key, cost float);
create table part (partkey int primary key, name varchar, category int);
create table category (categorykey int primary key, parent int);
create table categoryancestor (rowid int primary key, category int, ancestor int);
`

// UDFs are the workload functions of the three experiments.
const UDFs = `
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

create function discount(float amt, int ckey) returns float as
begin
  int custcat; float catdisct, totaldiscount;
  select category into :custcat from customer where custkey = :ckey;
  select frac_discount into :catdisct from categorydiscount where category = :custcat;
  totaldiscount = catdisct * amt;
  return totaldiscount;
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

// NewEngine builds an engine with schema, UDFs, secondary indexes and data.
func NewEngine(profile engine.Profile, mode engine.Mode, cfg Config) (*engine.Engine, error) {
	e := engine.New(profile, mode)
	if err := Populate(e, cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Populate installs the bench schema, UDFs, secondary indexes and generated
// data on an existing (possibly durable) engine.
func Populate(e *engine.Engine, cfg Config) error {
	if err := e.ExecScript(Schema + UDFs); err != nil {
		return err
	}
	for _, ix := range [][2]string{
		{"orders", "custkey"},
		{"lineitem", "partkey"},
		{"part", "category"},
		{"categoryancestor", "category"},
		{"customer", "category"},
	} {
		if err := e.CreateIndex(ix[0], ix[1]); err != nil {
			return err
		}
	}
	return Load(e, cfg)
}

// TableData is one generated table's rows, in insertion order.
type TableData struct {
	Name string
	Rows []storage.Row
}

// ShardKeys is the hash-partitioning the sharded tier uses for this schema:
// the two large fact tables partition by the key their workload correlates
// on (orders per customer, lineitem per part); every other table is small
// reference data and is replicated to all shards.
var ShardKeys = map[string]string{
	"orders":   "custkey",
	"lineitem": "partkey",
}

// ShardedSchema is Schema re-rendered with SHARD KEY declarations from
// ShardKeys, for loading through the shard router. Parsing and re-rendering
// (rather than string surgery) keeps it correct if Schema changes.
func ShardedSchema() (string, error) {
	script, err := parser.ParseScript(Schema)
	if err != nil {
		return "", fmt.Errorf("bench schema does not parse: %w", err)
	}
	var b strings.Builder
	for _, t := range script.Tables {
		if key, ok := ShardKeys[t.Name]; ok {
			t.ShardKey = key
		}
		b.WriteString(t.SQL())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Load fills all tables deterministically from the config.
func Load(e *engine.Engine, cfg Config) error {
	for _, t := range Generate(cfg) {
		if err := e.Load(t.Name, t.Rows); err != nil {
			return err
		}
	}
	return nil
}

// Generate produces the deterministic dataset as rows per table, in load
// order. It is shared by Load (single node, rows straight into storage) and
// `udfctl loadcorpus` (same rows rendered as INSERT literals through a
// router), so a sharded cluster and a single-node baseline hold
// bit-identical data.
func Generate(cfg Config) []TableData {
	rng := rand.New(rand.NewSource(cfg.Seed))

	customers := make([]storage.Row, 0, cfg.Customers)
	orders := make([]storage.Row, 0, cfg.Customers*cfg.OrdersPerCustomer)
	orderKey := int64(0)
	for c := 1; c <= cfg.Customers; c++ {
		customers = append(customers, storage.Row{
			sqltypes.NewInt(int64(c)),
			sqltypes.NewString(fmt.Sprintf("Customer#%09d", c)),
			sqltypes.NewInt(int64(c % cfg.Categories)),
			sqltypes.NewInt(int64(c % 25)),
		})
		if c%10 == 0 {
			continue // ~10% of customers place no orders
		}
		for o := 0; o < cfg.OrdersPerCustomer; o++ {
			orderKey++
			orders = append(orders, storage.Row{
				sqltypes.NewInt(orderKey),
				sqltypes.NewInt(int64(c)),
				sqltypes.NewFloat(float64(rng.Intn(200_000)) + float64(rng.Intn(100))/100),
			})
		}
	}
	cats := make([]storage.Row, 0, cfg.Categories)
	ancestors := make([]storage.Row, 0, cfg.Categories*8)
	ancRow := int64(0)
	for cat := 1; cat <= cfg.Categories; cat++ {
		parent := cat / 2 // binary hierarchy; category 1 is the root
		cats = append(cats, storage.Row{
			sqltypes.NewInt(int64(cat)),
			sqltypes.NewInt(int64(parent)),
		})
		// Closure: cat's ancestors including itself.
		for a := cat; a >= 1; a /= 2 {
			ancRow++
			ancestors = append(ancestors, storage.Row{
				sqltypes.NewInt(ancRow),
				sqltypes.NewInt(int64(cat)),
				sqltypes.NewInt(int64(a)),
			})
			if a == 1 {
				break
			}
		}
	}
	catDiscounts := make([]storage.Row, 0, cfg.Categories)
	for cat := 0; cat < cfg.Categories; cat++ {
		catDiscounts = append(catDiscounts, storage.Row{
			sqltypes.NewInt(int64(cat)),
			sqltypes.NewFloat(0.01 + float64(cat%20)/100),
		})
	}
	parts := make([]storage.Row, 0, cfg.Parts)
	partcosts := make([]storage.Row, 0, cfg.Parts)
	partsupps := make([]storage.Row, 0, cfg.Parts)
	lineitems := make([]storage.Row, 0, cfg.Parts*cfg.LineitemsPerPart)
	liKey := int64(0)
	for p := 1; p <= cfg.Parts; p++ {
		parts = append(parts, storage.Row{
			sqltypes.NewInt(int64(p)),
			sqltypes.NewString(fmt.Sprintf("Part#%09d", p)),
			sqltypes.NewInt(int64(1 + p%cfg.Categories)),
		})
		partcosts = append(partcosts, storage.Row{
			sqltypes.NewInt(int64(p)),
			sqltypes.NewFloat(float64(5 + rng.Intn(95))),
		})
		partsupps = append(partsupps, storage.Row{
			sqltypes.NewInt(int64(p)),
			sqltypes.NewInt(int64(p)),
			sqltypes.NewInt(int64(p % 100)),
			sqltypes.NewFloat(float64(rng.Intn(1000)) / 10),
		})
		if p%11 == 0 {
			continue // parts that never sold
		}
		for l := 0; l < cfg.LineitemsPerPart; l++ {
			liKey++
			lineitems = append(lineitems, storage.Row{
				sqltypes.NewInt(liKey),
				sqltypes.NewInt(int64(p)),
				sqltypes.NewFloat(float64(50 + rng.Intn(500))),
				sqltypes.NewInt(int64(1 + rng.Intn(6))),
				sqltypes.NewFloat(float64(rng.Intn(40))),
			})
		}
	}
	return []TableData{
		{"customer", customers},
		{"orders", orders},
		{"category", cats},
		{"categoryancestor", ancestors},
		{"categorydiscount", catDiscounts},
		{"part", parts},
		{"partcost", partcosts},
		{"partsupp", partsupps},
		{"lineitem", lineitems},
	}
}
