package engine_test

// Differential test harness: every rewrite the decorrelator performs must be
// observationally equivalent to iterative execution. For a corpus of queries
// covering all the paper's UDF shapes (straight-line, branching, cursor
// loops, nested calls, table-valued functions, plain correlated subqueries)
// the harness runs, on both engine profiles (SYS1/SYS2) and both executors
// (row and vectorized batch):
//
//  1. the original SQL iteratively (ground truth),
//  2. the original SQL in rewrite mode (decorrelated plan),
//  3. the decorrelated SQL text emitted by RewriteSQL + sqlgen, executed
//     verbatim on a ModeIterative engine (the rewrite *tool* contract),
//
// and asserts row-multiset equality between all three. Randomized datasets
// generated by internal/bench/datagen.go (multiple seeds and shapes) harden
// the corpus against fixture overfitting.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/sqlgen"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// differentialCorpus aliases the shared corpus (internal/bench), which the
// concurrent server smoke and `udfctl load` replay too.
var differentialCorpus = bench.Corpus

// diffEngine builds an engine over the bench dataset with the extra fixture
// UDFs installed.
func diffEngine(t *testing.T, profile engine.Profile, mode engine.Mode, cfg bench.Config) *engine.Engine {
	t.Helper()
	e, err := bench.NewEngine(profile, mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ExecScript(bench.ExtraUDFs); err != nil {
		t.Fatal(err)
	}
	return e
}

// assertSameRowMultiset compares results order-insensitively.
func assertSameRowMultiset(t *testing.T, label string, a, b []storage.Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row counts differ: %d vs %d", label, len(a), len(b))
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
			t.Fatalf("%s: row multiset mismatch (key %x: %+d)", label, k, v)
		}
	}
}

// runDifferential executes the corpus against one (profile, vectorized)
// engine configuration over the given dataset.
func runDifferential(t *testing.T, profile engine.Profile, cfg bench.Config) {
	t.Helper()
	iter := diffEngine(t, profile, engine.ModeIterative, cfg)
	rewr := diffEngine(t, profile, engine.ModeRewrite, cfg)
	checkCorpus(t, differentialCorpus, iter, rewr)
}

// checkCorpus runs every query of a corpus on iter (the ground truth) and on
// each of the other engines, then runs its decorrelated SQL text on iter, and
// asserts all of them return the same rows. An engine in rewrite mode must
// decorrelate the queries that want it.
func checkCorpus(t *testing.T, corpus []bench.CorpusQuery, iter *engine.Engine, others ...*engine.Engine) {
	t.Helper()
	for _, q := range corpus {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			orig, err := iter.Query(q.SQL)
			if err != nil {
				t.Fatalf("iterative: %v", err)
			}
			// 1. Every other mode must agree with the iterative ground truth.
			for _, e := range others {
				rw, err := e.Query(q.SQL)
				if err != nil {
					t.Fatalf("%s mode: %v", e.Mode, err)
				}
				if e.Mode == engine.ModeRewrite && q.WantRewrite && !rw.Rewritten {
					res, _ := e.RewriteSQL(q.SQL)
					trace := ""
					if res != nil && len(res.Trace) > 0 {
						trace = "\nlast trace: " + res.Trace[len(res.Trace)-1]
					}
					t.Fatalf("expected decorrelation%s", trace)
				}
				assertSameRowMultiset(t, "iterative vs "+e.Mode.String()+"-mode", orig.Rows, rw.Rows)
			}

			// 2. The emitted decorrelated SQL, run verbatim on the iterative
			// engine, must also agree (the rewrite-tool contract).
			res, err := iter.RewriteSQL(q.SQL)
			if err != nil {
				t.Fatalf("RewriteSQL: %v", err)
			}
			if !res.Decorrelated {
				return // nothing more to check for non-rewriting queries
			}
			sql, err := sqlgen.Generate(res.Rel)
			if err != nil {
				t.Fatalf("sqlgen: %v", err)
			}
			for _, agg := range res.NewAggs {
				if _, exists := iter.Cat.Aggregate(agg.Name); !exists {
					if err := iter.Cat.AddAggregate(agg); err != nil {
						t.Fatal(err)
					}
				}
			}
			again, err := iter.Query(sql)
			if err != nil {
				t.Fatalf("generated SQL failed: %v\n%s", err, sql)
			}
			assertSameRowMultiset(t, "iterative vs generated SQL", orig.Rows, again.Rows)
		})
	}
}

// keyRestrictVariants restrict the outer key of the UDF shapes whose rewrite
// joins a group-by on that key: the branching UDF (service_level) and the
// cursor loops (totalloss, partcount). The rule key-restrict-across-join
// copies the restriction below the aggregate, or declines where the range
// covers every key. They stay out of bench.Corpus so that the shard-class
// table does not move.
var keyRestrictVariants = func() []bench.CorpusQuery {
	shapes := []struct{ name, sql, key string }{
		{"service_level", "select custkey, service_level(custkey) from customer where ", "custkey"},
		{"totalloss", "select partkey, totalloss(partkey) from partsupp where ", "partkey"},
		{"partcount", "select categorykey, partcount(categorykey) from category where ", "categorykey"},
	}
	restrictions := []struct{ name, pred string }{
		{"point", "%s = 17"},
		{"range", "%s between 20 and 35"},
		{"empty range", "%s between 10 and 5"},
		{"whole domain", "%s between -5 and 100000"},
		{"float bound", "%s <= 15.5"},
		{"excluded key", "%[1]s <> 7 and %[1]s < 12"},
	}
	var out []bench.CorpusQuery
	for _, s := range shapes {
		for _, r := range restrictions {
			out = append(out, bench.CorpusQuery{Name: s.name + "/" + r.name,
				SQL: s.sql + fmt.Sprintf(r.pred, s.key), WantRewrite: true})
		}
	}
	return out
}()

// nullInnerKeys adds inner rows whose join key is NULL to the tables the
// key-restrict variants aggregate: they must never join, restricted or not.
const nullInnerKeys = `
insert into orders values (9000001, null, 1500000.0);
insert into lineitem values (9000001, null, 1.0, 7, 50.0);
insert into categoryancestor values (9000001, null, 1);
insert into part values (9000001, 'nullcat', null);
`

// TestDifferentialKeyRestrict runs the key-restrict variants in every mode
// (iterative, rewrite, cost-based), on both executors, and as generated SQL,
// with and without NULL inner keys.
func TestDifferentialKeyRestrict(t *testing.T) {
	cfg := bench.SmallConfig()
	for _, nullKeys := range []bool{false, true} {
		for _, vectorized := range []bool{false, true} {
			profile := engine.SYS1
			profile.Vectorized = vectorized
			t.Run(fmt.Sprintf("nullkeys=%v/vectorized=%v", nullKeys, vectorized), func(t *testing.T) {
				var engines []*engine.Engine
				for _, mode := range []engine.Mode{engine.ModeIterative, engine.ModeRewrite, engine.ModeCostBased} {
					e := diffEngine(t, profile, mode, cfg)
					if nullKeys {
						if err := e.ExecScript(nullInnerKeys); err != nil {
							t.Fatal(err)
						}
					}
					engines = append(engines, e)
				}
				checkCorpus(t, keyRestrictVariants, engines[0], engines[1:]...)
			})
		}
	}
}

// TestDifferentialCorpus runs the corpus on both profiles and both
// executors over the deterministic seed dataset.
func TestDifferentialCorpus(t *testing.T) {
	cfg := bench.SmallConfig()
	for _, profile := range []engine.Profile{engine.SYS1, engine.SYS2} {
		for _, vectorized := range []bool{false, true} {
			profile := profile
			profile.Vectorized = vectorized
			name := fmt.Sprintf("%s/vectorized=%v", profile.Name, vectorized)
			t.Run(name, func(t *testing.T) {
				runDifferential(t, profile, cfg)
			})
		}
	}
}

// TestDifferentialRowVsVectorized pins the two executors against each other
// directly: identical results for the whole corpus in both modes.
func TestDifferentialRowVsVectorized(t *testing.T) {
	cfg := bench.SmallConfig()
	for _, mode := range []engine.Mode{engine.ModeIterative, engine.ModeRewrite} {
		rowEng := diffEngine(t, engine.SYS1, mode, cfg)
		vecProfile := engine.SYS1
		vecProfile.Vectorized = true
		vecEng := diffEngine(t, vecProfile, mode, cfg)
		for _, q := range differentialCorpus {
			q := q
			t.Run(fmt.Sprintf("%s/%s", mode, q.Name), func(t *testing.T) {
				rr, err := rowEng.Query(q.SQL)
				if err != nil {
					t.Fatalf("row executor: %v", err)
				}
				vr, err := vecEng.Query(q.SQL)
				if err != nil {
					t.Fatalf("vectorized executor: %v", err)
				}
				assertSameRowMultiset(t, "row vs vectorized", rr.Rows, vr.Rows)
			})
		}
	}
}

// TestDifferentialIndexed re-runs the corpus with secondary hash indexes
// declared on every join/filter column of the bench schema, asserting that
// indexed plans (IndexLookup probes where the planner chooses them) return
// exactly the unindexed baseline's rows on both executors and in both
// execution modes.
func TestDifferentialIndexed(t *testing.T) {
	cfg := bench.SmallConfig()
	indexes := [][2]string{
		{"customer", "custkey"}, {"customer", "category"},
		{"orders", "custkey"},
		{"lineitem", "partkey"},
		{"partsupp", "partkey"},
		{"partcost", "partkey"},
		{"part", "partkey"}, {"part", "category"},
		{"categorydiscount", "category"},
		{"category", "categorykey"}, {"category", "parent"},
		{"categoryancestor", "category"}, {"categoryancestor", "ancestor"},
	}
	for _, vectorized := range []bool{false, true} {
		profile := engine.SYS1
		profile.Vectorized = vectorized
		for _, mode := range []engine.Mode{engine.ModeIterative, engine.ModeRewrite} {
			base := diffEngine(t, profile, mode, cfg)
			indexed := diffEngine(t, profile, mode, cfg)
			for _, ix := range indexes {
				if err := indexed.CreateIndex(ix[0], ix[1]); err != nil {
					t.Fatalf("create index %s(%s): %v", ix[0], ix[1], err)
				}
			}
			for _, q := range differentialCorpus {
				q := q
				t.Run(fmt.Sprintf("vectorized=%v/%s/%s", vectorized, mode, q.Name), func(t *testing.T) {
					want, err := base.Query(q.SQL)
					if err != nil {
						t.Fatalf("unindexed: %v", err)
					}
					got, err := indexed.Query(q.SQL)
					if err != nil {
						t.Fatalf("indexed: %v", err)
					}
					assertSameRowMultiset(t, "unindexed vs indexed", want.Rows, got.Rows)
				})
			}
		}
	}
}

// TestDifferentialRandomized re-runs the corpus over randomized datasets:
// several seeds and dataset shapes from the bench generator, so value
// distributions (order totals, category hierarchies, null-free keys) vary.
func TestDifferentialRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential suite skipped in -short mode")
	}
	shapes := []bench.Config{
		{Customers: 120, OrdersPerCustomer: 2, Parts: 150, LineitemsPerPart: 2, Categories: 16, Seed: 1},
		{Customers: 75, OrdersPerCustomer: 7, Parts: 90, LineitemsPerPart: 5, Categories: 9, Seed: 2},
		{Customers: 33, OrdersPerCustomer: 1, Parts: 40, LineitemsPerPart: 1, Categories: 4, Seed: 3},
	}
	for i, cfg := range shapes {
		for _, seed := range []int64{11, 20140331} {
			cfg := cfg
			cfg.Seed = seed
			profile := engine.SYS1
			profile.Vectorized = i%2 == 1 // alternate executors across shapes
			t.Run(fmt.Sprintf("shape=%d/seed=%d", i, seed), func(t *testing.T) {
				runDifferential(t, profile, cfg)
			})
		}
	}
}

// TestDifferentialExplainAnalyze asserts the EXPLAIN ANALYZE instrumentation
// is observationally free: every corpus query returns the identical row
// multiset under profiling as under plain execution, on both executors, and
// the annotated plan carries per-operator stats.
func TestDifferentialExplainAnalyze(t *testing.T) {
	cfg := bench.SmallConfig()
	for _, vectorized := range []bool{false, true} {
		tag := "row"
		if vectorized {
			tag = "vectorized"
		}
		profile := engine.SYS1
		profile.Vectorized = vectorized
		e := diffEngine(t, profile, engine.ModeRewrite, cfg)
		for _, q := range differentialCorpus {
			q := q
			t.Run(tag+"/"+q.Name, func(t *testing.T) {
				want, err := e.Query(q.SQL)
				if err != nil {
					t.Fatalf("plain: %v", err)
				}
				p, err := e.Prepare(q.SQL)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := e.Run(context.Background(), p, engine.RunOpts{Analyze: true})
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				got, err := rows.Materialize()
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				assertSameRowMultiset(t, "plain vs analyze", want.Rows, got.Rows)
				if plan := rows.Analyze(); !strings.Contains(plan, "rows=") || !strings.Contains(plan, "time=") {
					t.Errorf("analyze plan missing per-operator stats:\n%s", plan)
				}
			})
		}
	}
}
