// Package udfdecorr's root benchmarks regenerate the paper's evaluation as
// testing.B benchmarks: one benchmark pair (Original vs Rewritten) per
// figure, on both engine profiles, plus ablation benchmarks for the
// physical-operator choices the cost model makes.
//
//	go test -bench=. -benchmem
package udfdecorr_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

// benchCfg is a mid-scale dataset: large enough that the iterative and
// set-oriented regimes separate, small enough for a benchmark run.
var benchCfg = bench.Config{
	Customers:         10_000,
	OrdersPerCustomer: 5,
	Parts:             20_000,
	LineitemsPerPart:  3,
	Categories:        200,
	Seed:              20140331,
}

// engines are built once per profile/mode pair and reused across benchmarks.
var engineCache = map[string]*engine.Engine{}

func getEngine(b *testing.B, profile engine.Profile, mode engine.Mode) *engine.Engine {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%v/%d", profile.Name, mode, profile.Vectorized, profile.Parallelism)
	if e, ok := engineCache[key]; ok {
		return e
	}
	e, err := bench.NewEngine(profile, mode, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	engineCache[key] = e
	return e
}

func runQuery(b *testing.B, e *engine.Engine, q string) {
	b.Helper()
	// Warm up (build indexes, statistics, cached plans).
	if _, err := e.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------------------
// Figure 10 (Experiment 1): straight-line UDF with two scalar queries.
// --------------------------------------------------------------------------

func benchExp1(b *testing.B, mode engine.Mode, n int) {
	e := getEngine(b, engine.SYS1, mode)
	runQuery(b, e, fmt.Sprintf(
		"select top %d orderkey, discount(totalprice, custkey) from orders", n))
}

func BenchmarkExperiment1_Original(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchExp1(b, engine.ModeIterative, n) })
	}
}

func BenchmarkExperiment1_Rewritten(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchExp1(b, engine.ModeRewrite, n) })
	}
}

// --------------------------------------------------------------------------
// Figure 11 (Experiment 2): Example 1's service_level UDF.
// --------------------------------------------------------------------------

func benchExp2(b *testing.B, mode engine.Mode, n int) {
	e := getEngine(b, engine.SYS1, mode)
	runQuery(b, e, fmt.Sprintf(
		"select custkey, service_level(custkey) from customer where custkey <= %d", n))
}

func BenchmarkExperiment2_Original(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchExp2(b, engine.ModeIterative, n) })
	}
}

func BenchmarkExperiment2_Rewritten(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchExp2(b, engine.ModeRewrite, n) })
	}
}

// SYS2: the profile without embedded-plan caching (larger iterative gap).
func BenchmarkExperiment2_SYS2_Original(b *testing.B) {
	e := getEngine(b, engine.SYS2, engine.ModeIterative)
	runQuery(b, e, "select custkey, service_level(custkey) from customer where custkey <= 1000")
}

func BenchmarkExperiment2_SYS2_Rewritten(b *testing.B) {
	e := getEngine(b, engine.SYS2, engine.ModeRewrite)
	runQuery(b, e, "select custkey, service_level(custkey) from customer where custkey <= 1000")
}

// --------------------------------------------------------------------------
// Figure 12 (Experiment 3): cursor-loop UDF with an auxiliary aggregate.
// --------------------------------------------------------------------------

func benchExp3(b *testing.B, mode engine.Mode, n int) {
	e := getEngine(b, engine.SYS1, mode)
	runQuery(b, e, fmt.Sprintf(
		"select categorykey, partcount(categorykey) from category where categorykey <= %d", n))
}

func BenchmarkExperiment3_Original(b *testing.B) {
	for _, n := range []int{5, 50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchExp3(b, engine.ModeIterative, n) })
	}
}

func BenchmarkExperiment3_Rewritten(b *testing.B) {
	for _, n := range []int{5, 50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchExp3(b, engine.ModeRewrite, n) })
	}
}

// --------------------------------------------------------------------------
// Ablations: physical operator choices behind the figures.
// --------------------------------------------------------------------------

// The Example 5 workload (aux-aggregate join) rounds out the loop coverage.
func BenchmarkExample5TotalLoss_Original(b *testing.B) {
	e := getEngine(b, engine.SYS1, engine.ModeIterative)
	runQuery(b, e, "select top 500 partkey, totalloss(partkey) from partsupp")
}

func BenchmarkExample5TotalLoss_Rewritten(b *testing.B) {
	e := getEngine(b, engine.SYS1, engine.ModeRewrite)
	runQuery(b, e, "select top 500 partkey, totalloss(partkey) from partsupp")
}

// Plain-SQL subquery decorrelation (Section II's min-cost supplier).
func BenchmarkSubqueryDecorrelation_Original(b *testing.B) {
	e := getEngine(b, engine.SYS1, engine.ModeIterative)
	runQuery(b, e, `select partsuppkey from partsupp p1
	  where supplycost = (select min(supplycost) from partsupp p2
	                      where p2.partkey = p1.partkey)`)
}

func BenchmarkSubqueryDecorrelation_Rewritten(b *testing.B) {
	e := getEngine(b, engine.SYS1, engine.ModeRewrite)
	runQuery(b, e, `select partsuppkey from partsupp p1
	  where supplycost = (select min(supplycost) from partsupp p2
	                      where p2.partkey = p1.partkey)`)
}

// Rewrite-pipeline cost itself: how long decorrelating Example 1 takes.
func BenchmarkRewritePipeline(b *testing.B) {
	e := getEngine(b, engine.SYS1, engine.ModeRewrite)
	q := "select custkey, service_level(custkey) from customer"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.RewriteSQL(q)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Decorrelated {
			b.Fatal("not decorrelated")
		}
	}
}

// --------------------------------------------------------------------------
// Executor ablation: row vs. vectorized batch pipeline on scan/filter-heavy
// queries (no UDFs), isolating the executor's per-row dispatch overhead.
// --------------------------------------------------------------------------

// scanFilterQuery streams every order through an arithmetic-heavy filter and
// projection: the shape that separates tuple-at-a-time interpretation (an
// interface call plus several closure invocations per row) from the batch
// pipeline (tight per-column loops).
const scanFilterQuery = `select orderkey, totalprice * 0.97 - 250.0 from orders
  where totalprice * 1.21 + 500.0 > 60500.0 and totalprice * 1.21 + 500.0 < 90750.0`

func benchScanFilter(b *testing.B, vectorized bool) {
	profile := engine.SYS1
	profile.Vectorized = vectorized
	e := getEngine(b, profile, engine.ModeIterative)
	runQuery(b, e, scanFilterQuery)
}

func BenchmarkScanFilterProject_Row(b *testing.B)        { benchScanFilter(b, false) }
func BenchmarkScanFilterProject_Vectorized(b *testing.B) { benchScanFilter(b, true) }

// The same ablation over a hash join: orders joined to their customers.
const joinQuery = `select o.orderkey, c.name from orders o
  join customer c on c.custkey = o.custkey where o.totalprice > 100000`

func benchJoin(b *testing.B, vectorized bool) {
	profile := engine.SYS1
	profile.Vectorized = vectorized
	e := getEngine(b, profile, engine.ModeIterative)
	runQuery(b, e, joinQuery)
}

func BenchmarkHashJoin_Row(b *testing.B)        { benchJoin(b, false) }
func BenchmarkHashJoin_Vectorized(b *testing.B) { benchJoin(b, true) }

// Decorrelated Experiment 2 on both executors: the rewritten plan is itself
// scan/aggregation-heavy, so the batch path compounds the paper's speedup.
func BenchmarkExperiment2Rewritten_VectorizedExecutor(b *testing.B) {
	profile := engine.SYS1
	profile.Vectorized = true
	e := getEngine(b, profile, engine.ModeRewrite)
	runQuery(b, e, "select custkey, service_level(custkey) from customer where custkey <= 10000")
}

// The decorrelated paper predicates on the vectorized executor, as the
// paper_rewritten workload issues them: Fig. 10's discount and Fig. 11's
// service_level (a CASE after the rewrite) in a filter, over every order or
// customer. Their allocation ceilings bound the batch expression forms the
// rewritten plans run (value vectors, truth vectors and the row bridge).
func BenchmarkPaperPredicates_Vectorized(b *testing.B) {
	profile := engine.SYS1
	profile.Vectorized = true
	e := getEngine(b, profile, engine.ModeRewrite)
	for _, c := range []struct{ name, q string }{
		{"exp1", "select orderkey from orders where discount(totalprice, custkey) > 33000"},
		{"exp2", "select custkey from customer where service_level(custkey) = 'Gold' and custkey > -3"},
	} {
		b.Run(c.name, func(b *testing.B) { runQuery(b, e, c.q) })
	}
}

// Cost-based mode (the integration the paper argues for): small inputs run
// iteratively, large ones through the rewrite.
func BenchmarkCostBasedSmall(b *testing.B) {
	e := getEngine(b, engine.SYS1, engine.ModeCostBased)
	runQuery(b, e, "select custkey, service_level(custkey) from customer where custkey <= 10")
}

func BenchmarkCostBasedLarge(b *testing.B) {
	e := getEngine(b, engine.SYS1, engine.ModeCostBased)
	runQuery(b, e, "select custkey, service_level(custkey) from customer where custkey <= 10000")
}

// --------------------------------------------------------------------------
// Read after write: an indexed point lookup on a table that just grew.
// --------------------------------------------------------------------------

// BenchmarkIndexLookupAfterWrite appends 32 rows to a 40 960-row keyed table
// (timer stopped), then runs one cached primary-key lookup through the
// engine. Every append publishes a new table version, so this measures what
// the first probe after a write pays: extending the shared index by the
// appended rows. Its allocs/op is gated: an index rebuilt per version
// allocates a whole table's worth of buckets per op.
func BenchmarkIndexLookupAfterWrite(b *testing.B) {
	const rows, batch = 40_960, 32
	e := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := e.ExecScript("create table kv (k int primary key, v int)"); err != nil {
		b.Fatal(err)
	}
	tab := e.Store.MustTable("kv")
	next := 0
	appendRows := func(n int) {
		batchRows := make([]storage.Row, n)
		for i := range batchRows {
			batchRows[i] = storage.Row{sqltypes.NewInt(int64(next)), sqltypes.NewInt(int64(2 * next))}
			next++
		}
		if err := tab.Append(batchRows...); err != nil {
			b.Fatal(err)
		}
	}
	appendRows(rows)
	p, err := e.Prepare("select v from kv where k = 12345")
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(strings.Join(p.Choices, " "), "IndexLookup(kv.k)") {
		b.Fatalf("lookup is not an index probe: %v", p.Choices)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		appendRows(batch)
		b.StartTimer()
		rows, err := e.Run(context.Background(), p, engine.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := rows.Materialize()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("lookup returned %d rows", len(res.Rows))
		}
	}
}

// --------------------------------------------------------------------------
// Query service throughput: concurrent sessions over one shared service.
// --------------------------------------------------------------------------

var (
	benchSvcOnce sync.Once
	benchSvc     *server.Service
	benchSvcErr  error
)

// serverService builds (once) a query service over the small bench dataset
// with the shared corpus UDFs installed.
func serverService(b *testing.B) *server.Service {
	benchSvcOnce.Do(func() {
		boot, err := bench.NewEngine(engine.SYS1, engine.ModeRewrite, bench.SmallConfig())
		if err != nil {
			benchSvcErr = err
			return
		}
		if err := boot.ExecScript(bench.ExtraUDFs); err != nil {
			benchSvcErr = err
			return
		}
		benchSvc = server.NewServiceFromEngine(boot, server.DefaultOptions())
	})
	if benchSvcErr != nil {
		b.Fatal(benchSvcErr)
	}
	return benchSvc
}

// BenchmarkServerParallel measures end-to-end service throughput (plan-cache
// lookup + concurrent execution) with one session per worker goroutine, all
// replaying the shared differential corpus against cached plans. This is the
// throughput-scaling axis (clients × executor × mode) the daemon serves.
func BenchmarkServerParallel(b *testing.B) {
	svc := serverService(b)
	profile := engine.SYS1
	profile.Vectorized = true
	// Warm the cache so the steady state measures the repeat-query path.
	warm := svc.CreateSession(profile, engine.ModeRewrite)
	for _, q := range bench.Corpus {
		if _, err := svc.Query(warm, q.SQL); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := svc.CreateSession(profile, engine.ModeRewrite)
		i := 0
		for pb.Next() {
			q := bench.Corpus[i%len(bench.Corpus)]
			i++
			if _, err := svc.Query(sess, q.SQL); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --------------------------------------------------------------------------
// Intra-query parallelism: scan-heavy grouped aggregation, serial vs
// morsel-driven parallel vectorized execution (the `experiments
// -parallelbench` JSON report measures the same pair standalone).
// --------------------------------------------------------------------------

func benchParallelGroupBy(b *testing.B, degree int) {
	profile := engine.SYS1
	profile.Vectorized = true
	profile.Parallelism = degree
	e := getEngine(b, profile, engine.ModeIterative)
	runQuery(b, e, "select custkey, count(*), sum(totalprice), max(totalprice) from orders group by custkey")
}

func BenchmarkParallelGroupBy_Serial(b *testing.B)    { benchParallelGroupBy(b, 0) }
func BenchmarkParallelGroupBy_Parallel4(b *testing.B) { benchParallelGroupBy(b, 4) }
