package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"udfdecorr/internal/engine"
)

// ParallelBenchResult is the serial-vs-parallel vectorized comparison
// emitted as BENCH_parallel.json by `experiments -parallelbench`. Speedup
// is parallel QPS over serial QPS; GOMAXPROCS is recorded because the
// speedup is bounded by the cores actually available (a 1-core container
// cannot show one).
type ParallelBenchResult struct {
	Query         string  `json:"query"`
	DatasetRows   int     `json:"dataset_rows"`
	Groups        int     `json:"groups"`
	Parallelism   int     `json:"parallelism"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	SerialMSPerQ  float64 `json:"serial_ms_per_query"`
	ParallelMSPer float64 `json:"parallel_ms_per_query"`
	SerialQPS     float64 `json:"serial_qps"`
	ParallelQPS   float64 `json:"parallel_qps"`
	Speedup       float64 `json:"speedup"`
}

// parallelBenchQuery is a scan-heavy grouped aggregation: wide scan, cheap
// predicate-free pipeline into a grouped sum/count/min — the shape the
// decorrelated UDF rewrites produce and the one intra-query parallelism
// targets first.
const parallelBenchQuery = "select custkey, count(*), sum(totalprice), max(totalprice) from orders group by custkey"

// ParallelBenchConfig is the dataset for the parallel benchmark: enough
// order rows that a query runs tens of milliseconds serially, and few
// enough groups that the serial merge phase stays a small fraction of the
// scan work.
func ParallelBenchConfig() Config {
	return Config{
		Customers:         2_000,
		OrdersPerCustomer: 150, // 300k order rows
		Parts:             100,
		LineitemsPerPart:  1,
		Categories:        10,
		Seed:              20140331,
	}
}

// runToEnd executes a prepared plan and materializes its result.
func runToEnd(e *engine.Engine, prep *engine.Prepared) (*engine.Result, error) {
	rows, err := e.Run(context.Background(), prep, engine.RunOpts{})
	if err != nil {
		return nil, err
	}
	return rows.Materialize()
}

// timeQuery runs a prepared plan repeatedly for at least minWall (and at
// least 3 iterations), returning the best per-query duration.
func timeQuery(e *engine.Engine, prep *engine.Prepared, minWall time.Duration) (time.Duration, int, error) {
	best := time.Duration(0)
	iters := 0
	rows := 0
	start := time.Now()
	for iters < 3 || time.Since(start) < minWall {
		t0 := time.Now()
		res, err := runToEnd(e, prep)
		if err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		if best == 0 || d < best {
			best = d
			rows = len(res.Rows)
		}
		iters++
	}
	return best, rows, nil
}

// RunParallelBench measures serial vs parallel vectorized execution of the
// grouped-aggregation benchmark over one shared dataset.
func RunParallelBench(cfg Config, degree int) (*ParallelBenchResult, error) {
	if degree < 2 {
		degree = 4
	}
	boot, err := NewEngine(engine.SYS1, engine.ModeIterative, cfg)
	if err != nil {
		return nil, err
	}
	serialProfile := engine.SYS1
	serialProfile.Vectorized = true
	serial := engine.NewShared(boot.Cat, boot.Store, serialProfile, engine.ModeIterative)
	parProfile := serialProfile
	parProfile.Parallelism = degree
	parallel := engine.NewShared(boot.Cat, boot.Store, parProfile, engine.ModeIterative)

	serialPrep, err := serial.Prepare(parallelBenchQuery)
	if err != nil {
		return nil, err
	}
	parallelPrep, err := parallel.Prepare(parallelBenchQuery)
	if err != nil {
		return nil, err
	}
	// Warm up (index/statistics builds, allocator steady state).
	if _, err := runToEnd(serial, serialPrep); err != nil {
		return nil, err
	}
	if _, err := runToEnd(parallel, parallelPrep); err != nil {
		return nil, err
	}

	const minWall = 2 * time.Second
	serialBest, serialGroups, err := timeQuery(serial, serialPrep, minWall)
	if err != nil {
		return nil, err
	}
	parallelBest, parallelGroups, err := timeQuery(parallel, parallelPrep, minWall)
	if err != nil {
		return nil, err
	}
	if serialGroups != parallelGroups {
		return nil, fmt.Errorf("parallel bench: group counts differ (%d vs %d)", serialGroups, parallelGroups)
	}

	orders := cfg.Customers * cfg.OrdersPerCustomer
	res := &ParallelBenchResult{
		Query:         parallelBenchQuery,
		DatasetRows:   orders,
		Groups:        serialGroups,
		Parallelism:   degree,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		SerialMSPerQ:  float64(serialBest.Microseconds()) / 1000,
		ParallelMSPer: float64(parallelBest.Microseconds()) / 1000,
		SerialQPS:     1 / serialBest.Seconds(),
		ParallelQPS:   1 / parallelBest.Seconds(),
	}
	res.Speedup = res.ParallelQPS / res.SerialQPS
	return res, nil
}
