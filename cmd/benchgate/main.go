// Command benchgate is the benchmark-regression gate: it parses `go test
// -bench -benchmem` output, compares it against a committed baseline, and
// fails when a benchmark regresses beyond tolerance. CI runs it after the
// pinned benchmark step and uploads the emitted BENCH_current.json as an
// artifact, giving the repo a benchmark trajectory instead of an empty
// history.
//
// Three kinds of gate, because CI runners vary wildly in absolute speed:
//
//   - Absolute time: each benchmark's best ns/op must stay within
//     -tolerance × the committed baseline ns/op. A generous factor (default
//     4×) tolerates runner noise while still catching order-of-magnitude
//     regressions.
//   - Ratio: pairs of benchmarks measured in the same run (rewritten vs
//     iterative UDF invocation, vectorized vs row executor, plan-cache hit
//     vs cold prepare) must preserve a minimum speedup. Ratios divide out
//     the runner's speed, so they gate tightly.
//   - Allocation ceilings: allocs/op and B/op are machine-independent, so
//     ceilings gate them absolutely with no tolerance factor. This is what
//     keeps the zero-copy scan path honest: a change that silently
//     reintroduces per-batch row pivoting fails the ceiling even on a fast
//     runner, and one that widens every value or buffer fails the bytes
//     ceiling without adding a single allocation.
//
// Usage:
//
//	go test -run XXX -bench ... -benchmem -count 3 | tee bench.txt
//	benchgate -baseline BENCH_baseline.json -in bench.txt -out BENCH_current.json
//	benchgate -init -in bench.txt -out BENCH_baseline.json   # (re)create baseline
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// baselineFile is the committed gate definition plus the reference numbers.
type baselineFile struct {
	// NsPerOp maps benchmark name (without -N GOMAXPROCS suffix) to the
	// reference best-of-count ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp records the reference allocation counts (informational;
	// the binding gate is AllocCeilings).
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// AllocCeilings maps benchmark name to the maximum admissible allocs/op.
	// Allocation counts do not depend on runner speed, so these gate
	// absolutely.
	AllocCeilings map[string]float64 `json:"alloc_ceilings,omitempty"`
	// BytesCeilings maps benchmark name to the maximum admissible B/op,
	// with the same headroom as AllocCeilings.
	BytesCeilings map[string]float64 `json:"bytes_ceilings,omitempty"`
	// Ratios are runner-speed-independent invariants.
	Ratios []ratioGate `json:"ratios"`
}

type ratioGate struct {
	// Name labels the ratio in reports, e.g. "exp1_rewrite_speedup".
	Name string `json:"name"`
	// Slow / Fast are benchmark names; the gate asserts slow/fast >= Min.
	Slow string  `json:"slow"`
	Fast string  `json:"fast"`
	Min  float64 `json:"min"`
}

// currentFile is the artifact CI uploads per run.
type currentFile struct {
	NsPerOp     map[string]float64 `json:"ns_per_op"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	BytesPerOp  map[string]float64 `json:"bytes_per_op"`
	Ratios      map[string]float64 `json:"ratios"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Go          string             `json:"go"`
}

// benchResult is the best observation for one benchmark across -count runs.
type benchResult struct {
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

// parseBench extracts the best (minimum) ns/op — and, with -benchmem, the
// minimum B/op and allocs/op — per benchmark from -count runs.
func parseBench(r io.Reader) (map[string]*benchResult, error) {
	best := map[string]*benchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		b := best[m[1]]
		if b == nil {
			b = &benchResult{ns: ns}
			best[m[1]] = b
		} else if ns < b.ns {
			b.ns = ns
		}
		if m[3] != "" {
			bytes, errB := strconv.ParseFloat(m[3], 64)
			allocs, errA := strconv.ParseFloat(m[4], 64)
			if errB == nil && errA == nil {
				if !b.hasMem || bytes < b.bytes {
					b.bytes = bytes
				}
				if !b.hasMem || allocs < b.allocs {
					b.allocs = allocs
				}
				b.hasMem = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("no benchmark results found in input")
	}
	return best, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline to gate against")
		in           = flag.String("in", "", "benchmark output file (default stdin)")
		out          = flag.String("out", "BENCH_current.json", "where to write this run's numbers")
		tolerance    = flag.Float64("tolerance", 4.0, "max allowed current/baseline ns/op factor")
		initBaseline = flag.Bool("init", false, "write a fresh baseline from the input instead of gating")
	)
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	current, err := parseBench(src)
	if err != nil {
		fatal(err)
	}
	nsOf := map[string]float64{}
	allocsOf := map[string]float64{}
	bytesOf := map[string]float64{}
	for name, b := range current {
		nsOf[name] = b.ns
		if b.hasMem {
			allocsOf[name] = b.allocs
			bytesOf[name] = b.bytes
		}
	}

	if *initBaseline {
		base := baselineFile{
			NsPerOp:       nsOf,
			AllocsPerOp:   allocsOf,
			AllocCeilings: defaultCeilings(allocsOf),
			BytesCeilings: defaultCeilings(bytesOf),
			Ratios:        defaultRatios,
		}
		if err := writeJSON(*out, base); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: baseline with %d benchmarks written to %s\n", len(current), *out)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("reading baseline: %w", err))
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("baseline %s: %w", *baselinePath, err))
	}

	report := currentFile{
		NsPerOp:     nsOf,
		AllocsPerOp: allocsOf,
		BytesPerOp:  bytesOf,
		Ratios:      map[string]float64{},
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
	}
	var failures []string

	var names []string
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.NsPerOp[name]
		got, ok := nsOf[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from this run", name))
			continue
		}
		factor := got / want
		status := "ok"
		if factor > *tolerance {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx > %.1fx tolerance)",
				name, got, want, factor, *tolerance))
		}
		fmt.Printf("benchgate: %-50s %12.0f ns/op  baseline %12.0f  (%.2fx) %s\n",
			name, got, want, factor, status)
	}

	failures = append(failures, gateCeilings("allocs", "allocs/op", base.AllocCeilings, allocsOf)...)
	failures = append(failures, gateCeilings("bytes", "B/op", base.BytesCeilings, bytesOf)...)

	for _, r := range base.Ratios {
		slow, okS := nsOf[r.Slow]
		fast, okF := nsOf[r.Fast]
		if !okS || !okF {
			failures = append(failures, fmt.Sprintf("ratio %s: missing %s or %s", r.Name, r.Slow, r.Fast))
			continue
		}
		ratio := slow / fast
		report.Ratios[r.Name] = ratio
		status := "ok"
		if ratio < r.Min {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("ratio %s: %s/%s = %.2fx < required %.2fx",
				r.Name, r.Slow, r.Fast, ratio, r.Min))
		}
		fmt.Printf("benchgate: ratio %-44s %6.2fx (min %.2fx) %s\n", r.Name, ratio, r.Min, status)
	}

	if err := writeJSON(*out, report); err != nil {
		fatal(err)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks, %d alloc ceilings, %d bytes ceilings and %d ratios within bounds; wrote %s\n",
		len(base.NsPerOp), len(base.AllocCeilings), len(base.BytesCeilings), len(base.Ratios), *out)
}

// gateCeilings reports each ceilinged benchmark's measurement of one kind
// (allocs/op or B/op) and returns a failure for each one above its ceiling
// or missing from the run.
func gateCeilings(kind, unit string, ceilings, got map[string]float64) (failures []string) {
	var names []string
	for name := range ceilings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ceiling := ceilings[name]
		v, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s %s: missing from this run (was -benchmem passed?)", kind, name))
			continue
		}
		status := "ok"
		if v > ceiling {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s %s: %.0f %s > ceiling %.0f", kind, name, v, unit, ceiling))
		}
		fmt.Printf("benchgate: %-6s %-42s %12.0f %-9s ceiling %10.0f %s\n", kind, name, v, unit, ceiling, status)
	}
	return failures
}

// defaultRatios are the runner-independent invariants -init seeds: the
// paper's result — the rewritten form of each of Figs. 10–12 against its
// iterative original, and Fig. 12 again at 5 outer keys, where the rewrite
// wins only if the outer's key range reaches the inner aggregate — the
// columnar vectorized executor's win on the scan/filter pair and on the hash
// join pair, and the plan cache's win over cold prepares. Floors sit at or
// below half the smallest of five local measurements, so ordinary noise
// passes but a real architectural regression — the rewrite losing its edge,
// a scan that starts pivoting rows again, a join probe that materialises
// rows again, the cache stopping to hit — fails.
var defaultRatios = []ratioGate{
	{Name: "exp1_rewrite_speedup",
		Slow: "BenchmarkExperiment1_Original/n=10000", Fast: "BenchmarkExperiment1_Rewritten/n=10000", Min: 1.1},
	{Name: "exp2_rewrite_speedup",
		Slow: "BenchmarkExperiment2_Original/n=10000", Fast: "BenchmarkExperiment2_Rewritten/n=10000", Min: 0.6},
	{Name: "exp3_rewrite_speedup",
		Slow: "BenchmarkExperiment3_Original/n=200", Fast: "BenchmarkExperiment3_Rewritten/n=200", Min: 2.3},
	{Name: "exp3_smalln_rewrite_speedup",
		Slow: "BenchmarkExperiment3_Original/n=5", Fast: "BenchmarkExperiment3_Rewritten/n=5", Min: 0.75},
	{Name: "scanfilter_columnar_speedup",
		Slow: "BenchmarkScanFilterProject_Row", Fast: "BenchmarkScanFilterProject_Vectorized", Min: 2.5},
	{Name: "plancache_hit_speedup",
		Slow: "BenchmarkPlanCache/Cold", Fast: "BenchmarkPlanCache/Warm", Min: 2.0},
	{Name: "hashjoin_columnar_speedup",
		Slow: "BenchmarkHashJoin_Row", Fast: "BenchmarkHashJoin_Vectorized", Min: 0.7},
}

// defaultCeilings seeds ceilings at 3× the measured allocs/op or B/op for the
// scan/filter pair, the read-after-write lookup, the row and vectorized hash
// joins, the serial grouped aggregation, the paper's iterative experiments
// 2 (a keyless row aggregation inside every UDF call) and 3 (a cursor loop
// over embedded joins), and experiment 3 rewritten over 200 and over 5
// outer keys (the outer's key range must reach the inner aggregate, or it
// groups every category): loose enough for
// incidental churn, tight enough that reintroducing a per-row or per-batch
// materialization, an index rebuilt per table version (thousands of
// allocations), an allocation per hash-join build or probe row or per
// aggregated row (millions, in Experiment 3's embedded joins), or a
// whole-table aggregate behind a point statement, fails.
func defaultCeilings(measured map[string]float64) map[string]float64 {
	ceil := map[string]float64{}
	for _, name := range []string{"BenchmarkScanFilterProject_Row", "BenchmarkScanFilterProject_Vectorized",
		"BenchmarkIndexLookupAfterWrite", "BenchmarkHashJoin_Row", "BenchmarkHashJoin_Vectorized",
		"BenchmarkParallelGroupBy_Serial", "BenchmarkExperiment2_Original/n=10000",
		"BenchmarkExperiment3_Original/n=200", "BenchmarkExperiment3_Rewritten/n=200",
		"BenchmarkExperiment3_Rewritten/n=5"} {
		if a, ok := measured[name]; ok {
			ceil[name] = float64(int64(a*3) + 16)
		}
	}
	return ceil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
