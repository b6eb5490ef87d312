// Command benchmark is the repository's benchmark: it stands the system up
// in-process, drives it from at most two closed-loop clients over loopback
// HTTP, checks every reply against a reference engine, and prints every
// metric by name and unit.
//
//	go run ./benchmark -workload hot_statements -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1 -out a.json            # every workload
//	go run ./benchmark -compare a.json b.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// setupsPerRun is how often a run sets the system up; setup_s is the median.
const setupsPerRun = 5

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of data values, key choice and Zipf draws")
		seconds  = flag.Float64("seconds", 10, "how long the measured phase lasts")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
		out      = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	// Two cores for the program and its clients together, whatever the host.
	runtime.GOMAXPROCS(2)
	fmt.Printf("GOMAXPROCS=%d %s\n", runtime.GOMAXPROCS(0), runtime.Version())

	specs := workloads
	if *workload != "all" {
		sp := findWorkload(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		specs = []*spec{sp}
	}
	scratch, err := os.MkdirTemp("", "udfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(scratch)

	code := 0
	for _, sp := range specs {
		res, err := runWorkload(sp, options{seed: *seed, size: fullSize, seconds: *seconds, trace: *trace != 0,
			setups: setupsPerRun, scratch: scratch, report: os.Stdout})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", sp.name, err)
			return 1
		}
		for _, p := range res.Premise {
			fmt.Fprintln(os.Stderr, "PREMISE:", p)
		}
		if !res.Correct {
			code = 3
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}
		printResult(res)
	}
	return code
}

// printResult lists every metric by name and unit, then the one-line JSON
// object the driver reads.
func printResult(res *result) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v := res.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no such number; a layer that did nothing reads 0
		}
		fmt.Printf("  %-36s %16.6g %-6s (%s is better)\n", d.name, v, d.unit, d.better)
		metrics[d.name] = mv{v, d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Printf("%s\n", line)
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(res)
	if _, err = f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
