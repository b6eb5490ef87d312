package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// readResults loads a -out file: per workload, per end-to-end metric, the
// values of every untraced run in the file.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// worsening is how much worse b is than a as a share of a: positive when b
// is worse, whatever the metric's direction.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints one row per workload and end-to-end metric: the
// median of each file's runs, how much worse the second is, and the bound.
// It returns 1 when any row is outside its bound or missing from a file.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound")
	for _, sp := range workloads {
		if a[sp.name] == nil && b[sp.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a[sp.name][d.name], b[sp.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-18s missing from one file\n", sp.name, d.name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worsening(d, ma, mb)
			verdict := ""
			if worse > d.bound {
				verdict = "  OUTSIDE"
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", sp.name, d.name, ma, mb, 100*worse, 100*d.bound, verdict)
		}
	}
	return code
}
