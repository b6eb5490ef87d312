package main

import (
	"io"
	"testing"
)

// smokeSize is a twentieth of the dataset or less: the whole suite, traced
// and untraced, in seconds even under the race detector.
var smokeSize = sizes{customers: 1_000, parts: 1_500, categories: 20}

// TestSmokeAllWorkloads runs every workload briefly, untraced and traced,
// with every reply checked against the reference engine and every premise
// check on, so the benchmark keeps compiling and passing as the program
// changes.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			name := sp.name + "/untraced"
			if trace {
				name = sp.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Setenv("TMPDIR", t.TempDir()) // span files
				res, err := runWorkload(sp, options{seed: 1, size: smokeSize, seconds: 0.4, trace: trace,
					setups: 1, scratch: t.TempDir(), report: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d premise=%v", res.Correct, res.Attempted, res.Failed, res.Premise)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !trace && !(v > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
					}
					if trace && !ok && sp.reports(d.name) {
						t.Errorf("per-layer metric %s missing", d.name)
					}
				}
			})
		}
	}
}

// reports says whether a workload exercises the layer a per-layer metric
// belongs to (elsewhere the metric reads 0).
func (sp *spec) reports(metric string) bool {
	has := func(prefix string) bool { return len(metric) >= len(prefix) && metric[:len(prefix)] == prefix }
	paper := sp.shapes[0] == paperShapes[0]
	switch {
	case has("paper.") && len(metric) > 14 && metric[11:14] == "n10":
		return sp.name == "paper_smalln"
	case has("paper."):
		return paper && sp.name != "paper_smalln"
	case has("wal."), has("server.read_"):
		return sp.topo == topoDurable
	case has("shard."):
		return sp.topo == topoSharded
	case has("core.rewrite_us"), has("core.rule_firings"):
		return sp.name != "paper_iterative"
	}
	return true
}
