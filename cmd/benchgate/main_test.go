package main

import (
	"strings"
	"testing"
)

// TestBytesCeilings checks that -benchmem's B/op is parsed (best of the
// runs) and gated: a benchmark over its bytes ceiling fails by name, one at
// or under it passes, and a ceilinged benchmark missing from the run fails.
func TestBytesCeilings(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkA-2   100   2000 ns/op   880000 B/op   5804 allocs/op",
		"BenchmarkA-2   100   1900 ns/op   879000 B/op   5804 allocs/op",
		"BenchmarkB-2   100   1000 ns/op   5000 B/op   10 allocs/op",
	}, "\n")
	res, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a := res["BenchmarkA"]; a == nil || a.bytes != 879000 || a.ns != 1900 {
		t.Fatalf("BenchmarkA parsed as %+v, want 1900 ns/op and 879000 B/op", a)
	}
	bytesOf := map[string]float64{"BenchmarkA": res["BenchmarkA"].bytes, "BenchmarkB": res["BenchmarkB"].bytes}
	failures := gateCeilings("bytes", "B/op", map[string]float64{
		"BenchmarkA": 879000, "BenchmarkB": 4999, "BenchmarkC": 1,
	}, bytesOf)
	if len(failures) != 2 || !strings.Contains(failures[0], "bytes BenchmarkB: 5000 B/op > ceiling 4999") ||
		!strings.Contains(failures[1], "bytes BenchmarkC: missing") {
		t.Fatalf("failures = %q, want BenchmarkB over its ceiling and BenchmarkC missing", failures)
	}
}
