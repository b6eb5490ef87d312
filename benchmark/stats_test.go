package main

import (
	"math"
	"reflect"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	// The highest of 75/90/95/99 with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {500_000, 0.99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWorkloadTailsAreSupported(t *testing.T) {
	// Sample counts of a 10 s run at the parent commit, rounded down. Each
	// workload's percentile must keep ten samples beyond it on a run with
	// three tenths fewer: a slower machine or a regression inside the bounds
	// must not trip the run's own sample-count check.
	counts := map[string]int{
		"paper_rewritten": 280, "paper_iterative": 70, "paper_smalln": 300, "hot_statements": 300_000,
		"cold_statements": 150_000, "stream_export": 70, "mixed_rw_durable": 14_000, "shard_routes": 4_500,
	}
	for _, sp := range workloads {
		n, ok := counts[sp.name]
		if !ok {
			t.Fatalf("no sample count recorded for %s", sp.name)
		}
		if slow := n * 7 / 10; sp.tail > supportedTail(slow) {
			t.Errorf("%s: reports p%.0f but %d samples support only p%.0f", sp.name, sp.tail*100, slow, supportedTail(slow)*100)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, infBound}
	h := histogram{bounds, []int64{10, 10, 30, 30}} // 10 in (0,1], 20 in (2,4]
	if got := h.quantile(0.25); got <= 0 || got > 1 {
		t.Errorf("p25 = %v, want within (0,1]", got)
	}
	if got := h.quantile(0.9); got <= 2 || got > 4 {
		t.Errorf("p90 = %v, want within (2,4]", got)
	}
	if got := (histogram{bounds, []int64{0, 0, 0, 0}}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram = %v", got)
	}
}

func TestHistogramSince(t *testing.T) {
	// The program lists bounds only up to its highest populated bucket: the
	// later scrape has seen a slower observation and lists two more bounds.
	h0 := histogram{[]float64{1, 2, infBound}, []int64{4, 10, 10}}
	h1 := histogram{[]float64{1, 2, 4, 8, infBound}, []int64{6, 15, 15, 16, 16}}
	d := h1.since(h0)
	if want := []int64{2, 5, 5, 6, 6}; !reflect.DeepEqual(d.cum, want) {
		t.Errorf("since = %v, want %v", d.cum, want)
	}
	if d.total() != 6 {
		t.Errorf("total = %d, want 6", d.total())
	}
	if got := d.quantile(0.5); got <= 1 || got > 2 {
		t.Errorf("p50 of the difference = %v, want within (1,2]", got)
	}
	// Nothing scraped before: the difference is the scrape itself.
	if d := h1.since(histogram{}); !reflect.DeepEqual(d.cum, h1.cum) {
		t.Errorf("since nothing = %v, want %v", d.cum, h1.cum)
	}
	// Nothing happened in between, whatever the lengths.
	if d := h1.since(h1); d.total() != 0 || d.quantile(0.95) != 0 {
		t.Errorf("since itself = %v", d.cum)
	}
}

func TestWorsening(t *testing.T) {
	lower, higher := metricDef{better: "lower"}, metricDef{better: "higher"}
	if got := worsening(lower, 100, 110); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("lower-is-better 100->110 = %v", got)
	}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("higher-is-better 100->90 = %v", got)
	}
	if got := worsening(higher, 100, 120); got >= 0 {
		t.Errorf("an improvement reads as worse: %v", got)
	}
}
