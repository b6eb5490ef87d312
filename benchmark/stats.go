package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailPermille are the candidates for "the highest percentile the sample
// supports": p75, p90, p95, p99.
var tailPermille = []int{750, 900, 950, 990}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// beyond is how many of n samples lie beyond the nearest-rank position of
// the given permille.
func beyond(n, permille int) int { return n - (n*permille+999)/1000 }

// supportedTail returns the highest candidate percentile (as a fraction)
// with at least minBeyond of n samples beyond it, or 0 when even the lowest
// has too few.
func supportedTail(n int) float64 {
	best := 0.0
	for _, pm := range tailPermille {
		if beyond(n, pm) >= minBeyond {
			best = float64(pm) / 1000
		}
	}
	return best
}

// geomean is the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histogram is a scrape of a cumulative histogram: the count of
// observations at or below each upper bound, ascending, +Inf (infBound) last.
type histogram struct {
	bounds []float64
	cum    []int64
}

const infBound = 1e18

// total is the number of observations.
func (h histogram) total() int64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// at is the count at or below bound b. A scrape lists every bound up to its
// highest populated bucket, so a bound it does not list lies above all of
// its observations.
func (h histogram) at(b float64) int64 {
	for i, hb := range h.bounds {
		if hb == b {
			return h.cum[i]
		}
	}
	return h.total()
}

// since is what was observed after the earlier scrape h0 of the same
// histogram, subtracted bound by bound (the two may list different bounds).
func (h histogram) since(h0 histogram) histogram {
	d := histogram{bounds: h.bounds, cum: make([]int64, len(h.cum))}
	for i, b := range h.bounds {
		d.cum[i] = h.cum[i] - h0.at(b)
	}
	return d
}

// quantile estimates a quantile by linear interpolation inside the bucket.
func (h histogram) quantile(q float64) float64 {
	if h.total() == 0 {
		return 0
	}
	rank := q * float64(h.total())
	lo, prev := 0.0, int64(0)
	for i, c := range h.cum {
		if float64(c) >= rank && c > prev {
			hi := h.bounds[i]
			if i == len(h.cum)-1 && i > 0 { // +Inf bucket: report its lower edge
				return h.bounds[i-1]
			}
			return lo + (hi-lo)*(rank-float64(prev))/float64(c-prev)
		}
		lo, prev = h.bounds[i], c
	}
	return lo
}
