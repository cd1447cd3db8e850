package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least a q share of the samples at or below it.
// It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the zero-based nearest-rank index of quantile q among n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median is the middle sample (mean of the two middle samples for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first: the conventional p99.9, p99 and p90.
var tailLadder = []float64{0.999, 0.99, 0.9}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// beyond counts the samples strictly above the nearest-rank q-quantile of n
// samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tailQuantile is the tail rule: the highest ladder percentile that leaves
// at least ten samples beyond it when n samples are taken. It returns 1
// (the maximum) when even the lowest ladder entry leaves fewer than ten,
// which callers report as "rule unmet".
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 1
}

// tail summarizes a latency sample at a fixed tail percentile.
type tail struct {
	Q      float64 `json:"q"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// tailAt reports xs at percentile q (1 = maximum) with the sample count and
// how many samples lie beyond it, so a reader can see whether the rule's
// ten-sample margin held at this run's length.
func tailAt(xs []float64, q float64) tail {
	t := tail{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	t.Value = quantile(xs, q)
	t.Beyond = beyond(len(xs), q)
	return t
}

// accuracy is the §6 accuracy of one estimate against the configured
// capacity: 1 − |estimate − capacity| / capacity.
func accuracy(estimate, capacity float64) float64 {
	return 1 - math.Abs(estimate-capacity)/capacity
}

// interval is a closed time range in nanoseconds on the run's clock.
type interval struct{ start, end int64 }

// unionLength is the total length covered by the intervals, clipped to
// [lo, hi]. Overlaps count once.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if len(clipped) > 0 {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - unionLength(children, parent.start, parent.end)
}
