package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile read from fewer is one or two unlucky samples, not a
// property of the distribution.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and ok=false when fewer than minBeyond samples lie
// above that rank — the percentile is then not reportable.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// tailPercentile returns the highest percentile not above want that has
// at least minBeyond samples beyond it, and which percentile that was.
// With 1000 or more samples it is exactly the want-th percentile (for
// want = 99); with fewer it steps down, and below 2*minBeyond samples
// not even the median qualifies and ok is false.
func tailPercentile(xs []float64, want float64) (v, p float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	// The largest nearest rank with minBeyond samples above it.
	rank := n - minBeyond
	if r := int(math.Ceil(want*float64(n)/100 - 1e-9)); r < rank {
		rank = r
	}
	if rank < 1 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], math.Min(want, 100*float64(rank)/float64(n)), true
}

// verdictsPerGroup is the fewest times to verdict an interval needs for
// its own p99: ten above the 99th percentile.
const verdictsPerGroup = 100 * minBeyond

// verdictPercentiles summarizes times to verdict grouped by interval.
// When every interval holds enough for its own p99, it reports the
// median over intervals of each interval's p50 and p99, so a stall in
// one interval does not set the tail; otherwise it pools the samples and
// reports the p50 and the tail percentile of the pool. at is the tail
// percentile reported, n the sample count.
func verdictPercentiles(groups [][]float64) (p50, p99, at float64, n int) {
	var pooled []float64
	perGroup := len(groups) > 0
	for _, g := range groups {
		pooled = append(pooled, g...)
		perGroup = perGroup && len(g) >= verdictsPerGroup
	}
	if !perGroup {
		p50, _ = percentile(pooled, 50)
		p99, at, _ = tailPercentile(pooled, 99)
		return p50, p99, at, len(pooled)
	}
	var mids, tails []float64
	for _, g := range groups {
		mid, _ := percentile(g, 50)
		tail, _ := percentile(g, 99)
		mids, tails = append(mids, mid), append(tails, tail)
	}
	return median(mids), median(tails), 99, len(pooled)
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
