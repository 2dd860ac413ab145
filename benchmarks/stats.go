package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerQuartile returns the value at rank ⌊(n−1)/4⌋ of the sorted xs:
// the fastest of up to four passes, the second fastest of five to
// eight. Host noise only ever slows a pass down, so the quiet end of
// the sample is the repeatable one. 0 for an empty slice.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

// spreadPct is (max − min) ÷ median, in percent.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / m * 100
}

// pooledPercentile pools the op samples of every measured pass and
// returns the nearest-rank p-th percentile (0 < p < 1) together with
// the number of samples that lie strictly beyond that rank. A tail
// percentile is only trustworthy with at least minBeyond samples
// beyond it; callers on host-clock workloads enforce that.
func pooledPercentile(passes [][]float64, p float64) (value float64, beyond int) {
	var pool []float64
	for _, ops := range passes {
		pool = append(pool, ops...)
	}
	if len(pool) == 0 {
		return 0, 0
	}
	sort.Float64s(pool)
	rank := int(math.Ceil(p * float64(len(pool))))
	if rank < 1 {
		rank = 1
	}
	return pool[rank-1], len(pool) - rank
}

// minBeyond is the guide's floor for quoting a tail percentile: ten
// samples past it.
const minBeyond = 10

// relDiff is |a−b| ÷ mean(|a|,|b|); 0 when both are 0.
func relDiff(a, b float64) float64 {
	d := (math.Abs(a) + math.Abs(b)) / 2
	if d == 0 {
		return 0
	}
	return math.Abs(a-b) / d
}
