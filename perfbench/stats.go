package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 300 samples is three observations, which says
// nothing, so the tail falls back to the highest percentile that still
// has this many samples behind it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail returns the value at the wanted percentile when at least minBeyond
// samples lie beyond it, and otherwise at the highest whole percentile
// that leaves minBeyond samples beyond it (never below the median). The
// percentile actually used is returned alongside.
func tail(sorted []float64, want float64) (value, used float64) {
	n := len(sorted)
	used = want
	if n-int(math.Ceil(want/100*float64(n))) < minBeyond {
		used = math.Floor(100 * float64(n-minBeyond) / float64(n))
		for used > 50 && n-int(math.Ceil(used/100*float64(n))) < minBeyond {
			used--
		}
		if used < 50 {
			used = 50
		}
	}
	return percentile(sorted, used), used
}

// summary is a latency sample set reduced to what the benchmark reports.
type summary struct {
	n           int
	p50, tail   float64
	tailPercent float64
}

// summarize sorts samples in place and reduces them to a median and a p99
// tail (see tail).
func summarize(samples []float64) summary {
	sort.Float64s(samples)
	s := summary{n: len(samples), p50: percentile(samples, 50)}
	s.tail, s.tailPercent = tail(samples, 99)
	return s
}

// interval is a half-open span [start, end) in nanoseconds since the
// benchmark's epoch.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers. Overlaps
// count once, so concurrent child calls of one span are not double
// subtracted when computing its self time. ivs is reordered.
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv.start, cur), min(iv.end, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// median returns the median of xs (reordering it), or 0 when empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 50)
}
