package main

import (
	"cmp"
	"math"
	"slices"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample: the smallest value with at least p% of the sample
// at or below it. An empty sample has no percentile and yields 0.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// median of an unsorted sample; an even count averages the middle two.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianUS sorts a nanosecond sample and returns its median in
// microseconds.
func medianUS(ns []uint32) float64 {
	slices.Sort(ns)
	return float64(percentile(ns, 50)) / 1e3
}

type interval struct{ start, end int64 }

// unionLen is the total length covered by the intervals, counting an
// instant covered by several of them once. It reorders ivs.
func unionLen(ivs []interval) int64 {
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var total, reach int64
	for i, iv := range ivs {
		if i == 0 || iv.start > reach {
			total += iv.end - iv.start
			reach = iv.end
		} else if iv.end > reach {
			total += iv.end - reach
			reach = iv.end
		}
	}
	return total
}
