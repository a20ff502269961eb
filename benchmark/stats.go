package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of an ascending,
// non-empty sample (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum).
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sorted(xs), 0.5)
}

// highPercentile returns the highest of p90, p99, p99.9 that still has
// at least ten samples beyond it, and which one it is (0 when even p90
// does not: a tail is never extrapolated from fewer than ten samples).
func highPercentile(xs []float64) (value float64, pct float64) {
	for _, c := range []struct {
		pct  float64
		need int // samples for ten to lie beyond the percentile
	}{{99.9, 10000}, {99, 1000}, {90, 100}} {
		if len(xs) >= c.need {
			return quantile(sorted(xs), c.pct/100), c.pct
		}
	}
	return 0, 0
}

// p90 is the 90th percentile, and whether at least ten samples lie
// beyond it (n >= 100). The per-layer p90 metrics have a fixed name, so
// they are this percentile or not reported, never a lower one relabelled.
func p90(xs []float64) (float64, bool) {
	if len(xs) < 100 {
		return 0, false
	}
	return quantile(sorted(xs), 0.9), true
}

// iqrShare is the interquartile range over the median: the benchmark's
// measure of run-to-run (and round-to-round) spread.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// interval is a half-open time span in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by the intervals, overlaps
// counted once. It sorts ivs in place.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curEnd int64
	first := true
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if first || iv.start > curEnd {
			total += iv.end - iv.start
			curEnd = iv.end
			first = false
		} else if iv.end > curEnd {
			total += iv.end - curEnd
			curEnd = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover: children are clipped to the parent and overlapping children
// count once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		clipped = append(clipped, c)
	}
	return (parent.end - parent.start) - unionLen(clipped)
}
