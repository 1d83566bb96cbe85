// Package stat holds the benchmark's statistics helpers: order statistics
// over passes, the percentile a sample can support, self time of a span
// tree and the accounting of an open-loop generator's lateness.
package stat

import (
	"math"
	"sort"
)

// Quartiles returns the first quartile, the median and the third quartile
// of v by the rule of Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), so the spreads printed here are the ones the
// acceptance check computes. A single value is its own quartiles.
func Quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the median of v (0 for an empty slice).
func Median(v []float64) float64 {
	_, med, _ := Quartiles(v)
	return med
}

// TopPercentile returns the highest percentile of the ladder 50, 90, 99,
// 99.9, 99.99 that still has at least ten of n samples beyond it, as a
// fraction; 0.5 when even the median has fewer.
func TopPercentile(n int) float64 {
	top := 0.5
	for _, d := range []int{10, 100, 1000, 10000} { // one sample in d lies beyond
		if n/d >= 10 {
			top = 1 - 1/float64(d)
		}
	}
	return top
}

// Percentile returns the p-quantile (nearest rank) of an ascending slice.
// Infinite samples — requests that never completed — sort last, so they
// raise every percentile they reach.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Span is one traced interval: a call into a layer, timed from the
// benchmark's side. Parent is the ID of the span that caused it, -1 for a
// root. Times are nanoseconds since the trace began.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func SelfTimes(spans []Span) map[string]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// Lateness returns how late an open-loop generator sent each item:
// sent[i]-due[i], never below zero (an item cannot be sent early; the
// generator waits for its tick). Units are those of the inputs.
func Lateness(due, sent []float64) []float64 {
	late := make([]float64, len(due))
	for i := range due {
		if d := sent[i] - due[i]; d > 0 {
			late[i] = d
		}
	}
	return late
}

// Slope is the least-squares slope of y over x; 0 with fewer than two
// distinct x. Infinite y are skipped.
func Slope(x, y []float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for i := range x {
		if math.IsInf(y[i], 0) {
			continue
		}
		n++
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if n < 2 || den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
