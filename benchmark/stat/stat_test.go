package stat

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python prints for
// statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7}, 1, 7, 10},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, m, q3 := Quartiles(c.v)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := TopPercentile(c.n); got != c.want {
			t.Errorf("TopPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileCountsMissingAsWorst(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, math.Inf(1)}
	if got := Percentile(s, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := Percentile(s, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf: a missing sample is over any limit", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "feed", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "feed", Start: 30, End: 60},   // overlaps span 1 by 10
		{ID: 3, Parent: 0, Name: "drain", Start: 70, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 1, Name: "sync", Start: 15, End: 25},
	}
	self := SelfTimes(spans)
	// pass: 100 - (30 + 20 + 30) = 20; feed: (30-10) + 30 = 50.
	want := map[string]int64{"pass": 20, "feed": 50, "drain": 50, "sync": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestLatenessAndSlope(t *testing.T) {
	late := Lateness([]float64{0, 1, 2, 3}, []float64{0, 1.5, 1.9, 7})
	want := []float64{0, 0.5, 0, 4}
	for i := range want {
		if !near(late[i], want[i]) {
			t.Errorf("late[%d] = %v, want %v", i, late[i], want[i])
		}
	}
	if got := Slope([]float64{0, 1, 2, 3}, []float64{5, 7, math.Inf(1), 11}); !near(got, 2) {
		t.Errorf("Slope = %v, want 2", got)
	}
	if got := Slope([]float64{1, 1}, []float64{3, 4}); got != 0 {
		t.Errorf("Slope on one x = %v, want 0", got)
	}
}
