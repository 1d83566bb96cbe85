package stats

import "testing"

func TestQuantileEWMA(t *testing.T) {
	// Pseudo-shuffled uniform samples on [0, 1): the p50 estimate must
	// settle near the true median and the p99 must sit well above it.
	var p50, p99 QuantileEWMA
	p50.Q = 0.5
	p99.Q = 0.99
	for i := 0; i < 50_000; i++ {
		v := float64((i*7919)%1000) / 1000
		p50.Observe(v)
		p99.Observe(v)
	}
	if !p50.Seeded() || !p99.Seeded() {
		t.Fatal("estimators must report seeded after observations")
	}
	if v := p50.Value(); v < 0.35 || v > 0.65 {
		t.Fatalf("p50 estimate %.3f on uniform [0,1), want ~0.5", v)
	}
	if v := p99.Value(); v < 0.80 {
		t.Fatalf("p99 estimate %.3f on uniform [0,1), want near the top", v)
	}
	if p99.Value() <= p50.Value() {
		t.Fatalf("p99 %.3f <= p50 %.3f: quantile ordering lost", p99.Value(), p50.Value())
	}
}

func TestQuantileEWMAZeroValue(t *testing.T) {
	var q QuantileEWMA // zero Q is degenerate but must not panic
	if q.Seeded() || q.Value() != 0 {
		t.Fatal("zero value must be unseeded with estimate 0")
	}
	q.Observe(5)
	if !q.Seeded() || q.Value() != 5 {
		t.Fatalf("first sample must seed the estimate, got %.3f", q.Value())
	}
}

func TestQuantileEWMATracksShift(t *testing.T) {
	// After the distribution jumps, the adaptive step must pull the
	// estimate toward the new level instead of freezing.
	q := QuantileEWMA{Q: 0.5, Alpha: 0.1}
	for i := 0; i < 5_000; i++ {
		q.Observe(1)
	}
	for i := 0; i < 5_000; i++ {
		q.Observe(100)
	}
	if q.Value() < 50 {
		t.Fatalf("estimate %.1f after a 1 -> 100 shift, want it to track upward", q.Value())
	}
}
