// Package stats provides the streaming estimators the engine keeps
// always-on: an exponentially weighted moving average and a quantile
// tracker built on it.
package stats

import "math"

// EWMA is an exponentially weighted moving average with a fixed alpha.
// The zero value is unseeded: the first observation becomes the average
// directly, so estimates are unbiased at startup.
type EWMA struct {
	Alpha  float64 // per-observation smoothing weight, (0, 1]
	val    float64
	seeded bool
}

// Observe folds one sample into the average.
func (e *EWMA) Observe(v float64) {
	if !e.seeded {
		e.val = v
		e.seeded = true
		return
	}
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.05
	}
	e.val += a * (v - e.val)
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.val }

// Seeded reports whether at least one sample has been observed.
func (e *EWMA) Seeded() bool { return e.seeded }

// QuantileEWMA is a streaming quantile estimator: a stochastic-gradient
// step on the pinball (quantile) loss, with the step size scaled by an
// EWMA of the absolute deviation so the estimate tracks distribution
// shifts without tuning per-stream constants. It is O(1) per sample and
// per instance — suitable for always-on latency gauges.
type QuantileEWMA struct {
	Q      float64 // target quantile, (0, 1); e.g. 0.5, 0.99
	Alpha  float64 // step-size weight, (0, 1]; 0 defaults to 0.05
	est    float64
	spread EWMA
	seeded bool
}

// Observe folds one sample into the quantile estimate.
func (q *QuantileEWMA) Observe(v float64) {
	if !q.seeded {
		q.est = v
		q.spread.Alpha = q.alpha()
		q.seeded = true
		return
	}
	q.spread.Observe(math.Abs(v - q.est))
	step := q.alpha() * q.spread.Value()
	if v > q.est {
		q.est += step * q.Q
	} else if v < q.est {
		q.est -= step * (1 - q.Q)
	}
}

func (q *QuantileEWMA) alpha() float64 {
	if q.Alpha <= 0 || q.Alpha > 1 {
		return 0.05
	}
	return q.Alpha
}

// Value returns the current quantile estimate (0 before any sample).
func (q *QuantileEWMA) Value() float64 { return q.est }

// Seeded reports whether at least one sample has been observed.
func (q *QuantileEWMA) Seeded() bool { return q.seeded }
