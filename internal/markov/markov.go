// Package markov implements the completion-probability model of the paper
// (§3.2.1, Fig. 5): pattern completion is a discrete-time Markov process
// over the completion state δ (minimum events still required; 0 means
// complete). A stochastic transition matrix T1 is learned online from
// statistics gathered while processing validated (independent) window
// versions, folded by exponential smoothing. The completion probability
// after n more events is read from rung columns c_i = T1^(iℓ)·e₀, built
// lazily after each fold, ℓ matrix–vector products over T1's nonzero
// cells apart, and interpolated between the two rungs around n.
//
// Engineering parameterization beyond the paper: for very long patterns
// (Q1 uses q up to 2560) a dense (δ_max+1)² matrix is impractical, so δ is
// bucketed into at most MaxStates states. The paper's exact model is the
// special case MaxStates > δ_max. The model owns that bucketing: workers
// count transitions in a Counts table it hands out, already bucketed.
package markov

import (
	"fmt"
	"sync"
)

// Predictor predicts the completion probability of a consumption group
// whose partial match needs δ more events while n more events are expected
// in the window.
type Predictor interface {
	// CompletionProbability returns P(pattern completes within n events |
	// current completion state δ).
	CompletionProbability(delta, n int) float64
}

// Fixed is the constant-probability baseline of Figure 11: every
// consumption group is assigned the same completion probability.
type Fixed struct{ P float64 }

var _ Predictor = Fixed{}

// CompletionProbability implements Predictor.
func (f Fixed) CompletionProbability(delta, n int) float64 {
	if delta <= 0 {
		return 1
	}
	return f.P
}

// Config holds the model parameters. The zero value selects the paper's
// defaults (α = 0.7, ℓ = 10).
type Config struct {
	// Alpha is the exponential-smoothing weight of recent statistics
	// (paper: α = 0.7).
	Alpha float64
	// StepSize is ℓ, the spacing of the precomputed rungs (paper: ℓ = 10).
	StepSize int
	// Rho is the number of measurements folded into T1 at a time.
	Rho int
	// MaxStates caps the modeled state space; δ is bucketed when the
	// pattern's minimum length exceeds it.
	MaxStates int
	// MaxHorizon caps n (the expected remaining events); larger n clamps.
	MaxHorizon int
	// PriorAdvance is the cold-start probability of advancing one state
	// per event before any statistics are folded.
	PriorAdvance float64
}

func (c *Config) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.7
	}
	if c.StepSize <= 0 {
		c.StepSize = 10
	}
	if c.Rho <= 0 {
		c.Rho = 20000
	}
	if c.MaxStates <= 1 {
		c.MaxStates = 33
	}
	if c.MaxHorizon <= 0 {
		c.MaxHorizon = 1 << 16
	}
	if c.PriorAdvance <= 0 || c.PriorAdvance >= 1 {
		c.PriorAdvance = 0.05
	}
}

// Model is the learned Markov predictor. It is not safe for concurrent
// use — in SPECTRE only the splitter touches it — except for NewCounts,
// which workers call concurrently.
type Model struct {
	cfg    Config
	scale  int // δ units per bucketed state
	states int // bucketed states incl. absorbing state 0
	// buckets maps every 0 ≤ δ ≤ δ_max to its state ⌈δ/scale⌉; never
	// written after New, so worker tables share it.
	buckets []int32

	t1 []float64 // T1, states×states, row-major
	// T1's nonzero cells row by row (CSR): row r holds nzCol[i], nzVal[i]
	// for i from the previous row's end (0 for row 0) up to rowEnd[r],
	// columns ascending. nzVal copies the values out of t1 because the
	// contiguous read is measurably cheaper: reading t1 through nzCol
	// instead raised rung's share of q1_heavy samples from about 1.9 % to
	// 2.4 % (medians of CPU profiles, seed 1, 16 s, 2 vCPUs).
	nzCol  []int32
	nzVal  []float64
	rowEnd []int32
	// rungs holds the columns c_i = T1^(i·ℓ)·e₀ back to back: entry s of
	// rung i is P(complete within i·ℓ events | state s). Rung 0 is e₀.
	rungs      []float64
	col, spare []float64 // rung scratch

	counts       []float64 // transition counts since the last fold, like t1
	measurements int
	folds        uint64
	tables       sync.Pool // recycled *Counts
}

var _ Predictor = (*Model)(nil)

// New returns a model for patterns whose minimum length is deltaMax.
func New(deltaMax int, cfg Config) (*Model, error) {
	if deltaMax < 1 {
		return nil, fmt.Errorf("markov: deltaMax must be ≥ 1, got %d", deltaMax)
	}
	cfg.setDefaults()
	m := &Model{cfg: cfg, scale: 1}
	for (deltaMax+m.scale-1)/m.scale+1 > cfg.MaxStates {
		m.scale++
	}
	n := (deltaMax+m.scale-1)/m.scale + 1
	m.states = n
	m.buckets = make([]int32, deltaMax+1)
	for d := range m.buckets {
		m.buckets[d] = int32((d + m.scale - 1) / m.scale)
	}
	// Cold start: stay with probability 1-p, advance one state with
	// probability p; state 0 absorbs.
	m.t1 = make([]float64, n*n)
	m.t1[0] = 1
	for s := 1; s < n; s++ {
		m.t1[s*n+s] = 1 - cfg.PriorAdvance
		m.t1[s*n+s-1] = cfg.PriorAdvance
	}
	m.counts = make([]float64, n*n)
	m.rungs = make([]float64, n)
	m.col, m.spare = make([]float64, n), make([]float64, n)
	m.rowEnd = make([]int32, n)
	m.invalidateRungs()
	return m, nil
}

// bucket maps a δ value to its state through buckets; δ outside
// [0, δ_max] clamps to the first or the last state.
func bucket(buckets []int32, delta int) int {
	switch {
	case delta <= 0:
		return 0
	case delta >= len(buckets):
		return int(buckets[len(buckets)-1])
	}
	return int(buckets[delta])
}

// State maps a δ value to its bucketed Markov state.
func (m *Model) State(delta int) int { return bucket(m.buckets, delta) }

// States reports the size of the bucketed state space.
func (m *Model) States() int { return m.states }

// Scale reports how many δ units one bucketed state spans.
func (m *Model) Scale() int { return m.scale }

// Folds reports how many times statistics have been folded into T1.
func (m *Model) Folds() uint64 { return m.folds }

// Counts is a table of completion-state transitions counted in its
// model's bucketed states, at most MaxStates² cells. A worker fills its
// own table while the model serves predictions: Add reads only the
// model's bucketing, which never changes. Model.Fold takes the filled
// table back.
type Counts struct {
	buckets []int32 // the model's
	states  int
	cells   []uint32 // from*states + to
	touched []int32  // cells that are non-zero
}

// NewCounts returns an empty table for m, recycled from folded ones when
// possible. Safe to call concurrently with the model's other methods.
func (m *Model) NewCounts() *Counts {
	if c, ok := m.tables.Get().(*Counts); ok {
		return c
	}
	return &Counts{buckets: m.buckets, states: m.states, cells: make([]uint32, m.states*m.states)}
}

// Add counts one per-event observation of the completion state moving
// from deltaFrom to deltaTo.
func (c *Counts) Add(deltaFrom, deltaTo int) {
	i := bucket(c.buckets, deltaFrom)*c.states + bucket(c.buckets, deltaTo)
	if c.cells[i] == 0 {
		c.touched = append(c.touched, int32(i))
	}
	c.cells[i]++
}

// Empty reports whether nothing has been counted since the last reset.
func (c *Counts) Empty() bool { return len(c.touched) == 0 }

// Reset discards the counted observations; it costs O(cells touched).
func (c *Counts) Reset() {
	for _, i := range c.touched {
		c.cells[i] = 0
	}
	c.touched = c.touched[:0]
}

// Fold adds the observations of a table from m.NewCounts, folding T1 once
// if they bring the pending measurements to Rho. The table is recycled:
// the caller must not use it afterwards.
func (m *Model) Fold(c *Counts) {
	for _, i := range c.touched {
		m.counts[i] += float64(c.cells[i])
		m.measurements += int(c.cells[i])
	}
	c.Reset()
	m.tables.Put(c)
	if m.measurements >= m.cfg.Rho {
		m.smooth()
	}
}

// RecordTransition records one per-event observation of the completion
// state moving from deltaFrom to deltaTo, folding T1 every Rho of them.
func (m *Model) RecordTransition(deltaFrom, deltaTo int) {
	m.counts[m.State(deltaFrom)*m.states+m.State(deltaTo)]++
	m.measurements++
	if m.measurements >= m.cfg.Rho {
		m.smooth()
	}
}

// smooth builds T1_new from the accumulated counts and applies the paper's
// exponential smoothing T1 = (1-α)·T1_old + α·T1_new. Rows without any
// observation keep their old distribution; state 0 always absorbs.
func (m *Model) smooth() {
	n, a := m.states, m.cfg.Alpha
	for r := 1; r < n; r++ {
		row, cnt := m.t1[r*n:(r+1)*n], m.counts[r*n:(r+1)*n]
		var sum float64
		for _, v := range cnt {
			sum += v
		}
		if sum == 0 {
			continue
		}
		for c := range row {
			row[c] = (1-a)*row[c] + a*(cnt[c]/sum)
		}
	}
	clear(m.counts)
	m.measurements = 0
	m.folds++
	m.invalidateRungs()
}

// invalidateRungs drops every rung but c_0 = e₀ and indexes T1's
// nonzero cells for the products that rebuild them. New and smooth, the
// only writers of T1, call it.
func (m *Model) invalidateRungs() {
	m.rungs = m.rungs[:m.states]
	clear(m.rungs)
	m.rungs[0] = 1
	m.nzCol, m.nzVal = m.nzCol[:0], m.nzVal[:0]
	for r := range m.states {
		for c, t := range m.t1[r*m.states : (r+1)*m.states] {
			if t != 0 {
				m.nzCol = append(m.nzCol, int32(c))
				m.nzVal = append(m.nzVal, t)
			}
		}
		m.rowEnd[r] = int32(len(m.nzCol))
	}
}

// rung returns column c_idx = T1^(idx·ℓ)·e₀, extending the cached rungs
// on demand: each is ℓ matrix–vector products past the one before. A
// product sums only T1's nonzero cells, in ascending column order; every
// skipped term is 0·x with x a finite probability, so each rung is
// bit-identical to the dense product's.
func (m *Model) rung(idx int) []float64 {
	n := m.states
	for len(m.rungs) <= idx*n {
		col, next := m.col, m.spare
		copy(col, m.rungs[len(m.rungs)-n:])
		for range m.cfg.StepSize {
			var lo int32
			for r, hi := range m.rowEnd {
				var v float64
				for i := lo; i < hi; i++ {
					v += m.nzVal[i] * col[m.nzCol[i]]
				}
				next[r] = v
				lo = hi
			}
			col, next = next, col
		}
		m.rungs = append(m.rungs, col...)
	}
	return m.rungs[idx*n : (idx+1)*n]
}

// CompletionProbability implements Predictor using the interpolation of
// the paper's Fig. 5: Tn = (1 - (n mod ℓ)/ℓ)·T_{⌊n/ℓ⌋·ℓ} +
// ((n mod ℓ)/ℓ)·T_{⌈n/ℓ⌉·ℓ}, and the result is (e_δ · Tn)[state 0] —
// entry δ of the interpolated rung columns.
func (m *Model) CompletionProbability(delta, n int) float64 {
	if delta <= 0 {
		return 1
	}
	if n < 1 {
		n = 1 // at least one more event expected (Fig. 5 lines 3-5)
	}
	if n > m.cfg.MaxHorizon {
		n = m.cfg.MaxHorizon
	}
	s := m.State(delta)
	l := m.cfg.StepSize
	lo := n / l
	rem := n % l
	pLo := m.rung(lo)[s]
	if rem == 0 {
		return clamp01(pLo)
	}
	pHi := m.rung(lo + 1)[s]
	f := float64(rem) / float64(l)
	return clamp01((1-f)*pLo + f*pHi)
}

// T1 returns a copy of the current transition matrix, states×states
// row-major (for tests and diagnostics).
func (m *Model) T1() []float64 { return append([]float64(nil), m.t1...) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
