package markov

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// isStochastic reports whether the states×states row-major matrix t has
// non-negative entries and rows summing to 1 within tol.
func isStochastic(t []float64, states int, tol float64) bool {
	for r := 0; r < states; r++ {
		var sum float64
		for _, v := range t[r*states : (r+1)*states] {
			if v < -tol {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > tol {
			return false
		}
	}
	return true
}

func TestFixedPredictor(t *testing.T) {
	f := Fixed{P: 0.3}
	if got := f.CompletionProbability(5, 100); got != 0.3 {
		t.Fatalf("fixed probability = %g, want 0.3", got)
	}
	if got := f.CompletionProbability(0, 100); got != 1 {
		t.Fatalf("δ=0 must be certain, got %g", got)
	}
}

func TestModelBasics(t *testing.T) {
	m, err := New(5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.States() != 6 || m.Scale() != 1 {
		t.Fatalf("states=%d scale=%d, want 6 and 1", m.States(), m.Scale())
	}
	if !isStochastic(m.T1(), m.States(), 1e-9) {
		t.Fatal("initial T1 must be row-stochastic")
	}
	if got := m.CompletionProbability(0, 10); got != 1 {
		t.Fatalf("δ=0 → P=1, got %g", got)
	}
	p1 := m.CompletionProbability(1, 10)
	p5 := m.CompletionProbability(5, 10)
	if !(p1 > p5) {
		t.Fatalf("closer patterns must be likelier: P(δ=1)=%g ≤ P(δ=5)=%g", p1, p5)
	}
	pShort := m.CompletionProbability(3, 5)
	pLong := m.CompletionProbability(3, 500)
	if !(pLong > pShort) {
		t.Fatalf("more remaining events must help: P(n=500)=%g ≤ P(n=5)=%g", pLong, pShort)
	}
	if got := m.CompletionProbability(3, 0); got != m.CompletionProbability(3, 1) {
		t.Fatal("n<1 must clamp to 1 (Fig. 5 lines 3-5)")
	}
}

func TestBucketing(t *testing.T) {
	m, err := New(2560, Config{MaxStates: 33})
	if err != nil {
		t.Fatal(err)
	}
	if m.States() > 33 {
		t.Fatalf("states = %d exceeds cap 33", m.States())
	}
	if m.State(0) != 0 {
		t.Fatal("δ=0 must map to state 0")
	}
	if m.State(1) == 0 {
		t.Fatal("δ=1 must not map to the absorbing state")
	}
	if m.State(2560) >= m.States() {
		t.Fatal("δ_max must map inside the state space")
	}
	// Monotone bucketing.
	prev := 0
	for d := 0; d <= 2560; d++ {
		s := m.State(d)
		if s < prev {
			t.Fatalf("bucketing not monotone at δ=%d", d)
		}
		prev = s
	}
}

// TestLearningAdaptsToAdvanceRate feeds two different synthetic processes
// and checks that the learned completion probabilities order accordingly.
func TestLearningAdaptsToAdvanceRate(t *testing.T) {
	train := func(advanceProb float64, seed int64) *Model {
		m, err := New(4, Config{Rho: 500})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		delta := 4
		for i := 0; i < 20000; i++ {
			next := delta
			if rng.Float64() < advanceProb {
				next = delta - 1
			}
			m.RecordTransition(delta, next)
			delta = next
			if delta == 0 {
				delta = 4
			}
		}
		return m
	}
	fast := train(0.5, 1)
	slow := train(0.02, 1)
	if fast.Folds() == 0 || slow.Folds() == 0 {
		t.Fatal("training must fold statistics")
	}
	pFast := fast.CompletionProbability(4, 40)
	pSlow := slow.CompletionProbability(4, 40)
	if !(pFast > pSlow+0.2) {
		t.Fatalf("fast process must predict much higher completion: fast=%g slow=%g", pFast, pSlow)
	}
	if pFast < 0.9 {
		t.Fatalf("advance 0.5/event over 40 events with δ=4 is near-certain, got %g", pFast)
	}
	if !isStochastic(fast.T1(), fast.States(), 1e-9) {
		t.Fatal("learned T1 must stay row-stochastic")
	}
}

// TestStochasticInvariant is the property-based check: any transition
// recording keeps T1 row-stochastic and probabilities within [0, 1].
func TestStochasticInvariant(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := New(1+rng.Intn(50), Config{Rho: 50 + rng.Intn(200)})
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			from := rng.Intn(60)
			to := from
			if rng.Intn(2) == 0 && from > 0 {
				to = rng.Intn(from + 1)
			}
			m.RecordTransition(from, to)
		}
		if !isStochastic(m.T1(), m.States(), 1e-6) {
			return false
		}
		for d := 0; d <= 50; d += 7 {
			for _, n := range []int{0, 1, 5, 10, 99, 1000, 1 << 20} {
				p := m.CompletionProbability(d, n)
				if p < 0 || p > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInterpolationBetweenRungs checks the paper's Fig. 5 interpolation
// and the rungs it reads: P(n) for n between two rungs is the exact blend
// (1 − (n mod ℓ)/ℓ)·P(⌊n/ℓ⌋ℓ) + ((n mod ℓ)/ℓ)·P(⌈n/ℓ⌉ℓ), and every rung
// equals (e_δ·T1ⁿ)[0] computed by brute force from the learned T1.
func TestInterpolationBetweenRungs(t *testing.T) {
	m, err := New(3, Config{StepSize: 10, Rho: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Feed a strong advance signal so probabilities are non-trivial.
	for i := 0; i < 1000; i++ {
		m.RecordTransition(3, 2)
		m.RecordTransition(3, 3)
		m.RecordTransition(2, 1)
		m.RecordTransition(2, 2)
		m.RecordTransition(1, 0)
	}
	if m.Folds() == 0 {
		t.Fatal("training must fold statistics")
	}
	p10 := m.CompletionProbability(3, 10)
	p14 := m.CompletionProbability(3, 14)
	p20 := m.CompletionProbability(3, 20)
	if want := 0.6*p10 + 0.4*p20; math.Abs(p14-want) > 1e-12 {
		t.Fatalf("P(n=14) = %.17g, want 0.6·P(10) + 0.4·P(20) = %.17g", p14, want)
	}
	if p10 >= p20 || p10 <= 0 || p20 >= 1 {
		t.Fatalf("rungs must be strictly between 0 and 1 and grow: P(10)=%g P(20)=%g", p10, p20)
	}

	t1, states := m.T1(), m.States()
	for _, n := range []int{10, 20, 1000} {
		for delta := 1; delta <= 3; delta++ {
			v := make([]float64, states)
			v[m.State(delta)] = 1
			for range n {
				next := make([]float64, states)
				for r, vr := range v {
					for c := range next {
						next[c] += vr * t1[r*states+c]
					}
				}
				v = next
			}
			if got := m.CompletionProbability(delta, n); math.Abs(got-v[0]) > 1e-12 {
				t.Fatalf("rung n=%d δ=%d: P = %.17g, brute-force e_δ·T1ⁿ = %.17g", n, delta, got, v[0])
			}
		}
	}
}

// denseRungs builds rungs 0..last of m by dense products over every cell
// of T1: the reference the products over T1's nonzero cells must equal
// bit for bit.
func denseRungs(m *Model, last int) [][]float64 {
	n := m.states
	col := make([]float64, n)
	col[0] = 1
	out := [][]float64{append([]float64(nil), col...)}
	for len(out) <= last {
		for range m.cfg.StepSize {
			next := make([]float64, n)
			for r := range next {
				var v float64
				for c, t := range m.t1[r*n : (r+1)*n] {
					v += t * col[c]
				}
				next[r] = v
			}
			col = next
		}
		out = append(out, append([]float64(nil), col...))
	}
	return out
}

// TestRungsMatchDense checks that every rung built over T1's nonzero
// cells is bit-identical to the dense product, for T1s learned through
// several folds in the Q1 shape (stay or advance one state), fully dense,
// and with rows that are never observed or are all zero; and that a
// prediction allocates nothing once its rungs are built.
func TestRungsMatchDense(t *testing.T) {
	const last = 256
	for _, deltaMax := range []int{1, 13, 640} {
		for _, shape := range []string{"bidiagonal", "dense", "empty rows"} {
			rng := rand.New(rand.NewSource(int64(deltaMax)))
			m, err := New(deltaMax, Config{Rho: 300})
			if err != nil {
				t.Fatal(err)
			}
			states := m.States()
			for range 3000 {
				from := 1 + rng.Intn(states-1)
				to := from
				switch {
				case shape == "bidiagonal":
					to -= rng.Intn(2)
				case shape == "empty rows" && from%3 == 2:
					continue // these rows keep their prior
				default:
					to = rng.Intn(states)
				}
				m.RecordTransition(from*m.Scale(), to*m.Scale())
			}
			if m.Folds() < 5 {
				t.Fatalf("deltaMax %d %s: %d folds, want ≥ 5", deltaMax, shape, m.Folds())
			}
			if shape == "empty rows" {
				for r := 0; r < states; r += 3 {
					clear(m.t1[r*states : (r+1)*states])
				}
				m.invalidateRungs()
			}
			want := denseRungs(m, last)
			for i, w := range want {
				got := m.rung(i)
				for s := range w {
					if math.Float64bits(got[s]) != math.Float64bits(w[s]) {
						t.Fatalf("deltaMax %d %s: rung %d state %d = %.17g, dense %.17g",
							deltaMax, shape, i, s, got[s], w[s])
					}
				}
			}
			if a := testing.AllocsPerRun(10, func() {
				for n := 1; n < last*m.cfg.StepSize; n += 7 {
					m.CompletionProbability(1+n%deltaMax, n)
				}
			}); a != 0 {
				t.Fatalf("deltaMax %d %s: CompletionProbability: %v allocs, want 0", deltaMax, shape, a)
			}
		}
	}
}

// TestBucketedCountsFoldLikeRaw is the gate for counting in the model's
// buckets: the same transitions recorded raw, one RecordTransition each,
// and counted by two worker tables folded into the model give a
// bit-identical T1, whether δ maps one-to-one onto the states or twenty
// δ values share one.
func TestBucketedCountsFoldLikeRaw(t *testing.T) {
	for _, tc := range []struct{ deltaMax, scale int }{{5, 1}, {640, 20}} {
		rng := rand.New(rand.NewSource(int64(tc.deltaMax)))
		const n = 5000
		from, to := make([]int, n), make([]int, n)
		for i := range from {
			from[i] = rng.Intn(tc.deltaMax + 1)
			to[i] = from[i]
			if from[i] > 0 && rng.Intn(3) == 0 {
				to[i] = from[i] - 1 - rng.Intn(min(from[i], 3))
			}
		}
		cfg := Config{Rho: n}
		raw, err := New(tc.deltaMax, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bucketed, err := New(tc.deltaMax, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bucketed.Scale() != tc.scale {
			t.Fatalf("deltaMax %d: scale %d, want %d", tc.deltaMax, bucketed.Scale(), tc.scale)
		}
		a, b := bucketed.NewCounts(), bucketed.NewCounts()
		for i := range from {
			raw.RecordTransition(from[i], to[i])
			if i%2 == 0 {
				a.Add(from[i], to[i])
			} else {
				b.Add(from[i], to[i])
			}
		}
		bucketed.Fold(a)
		if bucketed.Folds() != 0 {
			t.Fatalf("deltaMax %d: folded before Rho measurements", tc.deltaMax)
		}
		bucketed.Fold(b)
		if raw.Folds() != 1 || bucketed.Folds() != 1 {
			t.Fatalf("deltaMax %d: folds raw=%d bucketed=%d, want 1 each", tc.deltaMax, raw.Folds(), bucketed.Folds())
		}
		rt, bt := raw.T1(), bucketed.T1()
		for i := range rt {
			if math.Float64bits(rt[i]) != math.Float64bits(bt[i]) {
				t.Fatalf("deltaMax %d: T1[%d][%d] raw %.17g, bucketed %.17g",
					tc.deltaMax, i/raw.States(), i%raw.States(), rt[i], bt[i])
			}
		}
		if c := bucketed.NewCounts(); !c.Empty() {
			t.Fatalf("deltaMax %d: a recycled table must come back empty", tc.deltaMax)
		}
	}
}

// TestCountsFromConcurrentWorkers runs the handoff the runtime uses:
// several goroutines take tables from NewCounts and fill them while one
// goroutine folds the filled ones and serves predictions. Under -race it
// checks the sharing; the folded T1 must equal the one recorded raw.
func TestCountsFromConcurrentWorkers(t *testing.T) {
	const (
		workers = 4
		batches = 50
		perTab  = 100
	)
	cfg := Config{Rho: workers * batches * perTab}
	raw, err := New(40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// transition is the i-th observation of every worker, so the multiset
	// recorded is known whatever the interleaving.
	transition := func(i int) (int, int) {
		from := i % 41
		return from, max(from-i%2, 0)
	}
	filled := make(chan *Counts)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				c := m.NewCounts()
				for i := b * perTab; i < (b+1)*perTab; i++ {
					c.Add(transition(i))
				}
				filled <- c
			}
		}()
	}
	go func() { wg.Wait(); close(filled) }()
	for c := range filled {
		m.Fold(c)
		if p := m.CompletionProbability(20, 100); p < 0 || p > 1 {
			t.Fatalf("probability %g outside [0, 1]", p)
		}
	}
	for range workers {
		for i := 0; i < batches*perTab; i++ {
			raw.RecordTransition(transition(i))
		}
	}
	if m.Folds() != 1 || raw.Folds() != 1 {
		t.Fatalf("folds %d and %d, want 1 each", m.Folds(), raw.Folds())
	}
	rt, mt := raw.T1(), m.T1()
	for i := range rt {
		if rt[i] != mt[i] {
			t.Fatalf("T1[%d] = %g from worker tables, %g recorded raw", i, mt[i], rt[i])
		}
	}
}

func TestInvalidDeltaMax(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Fatal("deltaMax=0 must be rejected")
	}
}
