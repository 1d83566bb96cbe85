package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/queries"
)

// TestMultipleConcurrentRuns exercises the multi-consumption-group path:
// several partial matches per window version, shared-reference structure
// copies in the dependency tree, and restart-fresh selection.
func TestMultipleConcurrentRuns(t *testing.T) {
	reg := event.NewRegistry()
	ta, tb := reg.TypeID("A"), reg.TypeID("B")
	p := pattern.Seq("multi",
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}},
	)
	p.Selection = pattern.SelectionPolicy{MaxConcurrentRuns: 3, OnCompletion: pattern.RestartFresh}
	p.ConsumeAll()
	q := &pattern.Query{
		Name:    "multi",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartEvery, Every: 7,
			EndKind: pattern.EndCount, Count: 21,
		},
	}

	rng := rand.New(rand.NewSource(17))
	var events []event.Event
	for i := 0; i < 2000; i++ {
		ty := ta
		if rng.Intn(3) != 0 {
			ty = tb
		}
		events = append(events, event.Event{TS: int64(i), Type: ty})
	}
	want := runSequential(t, q, events)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	for _, k := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			got, _ := runSpectre(t, q, events, Config{Instances: k})
			assertSameOutput(t, "multi-run", got, want)
		})
	}
}

// TestAggressiveConsistencyChecking runs with a check after every event and
// a tiny batch size, maximizing scheduling churn and handoffs.
func TestAggressiveConsistencyChecking(t *testing.T) {
	reg := event.NewRegistry()
	events := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 120, Seed: 13})
	q, err := queries.Q1(reg, queries.Q1Config{Q: 8, WindowSize: 300, Leaders: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := runSequential(t, q, events)
	got, eng := runSpectre(t, q, events, Config{
		Instances:             4,
		ConsistencyCheckEvery: 1,
		BatchSize:             8,
		IngestBatch:           16,
	})
	assertSameOutput(t, "aggressive", got, want)
	m := eng.MetricsSnapshot()
	if m.EventsIngested != uint64(len(events)) {
		t.Fatalf("ingested %d, want %d", m.EventsIngested, len(events))
	}
}

// TestTinyTreeBackpressure forces the ingestion backpressure path: the
// lookahead horizon is one window, far below the natural working set, so
// ingestion pauses as soon as the root window has its events.
func TestTinyTreeBackpressure(t *testing.T) {
	reg := event.NewRegistry()
	events := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 30, Leaders: 3, Minutes: 100, Seed: 23})
	q, err := queries.Q1(reg, queries.Q1Config{Q: 5, WindowSize: 200, Leaders: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := runSequential(t, q, events)
	got, eng := runSpectre(t, q, events, Config{Instances: 3, horizon: 1})
	assertSameOutput(t, "backpressure", got, want)
	if m := eng.MetricsSnapshot(); m.EventsIngested != uint64(len(events)) {
		t.Fatal("backpressure must not lose events")
	}
}

// TestEmptyAndDegenerateStreams covers stream-edge behaviour.
func TestEmptyAndDegenerateStreams(t *testing.T) {
	reg := event.NewRegistry()
	q, err := queries.QE(reg, queries.QEConsumeSelectedB)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("empty", func(t *testing.T) {
		got, eng := runSpectre(t, q, nil, Config{Instances: 2})
		if len(got) != 0 {
			t.Fatal("no events, no detections")
		}
		if m := eng.MetricsSnapshot(); m.WindowsOpened != 0 {
			t.Fatal("no windows expected")
		}
	})
	t.Run("no matching start", func(t *testing.T) {
		tb, _ := reg.LookupType("B")
		events := []event.Event{{TS: 0, Type: tb}, {TS: 1, Type: tb}}
		got, _ := runSpectre(t, q, events, Config{Instances: 2})
		if len(got) != 0 {
			t.Fatal("no windows, no detections")
		}
	})
	t.Run("window cut by stream end", func(t *testing.T) {
		ta, _ := reg.LookupType("A")
		tb, _ := reg.LookupType("B")
		// The duration window never sees its boundary event.
		events := []event.Event{
			{TS: 0, Type: ta},
			{TS: int64(time.Second), Type: tb},
		}
		want := runSequential(t, q, events)
		got, _ := runSpectre(t, q, events, Config{Instances: 2})
		assertSameOutput(t, "cut", got, want)
		if len(got) != 1 {
			t.Fatalf("expected the single A-B match, got %d", len(got))
		}
	})
}

// TestEngineRunsOnce verifies the one-shot contract.
func TestEngineRunsOnce(t *testing.T) {
	reg := event.NewRegistry()
	q, err := queries.QE(reg, queries.QEConsumeNone)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, Config{Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), sliceSrc(nil), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), sliceSrc(nil), nil); err != ErrAlreadyRan {
		t.Fatalf("second Run = %v, want ErrAlreadyRan", err)
	}
}

// TestMetricsAccounting checks the bookkeeping identities after a run.
func TestMetricsAccounting(t *testing.T) {
	reg := event.NewRegistry()
	events := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 100, Seed: 31})
	q, err := queries.Q1(reg, queries.Q1Config{Q: 6, WindowSize: 250, Leaders: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, eng := runSpectre(t, q, events, Config{Instances: 4})
	m := eng.MetricsSnapshot()
	if m.EventsIngested != uint64(len(events)) {
		t.Fatalf("ingested %d, want %d", m.EventsIngested, len(events))
	}
	if m.CGsCreated < m.CGsCompleted {
		t.Fatalf("created %d < completed %d", m.CGsCreated, m.CGsCompleted)
	}
	if m.VersionsCreated < m.WindowsOpened {
		t.Fatalf("versions %d < windows %d", m.VersionsCreated, m.WindowsOpened)
	}
	if m.Cycles == 0 || m.MaxTreeSize == 0 {
		t.Fatal("cycle and tree-size metrics must be populated")
	}
	if m.EventsProcessed == 0 {
		t.Fatal("processing metric must be populated")
	}
}

// sliceSrc is a minimal source for degenerate cases.
type sliceSrcT struct {
	evs []event.Event
	i   int
}

func sliceSrc(evs []event.Event) *sliceSrcT { return &sliceSrcT{evs: evs} }

func (s *sliceSrcT) Next() (event.Event, bool) {
	if s.i >= len(s.evs) {
		return event.Event{}, false
	}
	ev := s.evs[s.i]
	s.i++
	return ev, true
}

// TestRandomizedEquivalence is the flagship property test: random streams,
// random query shapes, random policies — the parallel engine must always
// produce exactly the sequential output.
func TestRandomizedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			reg := event.NewRegistry()
			nTypes := 2 + rng.Intn(4)
			types := make([]event.Type, nTypes)
			for i := range types {
				types[i] = reg.TypeID(fmt.Sprintf("T%d", i))
			}

			// Random pattern: 2-4 steps over the type alphabet, optional
			// negation in the middle, random consumption flags.
			nSteps := 2 + rng.Intn(3)
			steps := make([]pattern.Step, 0, nSteps)
			for i := 0; i < nSteps; i++ {
				st := pattern.Step{
					Name:  fmt.Sprintf("S%d", i),
					Types: []event.Type{types[rng.Intn(nTypes)]},
				}
				if i > 0 && i < nSteps-1 && rng.Intn(5) == 0 {
					st.Negated = true
				}
				if rng.Intn(2) == 0 {
					st.Quant = pattern.OneOrMore
				}
				steps = append(steps, st)
			}
			// Negated steps cannot be Kleene; normalize.
			positives := 0
			for i := range steps {
				if steps[i].Negated {
					steps[i].Quant = pattern.One
				} else {
					positives++
				}
			}
			if positives < 2 {
				steps[0].Negated = false
				steps[len(steps)-1].Negated = false
			}
			if steps[len(steps)-1].Negated {
				steps[len(steps)-1].Negated = false
			}
			p := pattern.Seq("rand", steps...)
			p.Selection = pattern.SelectionPolicy{
				MaxConcurrentRuns: 1 + rng.Intn(2),
				OnCompletion:      pattern.CompletionBehavior(1 + rng.Intn(2)), // stop or restart-leader
			}
			if p.Selection.OnCompletion == pattern.RestartAfterLeader {
				// Leader must be a single-event step.
				steps[0].Quant = pattern.One
				steps[0].Negated = false
				p = pattern.Seq("rand", steps...)
				p.Selection = pattern.SelectionPolicy{MaxConcurrentRuns: 1, OnCompletion: pattern.RestartAfterLeader}
			}
			switch rng.Intn(3) {
			case 0:
				p.ConsumeAll()
			case 1:
				p.ConsumeNone()
			default:
				// Consume a random positive step.
				for _, st := range steps {
					if !st.Negated {
						if err := p.ConsumeSteps(st.Name); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}

			ws := 20 + rng.Intn(80)
			q := &pattern.Query{
				Name:    "rand",
				Pattern: *p,
				Window: pattern.WindowSpec{
					StartKind: pattern.StartEvery,
					Every:     5 + rng.Intn(ws/2),
					EndKind:   pattern.EndCount,
					Count:     ws,
				},
			}
			if rng.Intn(3) == 0 {
				q.Window = pattern.WindowSpec{
					StartKind:  pattern.StartOnMatch,
					StartTypes: []event.Type{types[0]},
					EndKind:    pattern.EndCount,
					Count:      ws,
				}
			}
			if err := q.Validate(); err != nil {
				t.Skipf("degenerate random query: %v", err)
			}

			n := 1500 + rng.Intn(1500)
			events := make([]event.Event, n)
			for i := range events {
				events[i] = event.Event{TS: int64(i), Type: types[rng.Intn(nTypes)]}
			}

			want := runSequential(t, q, events)
			k := 1 + rng.Intn(6)
			check := 1 + rng.Intn(64)
			batch := 1 + rng.Intn(128)
			got, _ := runSpectre(t, q, events, Config{
				Instances:             k,
				ConsistencyCheckEvery: check,
				BatchSize:             batch,
			})
			assertSameOutput(t, fmt.Sprintf("random(k=%d)", k), got, want)
		})
	}
}
