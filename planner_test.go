package spectre_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/queries"
	"github.com/spectrecep/spectre/query"
)

// collectEngine runs q over events on a standalone engine and returns the
// output keys in delivery order.
func collectEngine(t *testing.T, q *spectre.Query, events []spectre.Event, opts ...spectre.Option) []string {
	t.Helper()
	eng, err := spectre.NewEngine(q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	err = eng.Run(context.Background(), spectre.FromSlice(events), spectre.SinkFunc(func(ce spectre.ComplexEvent) {
		keys = append(keys, ce.Key())
	}))
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// collectRuntime runs q over events through a Runtime submission and
// returns the output keys in delivery order.
func collectRuntime(t *testing.T, reg *spectre.Registry, q *spectre.Query, events []spectre.Event, opts ...spectre.Option) []string {
	t.Helper()
	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var keys []string
	h, err := rt.Submit(context.Background(), q, spectre.SinkFunc(func(ce spectre.ComplexEvent) {
		keys = append(keys, ce.Key())
	}), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FeedBatch(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	return keys
}

func diffKeys(t *testing.T, label string, planned, unplanned []string) {
	t.Helper()
	if len(planned) != len(unplanned) {
		t.Fatalf("%s: planned %d matches, unplanned %d", label, len(planned), len(unplanned))
	}
	for i := range planned {
		if planned[i] != unplanned[i] {
			t.Fatalf("%s: output %d differs: planned %s, unplanned %s", label, i, planned[i], unplanned[i])
		}
	}
}

// checkPlannerEquivalence asserts byte-identical output with and without
// the planner, on both the standalone engine and a runtime submission.
func checkPlannerEquivalence(t *testing.T, reg *spectre.Registry, q *spectre.Query, events []spectre.Event, opts ...spectre.Option) {
	t.Helper()
	planned := collectEngine(t, q, events, opts...)
	unplanned := collectEngine(t, q, events, append([]spectre.Option{spectre.WithoutPlanner()}, opts...)...)
	diffKeys(t, "engine", planned, unplanned)

	rtPlanned := collectRuntime(t, reg, q, events, opts...)
	rtUnplanned := collectRuntime(t, reg, q, events, append([]spectre.Option{spectre.WithoutPlanner()}, opts...)...)
	diffKeys(t, "runtime", rtPlanned, rtUnplanned)
	diffKeys(t, "engine-vs-runtime", planned, rtPlanned)
}

func TestPlannerEquivalenceQE(t *testing.T) {
	for _, cp := range []queries.QEConsumption{queries.QEConsumeNone, queries.QEConsumeSelectedB} {
		reg := spectre.NewRegistry()
		q, err := queries.QE(reg, cp)
		if err != nil {
			t.Fatal(err)
		}
		// Mixed-type stream: A/B are 2 of 10 types, so the intake filter
		// has real work.
		rng := rand.New(rand.NewSource(11))
		typeNames := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J"}
		var events []spectre.Event
		for i := 0; i < 5000; i++ {
			events = append(events, spectre.Event{
				TS:   int64(i) * 1_500_000_000, // 1.5s apart
				Type: reg.TypeID(typeNames[rng.Intn(len(typeNames))]),
			})
		}
		checkPlannerEquivalence(t, reg, q, events, spectre.WithInstances(3))

		// QE is fully typed with FROM A: the planner must turn both
		// filters on.
		eng, err := spectre.NewEngine(q)
		if err != nil {
			t.Fatal(err)
		}
		p := eng.Plan()
		if p == nil || !p.IntakeActive() || !p.MatcherFilterActive() {
			t.Fatalf("QE plan: %+v", p.Info())
		}
	}
}

func TestPlannerEquivalenceQ1(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 60, Seed: 7})
	q, err := buildQ1(reg, 5, 250, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Q1's rising steps are untyped (no binding-free guard), so intake
	// filtering must stay off — the equivalence here exercises the
	// predicate-reordering path alone.
	checkPlannerEquivalence(t, reg, q, events, spectre.WithInstances(4))
}

func TestPlannerEquivalenceQ2(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{Symbols: 30, Leaders: 4, Minutes: 40, Seed: 9})
	q, err := buildQ2(reg, 600, 150, 96, 104)
	if err != nil {
		t.Fatal(err)
	}
	// FROM EVERY: intake filtering is illegal and must stay off.
	checkPlannerEquivalence(t, reg, q, events, spectre.WithInstances(4))
}

func TestPlannerEquivalenceQ3(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateRand(reg, spectre.RandConfig{Symbols: 25, Events: 6000, Seed: 13})
	q, err := buildQ3(reg, 3, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	checkPlannerEquivalence(t, reg, q, events, spectre.WithInstances(4))
}

// TestPlannerEquivalencePartitioned compares a partitioned runtime
// submission planned vs unplanned. Cross-shard interleaving is
// arrival-order, so the comparison is on sorted key sets.
func TestPlannerEquivalencePartitioned(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateRand(reg, spectre.RandConfig{Symbols: 12, Events: 8000, Seed: 17})
	b := query.New(reg).Name("perSymbol")
	closeF := b.Float("close")
	q, err := b.
		Pattern(
			query.Step("X").Types(spectre.Symbol(0), spectre.Symbol(1), spectre.Symbol(2), spectre.Symbol(3)).
				WhereEvent(func(ev *query.Event) bool { return closeF.Of(ev) > 0 }),
			query.Step("Y").Types(spectre.Symbol(0), spectre.Symbol(1), spectre.Symbol(2), spectre.Symbol(3)),
		).
		Within(query.Events(300)).From("X").
		ConsumeAll().
		PartitionByType().Shards(4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	planned := collectRuntime(t, reg, q, events)
	unplanned := collectRuntime(t, reg, q, events, spectre.WithoutPlanner())
	sort.Strings(planned)
	sort.Strings(unplanned)
	diffKeys(t, "partitioned", planned, unplanned)
	if len(planned) == 0 {
		t.Fatal("vacuous workload")
	}
}

// TestPlannerEquivalenceRandomQueries fuzzes the planner against the
// unplanned engine with randomized typed queries over mixed-type streams.
func TestPlannerEquivalenceRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 6; iter++ {
		reg := spectre.NewRegistry()
		typeNames := make([]string, 10)
		for i := range typeNames {
			typeNames[i] = fmt.Sprintf("T%d", i)
			reg.TypeID(typeNames[i])
		}
		b := query.New(reg).Name(fmt.Sprintf("rand%d", iter))
		val := b.Float("v")
		steps := 2 + rng.Intn(3)
		var firstName string
		for s := 0; s < steps; s++ {
			name := fmt.Sprintf("S%d", s)
			if s == 0 {
				firstName = name
			}
			sb := query.Step(name).Types(typeNames[rng.Intn(4)], typeNames[rng.Intn(4)])
			switch rng.Intn(3) {
			case 0:
				cut := rng.Float64()
				sb.WhereEvent(func(ev *query.Event) bool { return val.Of(ev) > cut })
			case 1:
				lo, hi := rng.Float64()*0.4, 0.6+rng.Float64()*0.4
				sb.WhereEvent(func(ev *query.Event) bool { return val.Of(ev) > lo }).
					WhereEvent(func(ev *query.Event) bool { return val.Of(ev) < hi })
			}
			b.Pattern(sb)
		}
		b.Within(query.Events(50 + rng.Intn(150))).From(firstName)
		if rng.Intn(2) == 0 {
			b.ConsumeAll()
		} else {
			b.ConsumeNone()
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}

		events := make([]spectre.Event, 4000)
		for i := range events {
			events[i] = spectre.Event{
				TS:     int64(i) * 1_000_000_000,
				Type:   reg.TypeID(typeNames[rng.Intn(len(typeNames))]),
				Fields: []float64{rng.Float64()},
			}
		}
		checkPlannerEquivalence(t, reg, q, events, spectre.WithInstances(1+rng.Intn(4)))
	}
}

// TestFilteredEventsMetric pins the accounting contract of the intake
// prefilter: fed = ingested + filtered, and the filter count surfaces in
// Metrics and the plan.
func TestFilteredEventsMetric(t *testing.T) {
	reg := spectre.NewRegistry()
	q, err := queries.QE(reg, queries.QEConsumeSelectedB)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	typeNames := []string{"A", "B", "C", "D", "E"}
	events := make([]spectre.Event, 3000)
	for i := range events {
		events[i] = spectre.Event{
			TS:   int64(i) * 1_000_000_000,
			Type: reg.TypeID(typeNames[rng.Intn(len(typeNames))]),
		}
	}

	eng, err := spectre.NewEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), spectre.FromSlice(events), nil); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.FilteredEvents == 0 {
		t.Fatal("intake filter dropped nothing on a 3/5-irrelevant stream")
	}
	if m.EventsIngested+m.FilteredEvents != uint64(len(events)) {
		t.Fatalf("ingested %d + filtered %d != fed %d", m.EventsIngested, m.FilteredEvents, len(events))
	}
	if got := eng.Plan().Filtered(); got != m.FilteredEvents {
		t.Fatalf("plan filtered %d, metrics %d", got, m.FilteredEvents)
	}

	// Same contract through a runtime handle.
	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h, err := rt.Submit(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FeedBatch(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	hm := h.Metrics()
	if hm.FilteredEvents != m.FilteredEvents || hm.EventsIngested != m.EventsIngested {
		t.Fatalf("runtime ingested/filtered %d/%d, engine %d/%d",
			hm.EventsIngested, hm.FilteredEvents, m.EventsIngested, m.FilteredEvents)
	}
}
