package spectre_test

import (
	"context"
	"math"
	"testing"
	"time"

	spectre "github.com/spectrecep/spectre"
)

// TestPublicAPIFigure1 drives the whole public surface: registry, query
// parsing, engine construction, run, metrics — reproducing the paper's
// Figure 1(b).
func TestPublicAPIFigure1(t *testing.T) {
	reg := spectre.NewRegistry()
	query, err := spectre.ParseQuery(`
		QUERY influence
		PATTERN (A B)
		DEFINE A AS A.symbol = 'A', B AS B.symbol = 'B'
		WITHIN 1 min FROM A
		CONSUME (B)
		ON MATCH RESTART LEADER
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := reg.LookupType("A")
	tb, _ := reg.LookupType("B")
	at := func(s int) int64 { return int64(s) * int64(time.Second) }
	events := []spectre.Event{
		{TS: at(0), Type: ta},
		{TS: at(10), Type: ta},
		{TS: at(20), Type: tb},
		{TS: at(40), Type: tb},
		{TS: at(65), Type: tb},
	}

	eng, err := spectre.NewEngine(query, spectre.WithInstances(3))
	if err != nil {
		t.Fatal(err)
	}
	var got []spectre.ComplexEvent
	if err := eng.Run(context.Background(), spectre.FromSlice(events), spectre.SinkFunc(func(ce spectre.ComplexEvent) {
		got = append(got, ce)
	})); err != nil {
		t.Fatal(err)
	}
	want := []string{"influence@0:0,2", "influence@0:0,3", "influence@1:1,4"}
	if len(got) != len(want) {
		t.Fatalf("got %d complex events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i] {
			t.Fatalf("event %d = %s, want %s", i, got[i].Key(), want[i])
		}
	}
	m := eng.Metrics()
	if m.Matches != 3 || m.EventsConsumed != 3 {
		t.Fatalf("metrics: %d matches, %d consumed; want 3/3", m.Matches, m.EventsConsumed)
	}
}

// TestEnginesAgreeViaPublicAPI cross-checks the three engines on Q1.
func TestEnginesAgreeViaPublicAPI(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{
		Symbols: 50, Leaders: 4, Minutes: 80, Seed: 5,
	})
	query, err := buildQ1(reg, 6, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, stats, err := spectre.RunSequential(query, append([]spectre.Event(nil), events...))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RunsStarted == 0 {
		t.Fatal("vacuous workload")
	}
	eng, err := spectre.NewEngine(query, spectre.WithInstances(4))
	if err != nil {
		t.Fatal(err)
	}
	var got []spectre.ComplexEvent
	if err := eng.Run(context.Background(), spectre.FromSlice(events), spectre.SinkFunc(func(ce spectre.ComplexEvent) {
		got = append(got, ce)
	})); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("SPECTRE %d matches, sequential %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("output %d differs", i)
		}
	}
	// The baseline runs and terminates; its arrival-order semantics may
	// yield a different match set on overlapping windows.
	if _, _, err := spectre.RunBaseline(query, append([]spectre.Event(nil), events...)); err != nil {
		t.Fatal(err)
	}
}

// TestFixedProbabilityOption exercises the Figure 11 configuration path.
func TestFixedProbabilityOption(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateRand(reg, spectre.RandConfig{Symbols: 20, Events: 4000, Seed: 8})
	query, err := buildQ3(reg, 3, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := spectre.RunSequential(query, append([]spectre.Event(nil), events...))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 1} {
		eng, err := spectre.NewEngine(query,
			spectre.WithInstances(2),
			spectre.WithFixedProbability(p),
		)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		if err := eng.Run(context.Background(), spectre.FromSlice(events), spectre.SinkFunc(func(spectre.ComplexEvent) { count++ })); err != nil {
			t.Fatal(err)
		}
		if count != len(want) {
			t.Fatalf("p=%g: %d matches, want %d", p, count, len(want))
		}
	}
}

// TestFixedProbabilityValidated: a probability outside [0, 1] is an error
// from both entry points, never an engine whose top-k heap compares NaNs.
func TestFixedProbabilityValidated(t *testing.T) {
	reg := spectre.NewRegistry()
	query, err := buildQ3(reg, 3, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, tc := range []struct {
		p  float64
		ok bool
	}{
		{math.NaN(), false}, {-0.1, false}, {1.5, false},
		{0, true}, {0.6, true}, {1, true},
	} {
		if _, err := spectre.NewEngine(query, spectre.WithFixedProbability(tc.p)); (err == nil) != tc.ok {
			t.Errorf("NewEngine with p=%g: err = %v, want ok=%v", tc.p, err, tc.ok)
		}
		h, err := rt.Submit(context.Background(), query, nil, spectre.WithFixedProbability(tc.p))
		if (err == nil) != tc.ok {
			t.Errorf("Submit with p=%g: err = %v, want ok=%v", tc.p, err, tc.ok)
		}
		if err == nil {
			h.Drain()
		}
	}
}

// TestDatasetHelpers covers the re-exported dataset utilities.
func TestDatasetHelpers(t *testing.T) {
	if spectre.LeaderSymbol(0) == "" || spectre.Symbol(0) == "" {
		t.Fatal("symbol helpers must produce names")
	}
	reg := spectre.NewRegistry()
	events := spectre.GenerateRand(reg, spectre.RandConfig{Symbols: 5, Events: 100, Seed: 1})
	if len(events) != 100 {
		t.Fatalf("generated %d events", len(events))
	}
}
