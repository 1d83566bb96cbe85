package spectre_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/queries"
)

// canonical renders every field of a detection, for byte comparison.
func canonical(out []spectre.ComplexEvent) []string {
	s := make([]string, len(out))
	for i := range out {
		s[i] = fmt.Sprintf("%s det=%d consumed=%v", out[i].Key(), out[i].DetectedAt, out[i].Consumed)
	}
	return s
}

// settleGoroutines waits for the goroutine count to fall back to base
// (exiting goroutines are only unscheduled after their last statement).
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Run, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineIsOneShardHandle pins the Engine to the path it wraps: for
// each evaluation query — and the README query, whose PARTITION BY clause
// an engine ignores, fed one partition's substream — Engine.Run must
// deliver exactly what a one-shard Runtime handle and the sequential
// reference deliver, count intake the same way, run once, and leave none
// of its private pool's goroutines behind.
func TestEngineIsOneShardHandle(t *testing.T) {
	nyse := func(reg *spectre.Registry) []spectre.Event {
		return spectre.GenerateNYSE(reg, spectre.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 80, Seed: 13})
	}
	cases := []struct {
		name  string
		build func(reg *spectre.Registry) (*spectre.Query, []spectre.Event, error)
	}{
		{"q1", func(reg *spectre.Registry) (*spectre.Query, []spectre.Event, error) {
			events := nyse(reg)
			q, err := buildQ1(reg, 6, 300, 4)
			return q, events, err
		}},
		{"q2", func(reg *spectre.Registry) (*spectre.Query, []spectre.Event, error) {
			events := nyse(reg)
			q, err := buildQ2(reg, 600, 100, 80, 125)
			return q, events, err
		}},
		{"q3", func(reg *spectre.Registry) (*spectre.Query, []spectre.Event, error) {
			events := spectre.GenerateRand(reg, spectre.RandConfig{Symbols: 8, Events: 5000, Seed: 17})
			q, err := buildQ3(reg, 3, 150, 40)
			return q, events, err
		}},
		{"qe", func(reg *spectre.Registry) (*spectre.Query, []spectre.Event, error) {
			q, err := queries.QE(reg, queries.QEConsumeSelectedB)
			if err != nil {
				return nil, nil, err
			}
			ta, _ := reg.LookupType("A")
			tb, _ := reg.LookupType("B")
			events := make([]spectre.Event, 600)
			for i := range events {
				events[i] = spectre.Event{TS: int64(i) * int64(15*time.Second), Type: tb}
				if i*i%7 == 1 {
					events[i].Type = ta
				}
			}
			return q, events, nil
		}},
		{"rise", func(reg *spectre.Registry) (*spectre.Query, []spectre.Event, error) {
			all := spectre.GenerateNYSE(reg, spectre.NYSEConfig{Symbols: 8, Leaders: 2, Minutes: 400, Seed: 13})
			var events []spectre.Event
			for _, ev := range all {
				if ev.Type == all[0].Type {
					events = append(events, ev)
				}
			}
			q, err := spectre.ParseQuery(`
				QUERY rise
				PATTERN (X Y)
				DEFINE X AS X.close > X.open, Y AS Y.close > X.close
				WITHIN 40 EVENTS FROM X
				CONSUME ALL
				PARTITION BY TYPE SHARDS 4
			`, reg)
			return q, events, err
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := spectre.NewRegistry()
			q, events, err := tc.build(reg)
			if err != nil {
				t.Fatal(err)
			}
			seq, _, err := spectre.RunSequential(q, append([]spectre.Event(nil), events...))
			if err != nil {
				t.Fatal(err)
			}
			if len(seq) == 0 {
				t.Fatal("reference produced no matches; test is vacuous")
			}
			want := canonical(seq)

			eng, err := spectre.NewEngine(q, spectre.WithInstances(2))
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			var engOut []spectre.ComplexEvent
			if err := eng.Run(ctx, spectre.FromSlice(events), spectre.SinkFunc(func(ce spectre.ComplexEvent) {
				engOut = append(engOut, ce)
			})); err != nil {
				t.Fatal(err)
			}
			settleGoroutines(t, base)
			if err := eng.Run(ctx, spectre.FromSlice(events), nil); !errors.Is(err, spectre.ErrAlreadyRan) {
				t.Fatalf("second Run = %v, want ErrAlreadyRan", err)
			}

			rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(3))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			var poolOut []spectre.ComplexEvent
			h, err := rt.Submit(ctx, q, spectre.SinkFunc(func(ce spectre.ComplexEvent) {
				poolOut = append(poolOut, ce)
			}), spectre.WithInstances(2), spectre.WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Run(ctx, spectre.FromSlice(events)); err != nil {
				t.Fatal(err)
			}

			for label, got := range map[string][]string{"engine": canonical(engOut), "one-shard handle": canonical(poolOut)} {
				if len(got) != len(want) {
					t.Fatalf("%s delivered %d matches, sequential %d", label, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s match %d = %s, sequential %s", label, i, got[i], want[i])
					}
				}
			}
			em, hm := eng.Metrics(), h.Metrics()
			if em.EventsIngested != hm.EventsIngested || em.FilteredEvents != hm.FilteredEvents {
				t.Fatalf("engine ingested %d / filtered %d, handle %d / %d",
					em.EventsIngested, em.FilteredEvents, hm.EventsIngested, hm.FilteredEvents)
			}
			if em.EventsIngested+em.FilteredEvents != uint64(len(events)) {
				t.Fatalf("ingested %d + filtered %d != %d events fed", em.EventsIngested, em.FilteredEvents, len(events))
			}
		})
	}
}

// TestEngineCancelDiscardsBacklog cancels once the whole stream sits
// admitted in the engine's unread tail (the first match holds the
// splitter until the source is exhausted, so the tail must hold the
// whole stream): Run must return ctx.Err() and discard that backlog
// instead of draining it, tell the sink OnError and never OnDrain, and
// stop its pool.
func TestEngineCancelDiscardsBacklog(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 1000, Seed: 13})
	q, err := buildQ1(reg, 6, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := spectre.RunSequential(q, append([]spectre.Event(nil), events...))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := spectre.NewEngine(q, spectre.WithInstances(2), spectre.WithQueueCap(len(events)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &exhaustSource{src: spectre.FromSlice(events), exhausted: make(chan struct{})}
	sink := &cancellingSink{after: src.exhausted, cancel: cancel}
	base := runtime.NumGoroutine()
	if err := eng.Run(ctx, src, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
	matches, errs, drains := sink.snapshot()
	if matches == 0 || matches >= len(seq) {
		t.Fatalf("cancelled run delivered %d of %d matches; the admitted backlog must be discarded", matches, len(seq))
	}
	if len(errs) != 1 || !errors.Is(errs[0], context.Canceled) || drains != 0 {
		t.Fatalf("sink saw errs=%v drains=%d, want one context.Canceled and no drain", errs, drains)
	}
}

// exhaustSource closes exhausted when its source runs dry.
type exhaustSource struct {
	src       spectre.Source
	exhausted chan struct{}
}

func (s *exhaustSource) Next() (spectre.Event, bool) {
	ev, ok := s.src.Next()
	if !ok {
		close(s.exhausted)
	}
	return ev, ok
}

// cancellingSink is a recorder whose first match waits for after, then
// cancels the run.
type cancellingSink struct {
	recorder
	after  <-chan struct{}
	cancel context.CancelFunc
}

func (s *cancellingSink) OnMatch(ce spectre.ComplexEvent) {
	s.recorder.OnMatch(ce)
	<-s.after
	s.cancel()
}
