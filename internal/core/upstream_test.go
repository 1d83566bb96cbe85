package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/queries"
)

// upstreamLife runs one shard journaled upstream: it starts from cut
// (nil: the stream's start), is fed every event from the cut's boundary
// on and drains. It returns the delivered match keys, a copy of every
// cut the shard reported and the position Handle.Recovered named.
func upstreamLife(t *testing.T, q *pattern.Query, events []event.Event, from *durable.CutRecord) (matches []string, cuts []durable.CutRecord, resumed uint64) {
	t.Helper()
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	cfg := Config{Instances: 2, Upstream: &Upstream{
		From: from,
		OnCut: func(c *durable.CutRecord) {
			cp := *c
			cp.Consumed = append([]uint64(nil), c.Consumed...)
			cuts = append(cuts, cp)
		},
	}}
	h, err := rt.Submit(q, cfg, nil, 1, func(ce event.Complex) { matches = append(matches, ce.Key()) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed = h.Recovered()[0]
	if err := h.FeedBatch(context.Background(), events[resumed:]); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	return matches, cuts, resumed
}

// TestResumeFromCut is the contract of a shard whose journal is kept
// upstream: a fresh shard started from any cut the original run reported
// and fed the events from the cut's boundary on emits exactly the
// original run's matches after the cut's watermark, and reports exactly
// the original run's later cuts. The three queries cover a leader window
// (Q1), a FROM EVERY slide window and a duration window consuming only
// its B events, whose cuts carry consumed runs past the boundary — once
// with windows thousands of positions apart, so grid cuts fall between
// them.
func TestResumeFromCut(t *testing.T) {
	cases := []struct {
		name  string
		setup func(reg *event.Registry) (*pattern.Query, []event.Event, error)
		// gaps: windows lie thousands of positions apart, so grid cuts
		// fall between them.
		gaps bool
	}{
		{"Q1", func(reg *event.Registry) (*pattern.Query, []event.Event, error) {
			q, err := queries.Q1(reg, queries.Q1Config{Q: 2, WindowSize: 100, Leaders: 2})
			return q, dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 20, Leaders: 2, Minutes: 120, Seed: 11}), err
		}, false},
		{"every", func(reg *event.Registry) (*pattern.Query, []event.Event, error) {
			q, err := parser.Parse(`
				QUERY every
				PATTERN (X Y Z)
				DEFINE X AS X.close > X.open, Y AS Y.close > X.close, Z AS Z.close > Y.close
				WITHIN 120 EVENTS FROM EVERY 30 EVENTS
				CONSUME ALL`, reg)
			return q, dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 20, Leaders: 2, Minutes: 120, Seed: 5}), err
		}, false},
		{"QE", func(reg *event.Registry) (*pattern.Query, []event.Event, error) { return qe(reg, 1500, 4) }, false},
		{"QE-sparse", func(reg *event.Registry) (*pattern.Query, []event.Event, error) { return qe(reg, 12000, 2500) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := event.NewRegistry()
			q, events, err := tc.setup(reg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range events {
				events[i].Seq = uint64(i)
			}
			want, wantCuts, _ := upstreamLife(t, q, events, nil)
			if len(want) == 0 || len(wantCuts) < 8 {
				t.Fatalf("%d matches, %d cuts: the fixture exercises nothing", len(want), len(wantCuts))
			}
			consumed, idle := 0, 0
			for _, c := range wantCuts {
				if len(c.Consumed) > 0 {
					consumed++
				}
				if c.Boundary%idleCutEvery == 0 {
					idle++
				}
			}
			switch {
			case !tc.gaps && consumed == 0:
				t.Fatal("no cut carries consumed runs")
			case tc.gaps && idle == 0:
				t.Fatal("no grid cut between the windows")
			}
			t.Logf("%d matches, %d cuts: %d carry consumed runs, %d on the idle grid", len(want), len(wantCuts), consumed, idle)
			// Every cut of the run, at most 64 spread evenly.
			step := max(1, len(wantCuts)/64)
			for j := 0; j < len(wantCuts); j += step {
				cut := wantCuts[j]
				label := fmt.Sprintf("cut %d (boundary %d, watermark %d, %d runs)", j, cut.Boundary, cut.Watermark, len(cut.Consumed)/2)
				got, gotCuts, resumed := upstreamLife(t, q, events, &cut)
				if resumed != cut.Boundary {
					t.Fatalf("%s: Recovered = %d, want the boundary", label, resumed)
				}
				assertKeysEqual(t, label, got, want[cut.Watermark:])
				later := wantCuts[j+1:]
				if len(gotCuts) != len(later) {
					t.Fatalf("%s: %d later cuts, want %d", label, len(gotCuts), len(later))
				}
				for k := range later {
					if !sameCut(gotCuts[k], later[k]) {
						t.Fatalf("%s: later cut %d = %+v, want %+v", label, k, gotCuts[k], later[k])
					}
				}
			}
		})
	}
}

// qe is QE (CONSUME (B)) over its stream with an A every aEvery events,
// 7 s apart, so each window holds 9 events and the rest are gaps.
func qe(reg *event.Registry, n, aEvery int) (*pattern.Query, []event.Event, error) {
	q, err := queries.QE(reg, queries.QEConsumeSelectedB)
	ta, tb := reg.TypeID("A"), reg.TypeID("B")
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{TS: int64(i) * int64(7*time.Second), Type: tb}
		if i%aEvery == 0 {
			evs[i].Type = ta
		}
	}
	return q, evs, err
}

// sameCut compares two cuts, an empty run list equal to a nil one.
func sameCut(a, b durable.CutRecord) bool {
	if len(a.Consumed) == 0 && len(b.Consumed) == 0 {
		a.Consumed, b.Consumed = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// TestUpstreamRejectsDurable: a shard journaled upstream keeps no WAL.
func TestUpstreamRejectsDurable(t *testing.T) {
	reg := event.NewRegistry()
	q, err := queries.QE(reg, queries.QEConsumeSelectedB)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(RuntimeConfig{Workers: 1})
	defer rt.Close()
	cfg := Config{Reg: reg, Durable: durable.NewMemStore(), Upstream: &Upstream{}}
	if _, err := rt.Submit(q, cfg, nil, 1, nil, nil); err == nil {
		t.Fatal("Submit accepted Upstream together with Durable")
	}
}
