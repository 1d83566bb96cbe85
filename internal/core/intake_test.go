package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/shard"
	"github.com/spectrecep/spectre/internal/window"
)

// rootNeedsIngest reports whether the root window is still waiting for
// events, in which case ingestion must continue regardless of the
// lookahead horizon (liveness).
func (s *shardState) rootNeedsIngest() bool {
	root := s.tree.Root()
	if root == nil {
		return true
	}
	end := root.WV.Win.EndSeq()
	return end == window.UnknownEnd || s.cursor < end
}

// lookaheadFull is the per-event form of the horizon rule that
// ingestStop computes once per window change: ingestion pauses once the
// root window has all its events and the horizon's worth of windows is
// open, counted from the root.
func (s *shardState) lookaheadFull() bool {
	return !s.rootNeedsIngest() && s.lookahead() >= s.prog.cfg.horizon
}

// TestIngestStopMatchesPerEventHorizon: on a fresh shard whose whole
// stream is in the arena, one ingest call stops exactly where testing
// lookaheadFull before every event would have stopped. The oracle replays
// window formation alone: the stop is the first position at which the
// root (window 0) has resolved to an end at or below it and the horizon's
// worth of windows is open. The windows are duration-scoped, so the root's
// end resolves inside the call — before the horizon fills, or after.
func TestIngestStopMatchesPerEventHorizon(t *testing.T) {
	reg := event.NewRegistry()
	ta, tb := reg.TypeID("A"), reg.TypeID("B")
	events := make([]event.Event, 300)
	for i := range events {
		ty := tb
		if i%3 == 0 {
			ty = ta
		}
		events[i] = event.Event{TS: int64(i), Type: ty}
	}
	for _, d := range []time.Duration{10, 40} {
		t.Run(fmt.Sprintf("WITHIN=%d", d), func(t *testing.T) {
			p := pattern.Seq("stop",
				pattern.Step{Name: "X", Types: []event.Type{ta}},
				pattern.Step{Name: "Y", Types: []event.Type{tb}},
			)
			q := &pattern.Query{
				Name:    "stop",
				Pattern: *p,
				Window: pattern.WindowSpec{
					StartKind: pattern.StartOnMatch, StartTypes: []event.Type{ta},
					EndKind: pattern.EndDuration, Duration: d,
				},
			}
			const k = 2
			prog, err := compile(q, Config{Instances: k, IngestBatch: len(events), PlanDisabled: true})
			if err != nil {
				t.Fatal(err)
			}
			h := prog.cfg.horizon
			if h != horizonPerSlot*k {
				t.Fatalf("horizon %d, want 4·k = %d", h, horizonPerSlot*k)
			}

			// The oracle: window formation alone.
			mgr := window.NewManager(q.Window)
			var root *window.Window
			stop, opened := -1, 0
			for c := range events {
				if root != nil && root.Resolved() && root.EndSeq() <= uint64(c) && opened >= h {
					stop = c
					break
				}
				ev := events[c]
				ev.Seq = uint64(c)
				o, _ := mgr.Observe(&ev)
				if root == nil && len(o) > 0 {
					root = o[0]
				}
				opened += len(o)
			}
			if stop < 0 {
				t.Fatal("the horizon never fills; the test is vacuous")
			}

			s, err := newShard(prog)
			if err != nil {
				t.Fatal(err)
			}
			s.begin(nil)
			feedShard(s, events, false)
			s.ingest()
			if s.cursor != uint64(stop) {
				t.Fatalf("ingest stopped at %d, the per-event horizon test at %d", s.cursor, stop)
			}
			if !s.lookaheadFull() {
				t.Fatal("ingest stopped with the horizon not full")
			}
			if s.winMgr.Opened() != uint64(opened) {
				t.Fatalf("%d windows opened, want %d", s.winMgr.Opened(), opened)
			}
			if end := s.tree.Root().WV.Win.EndSeq(); end == window.UnknownEnd || end >= uint64(stop) {
				t.Fatalf("root end %d did not resolve inside the call (stop %d)", end, stop)
			}
			if d == 10 && opened != h {
				t.Fatalf("%d windows open at the stop, want exactly the horizon %d: events past it stay unread", opened, h)
			}
			// Nothing moves while the root keeps the horizon full.
			if s.ingest(); s.cursor != uint64(stop) {
				t.Fatalf("a second ingest moved the cursor to %d past the full horizon", s.cursor)
			}
		})
	}
}

// TestHandleFeedBatchPublishesBeforeWaiting: one FeedBatch of three
// times QueueCap events into one shard returns, and the output equals
// the sequential engine's. The batch holds the admission lock from its
// first event, so the splitter sees its events only because a producer
// publishes before it waits for room: without that, the tail stays full
// of events the splitter cannot see, and the batch never returns.
func TestHandleFeedBatchPublishesBeforeWaiting(t *testing.T) {
	const capacity = 64
	reg := event.NewRegistry()
	q, err := parser.Parse(riseQuery, reg)
	if err != nil {
		t.Fatal(err)
	}
	events := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 8, Leaders: 2, Minutes: 60, Seed: 3})[:3*capacity]
	want := runSequential(t, q, events)
	if len(want) == 0 {
		t.Fatal("no matches; the test is vacuous")
	}
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	var got []event.Complex
	h, err := rt.Submit(q, Config{Instances: 2, QueueCap: capacity, PlanDisabled: true}, nil, 1,
		func(ce event.Complex) { got = append(got, ce) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	fed := make(chan error, 1)
	go func() { fed <- h.FeedBatch(context.Background(), events) }()
	select {
	case err := <-fed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("FeedBatch of 3·QueueCap events into one shard never returned")
	}
	h.Drain()
	assertSameOutput(t, "FeedBatch", got, want)
}

// TestFeedDoesNotAllocate: Feed and TryFeed admit an event without a
// heap allocation, on one shard and on a partitioned handle. Routing
// reads the caller's event in place (shard.Router is concrete) and the
// intake filter sees the shard's staging copy, so the caller's event
// stays on its stack.
func TestFeedDoesNotAllocate(t *testing.T) {
	const runs = 200
	reg := event.NewRegistry()
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			var route *shard.Router
			if n > 1 {
				route = shard.NewRouter(n, shard.ByType())
			}
			h, err := idleRuntime(nil).Submit(testQuery(t, reg), Config{Instances: 1, QueueCap: 4 * runs}, route, n, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			ev := event.Event{TS: 1, Type: reg.TypeID("B"), Fields: []float64{1}}
			if a := testing.AllocsPerRun(runs, func() {
				if err := h.Feed(ctx, ev); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Fatalf("Feed: %v allocs per event, want 0", a)
			}
			if a := testing.AllocsPerRun(runs, func() {
				if err := h.TryFeed(ev); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Fatalf("TryFeed: %v allocs per event, want 0", a)
			}
		})
	}
}

// TestHandleFeedBatchShedsOnlyOnLag: a shedding shard reads the unread
// tail as the splitter's lag, so events the splitter has ingested in the
// middle of a run must not count. The test holds one admission run as
// FeedBatch does, for eight times QueueCap events, and plays the
// splitter by hand after every admit; nothing may be shed. Were a run's
// appends published only when it ends, the splitter would see none of
// them and the shedder would drop most of the run, as it would on a
// FeedBatch into an idle shard.
func TestHandleFeedBatchShedsOnlyOnLag(t *testing.T) {
	const capacity = 64
	h, s, ev, _ := idleHandleCfg(t, Config{Instances: 1, QueueCap: capacity, Shed: true})
	if err := h.lockShard(0); err != nil {
		t.Fatal(err)
	}
	var tl tally
	for i := 0; i < 8*capacity; i++ {
		if err := h.admit(context.Background(), 0, &ev, &tl, true); err != nil {
			t.Fatal(err)
		}
		s.splitCycle()
	}
	shed := tl.shed
	h.unlockShard(0, &tl)
	if shed != 0 {
		t.Fatalf("shed %d of %d events the splitter kept up with, want 0", shed, 8*capacity)
	}
	if s.appended != 8*capacity {
		t.Fatalf("appended %d, want %d", s.appended, 8*capacity)
	}
}
