package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/queries"
	"github.com/spectrecep/spectre/internal/stream"
	"github.com/spectrecep/spectre/internal/window"
)

// riseQuery is the README quickstart query (PARTITION BY is ignored by a
// single shard).
const riseQuery = `
	QUERY rise
	PATTERN (X Y)
	DEFINE X AS X.close > X.open, Y AS Y.close > X.close
	WITHIN 40 EVENTS FROM X
	CONSUME ALL
	PARTITION BY TYPE SHARDS 4`

// newestWindow returns the highest-id window with a version under n.
func newestWindow(n *deptree.Node) *window.Window {
	if n == nil {
		return nil
	}
	var best *window.Window
	consider := func(w *window.Window) {
		if w != nil && (best == nil || w.ID > best.ID) {
			best = w
		}
	}
	if n.IsWV() {
		consider(n.WV.Win)
		consider(newestWindow(n.Child()))
		return best
	}
	consider(newestWindow(n.Edge(deptree.AbandonEdge)))
	consider(newestWindow(n.Edge(deptree.CompletionEdge)))
	return best
}

// checkHorizon asserts the lookahead bound between splitter cycles: once
// the root window has all its events, at most h windows are open counted
// from it. Windows the root forced open while it still lacked events are
// exempt (liveness) — they start before the root's end; a window starting
// at or past it was opened after the root was complete.
func checkHorizon(s *shardState, h int) error {
	root := s.tree.Root()
	if root == nil || s.rootNeedsIngest() || s.lookahead() <= h {
		return nil
	}
	if last := newestWindow(root); last.StartSeq >= root.WV.Win.EndSeq() {
		return fmt.Errorf("%d windows open from complete root %v (horizon %d); newest %v opened after the root was complete",
			s.lookahead(), root.WV.Win, h, last)
	}
	return nil
}

// driveShard runs one shard single-threaded — splitter cycle, then one
// batch per slot, over and over — checking the lookahead bound
// after every splitter cycle, and returns the emitted matches.
func driveShard(t *testing.T, q *pattern.Query, events []event.Event, cfg Config, h int, deadline time.Duration) []event.Complex {
	t.Helper()
	prog, err := compile(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog)
	if err != nil {
		t.Fatal(err)
	}
	var got []event.Complex
	s.begin(func(ce event.Complex) { got = append(got, ce) })
	feedShard(s, events, true)
	stop := time.Now().Add(deadline)
	for cycles := 0; !s.finished.Load(); cycles++ {
		if time.Now().After(stop) {
			t.Fatalf("no progress to the end of the stream within %v (%d cycles, %d/%d events ingested, tree %d)",
				deadline, cycles, s.cursor, len(events), s.tree.Size())
		}
		s.step()
		if err := checkHorizon(s, h); err != nil {
			t.Fatalf("cycle %d: %v", cycles, err)
		}
	}
	return got
}

// TestHorizonSweep drives the README rise query and small Q1/Q2/Q3
// workloads with the lookahead horizon pinned at 1, 2, k, 4k (the
// default) and 64k windows. Every row must reach the end of the stream within
// its deadline with output equal to the sequential engine's, both
// single-threaded with the bound checked after every splitter cycle and
// as a concurrent Engine.
func TestHorizonSweep(t *testing.T) {
	const k = 3
	reg := event.NewRegistry()
	nyse := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 20, Leaders: 3, Minutes: 100, Seed: 5})
	rise, err := parser.Parse(riseQuery, reg)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := queries.Q1(reg, queries.Q1Config{Q: 5, WindowSize: 200, Leaders: 3})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := queries.Q2(reg, queries.Q2Config{WindowSize: 300, Slide: 50, LowerLimit: 80, UpperLimit: 125})
	if err != nil {
		t.Fatal(err)
	}
	regR := event.NewRegistry()
	random := dataset.Rand(regR, dataset.RandConfig{Symbols: 8, Events: 3000, Seed: 7})
	q3, err := queries.Q3(regR, queries.Q3Config{SetSize: 3, WindowSize: 150, Slide: 40})
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		label  string
		q      *pattern.Query
		events []event.Event
	}{
		{"rise", rise, nyse},
		{"q1", q1, nyse},
		{"q2", q2, nyse},
		{"q3", q3, random},
	}
	for _, wl := range workloads {
		want := runSequential(t, wl.q, wl.events)
		if len(want) == 0 {
			t.Fatalf("%s produced no matches; test is vacuous", wl.label)
		}
		for _, h := range []int{1, 2, k, 4 * k, 64 * k} {
			t.Run(fmt.Sprintf("%s/H=%d", wl.label, h), func(t *testing.T) {
				cfg := Config{Instances: k, BatchSize: 32, IngestBatch: 64, horizon: h}
				got := driveShard(t, wl.q, wl.events, cfg, h, 60*time.Second)
				assertSameOutput(t, "single-threaded", got, want)

				eng, err := New(wl.q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				got = got[:0]
				if err := eng.Run(ctx, stream.FromSlice(wl.events), func(ce event.Complex) {
					got = append(got, ce)
				}); err != nil {
					t.Fatalf("engine: %v", err)
				}
				assertSameOutput(t, "engine", got, want)
			})
		}
	}
}

// TestStaleGroupNeverStallsRoot replays, deterministically, the
// interleaving that used to stall a shard forever. A slot creates a
// consumption group in the version about to become root — whose window
// still lacks events — and queues the creation message. Before the
// splitter drains the queue, the previous root pops and the final gate
// rejects the new root and reprocesses it from its window start. The
// reset must resolve the group, and the stale creation message must then
// insert nothing: an open group vertex under the root is one the root
// waits on forever.
func TestStaleGroupNeverStallsRoot(t *testing.T) {
	reg := event.NewRegistry()
	ta, tb, tc := reg.TypeID("A"), reg.TypeID("B"), reg.TypeID("C")
	p := pattern.Seq("stale",
		pattern.Step{Name: "A", Types: []event.Type{ta}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Consume: true},
	)
	q := &pattern.Query{
		Name:    "stale",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartEvery, Every: 8,
			EndKind: pattern.EndCount, Count: 8,
		},
	}
	prog, err := compile(q, Config{
		Instances: 2, BatchSize: 2, IngestBatch: 10,
		ConsistencyCheckEvery: 1 << 20, PlanDisabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog)
	if err != nil {
		t.Fatal(err)
	}
	s.begin(nil)
	// Window 0 is eight Cs; window 1 is A C C C C C C B.
	events := make([]event.Event, 16)
	for i := range events {
		ty := tc
		switch i {
		case 8:
			ty = ta
		case 15:
			ty = tb
		}
		events[i] = event.Event{TS: int64(i), Type: ty}
	}
	feedShard(s, events, true)
	// One cycle ingests ten events: window 0 complete, window 1 open with
	// two of its eight events. Both versions get a slot.
	s.splitCycle()
	first := s.tree.Root().WV
	next := s.tree.Root().Child().WV
	if first.ScheduledOn() < 0 || next.ScheduledOn() < 0 {
		t.Fatal("both versions must hold a slot")
	}
	for i := 0; i < 100 && !first.Finished(); i++ {
		s.slotStep(first.ScheduledOn())
	}
	s.msgBuf = s.fq.drain(s.msgBuf[:0])
	for i := range s.msgBuf {
		s.apply(&s.msgBuf[i])
	}
	// The next version's A opens a run; its group's creation message
	// waits in the feedback queue.
	s.slotStep(next.ScheduledOn())
	if len(next.RunCGs) != 1 || s.fq.empty() {
		t.Fatalf("want one open group with a queued creation message; groups %d, queue empty %v", len(next.RunCGs), s.fq.empty())
	}
	var cg *deptree.CG
	for _, g := range next.RunCGs {
		cg = g
	}
	// An earlier window finally consumed the A: the first root pops, and
	// the gate rejects its successor, which used it, and reprocesses it
	// before the splitter drains the creation message.
	s.ar.MarkConsumed(8)
	s.advanceRoots()
	if s.tree.Root().WV != next || next.Rollbacks == 0 {
		t.Fatal("the gate must have reprocessed the new root")
	}
	stop := time.Now().Add(10 * time.Second)
	for i := 0; !s.finished.Load(); i++ {
		if i > 100000 || time.Now().After(stop) {
			child := s.tree.Root().Child()
			t.Fatalf("root stalled: finished=%v, child is a group vertex=%v, reset group %v",
				s.tree.Root().WV.Finished(), child != nil && !child.IsWV(), cg.Outcome())
		}
		s.step()
	}
}
