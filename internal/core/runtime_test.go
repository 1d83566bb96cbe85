package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
)

func testQuery(t *testing.T, reg *event.Registry) *pattern.Query {
	t.Helper()
	ta, tb := reg.TypeID("A"), reg.TypeID("B")
	p := pattern.Seq("q",
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}},
	)
	p.ConsumeAll()
	return &pattern.Query{
		Name:    "q",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartOnMatch, StartTypes: []event.Type{ta},
			EndKind: pattern.EndCount, Count: 8,
		},
	}
}

// TestRuntimeForgetsDrainedHandles guards the long-lived server case: a
// drained handle must leave the runtime's bookkeeping so its arenas can
// be collected.
func TestRuntimeForgetsDrainedHandles(t *testing.T) {
	reg := event.NewRegistry()
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()

	for i := 0; i < 3; i++ {
		h, err := rt.Submit(testQuery(t, reg), Config{Instances: 1}, nil, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Feed(context.Background(), event.Event{TS: 1, Type: 1}); err != nil {
			t.Fatal(err)
		}
		h.Drain()
	}
	rt.mu.Lock()
	n := len(rt.handles)
	rt.mu.Unlock()
	if n != 0 {
		t.Fatalf("runtime retains %d drained handles, want 0", n)
	}
}

// idleRuntime is a runtime whose pool has no workers: nothing drives its
// shards but the test, which plays the splitter by hand.
func idleRuntime(store durable.Store) *Runtime {
	p := &Pool{}
	p.parked.L = &p.mu
	p.shards.Store(&[]*shardState{})
	return &Runtime{pool: p, durable: store}
}

// feedShard admits events to a hand-driven shard as Handle.admit does —
// each stamped with its position and appended to the arena, the unread
// tail's bound aside — and closes the intake (end of stream) when end
// is set.
func feedShard(s *shardState, events []event.Event, end bool) {
	for _, ev := range events {
		s.ar.Append(ev)
		s.appended++
	}
	if end {
		s.closeIntake()
	}
}

// idleHandle submits testQuery with the given unread-tail bound on an
// idle runtime. Its events of type B open no window, so one ingest reads
// the whole tail.
func idleHandle(t *testing.T, capacity int) (*Handle, *shardState, event.Event) {
	t.Helper()
	h, s, ev, _ := idleHandleCfg(t, Config{Instances: 1, QueueCap: capacity})
	return h, s, ev
}

// idleHandleCfg is idleHandle with a whole Config; it also returns an
// event of type C, which the query's intake filter drops.
func idleHandleCfg(t *testing.T, cfg Config) (*Handle, *shardState, event.Event, event.Event) {
	t.Helper()
	reg := event.NewRegistry()
	h, err := idleRuntime(nil).Submit(testQuery(t, reg), cfg, nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, h.shards[0], event.Event{Type: reg.TypeID("B")}, event.Event{Type: reg.TypeID("C")}
}

// feedAsync runs Feed on another goroutine and reports its result.
func feedAsync(ctx context.Context, h *Handle, ev event.Event) chan error {
	done := make(chan error, 1)
	go func() { done <- h.Feed(ctx, ev) }()
	return done
}

// TestHandleFeedBackpressure: Feed blocks once the unread tail holds
// QueueCap events and resumes once the splitter ingests; Close
// releases a blocked Feed with ErrHandleClosed, and what was admitted
// before still drains.
func TestHandleFeedBackpressure(t *testing.T) {
	ctx := context.Background()
	const capacity = 64
	h, s, ev := idleHandle(t, capacity)
	admitted := uint64(0)
	for i := 0; i < capacity; i++ {
		if err := h.Feed(ctx, ev); err != nil {
			t.Fatalf("Feed below capacity must succeed, got %v", err)
		}
		admitted++
	}
	fed := feedAsync(ctx, h, ev)
	select {
	case <-fed:
		t.Fatal("Feed beyond capacity must block")
	case <-time.After(20 * time.Millisecond):
	}
	s.splitCycle()
	select {
	case err := <-fed:
		if err != nil {
			t.Fatalf("unblocked Feed must succeed, got %v", err)
		}
		admitted++
	case <-time.After(time.Second):
		t.Fatal("Feed must unblock once the splitter ingests")
	}

	// Fill the tail again; Close releases the blocked producer.
	for s.unread() < capacity {
		if err := h.Feed(ctx, ev); err != nil {
			t.Fatal(err)
		}
		admitted++
	}
	blocked := feedAsync(ctx, h, ev)
	time.Sleep(10 * time.Millisecond)
	h.Close()
	select {
	case err := <-blocked:
		if err != ErrHandleClosed {
			t.Fatalf("Feed into a closed handle = %v, want ErrHandleClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close must release a blocked Feed")
	}
	if err := h.Feed(ctx, ev); err != ErrHandleClosed {
		t.Fatalf("Feed after Close = %v, want ErrHandleClosed", err)
	}
	for i := 0; !s.finished.Load(); i++ {
		if i > 1000 {
			t.Fatal("the closed shard did not drain")
		}
		s.step()
	}
	if got := h.Metrics().EventsIngested; got != admitted {
		t.Fatalf("drained %d events, want the %d admitted", got, admitted)
	}
}

// TestHandleFeedContextCancel: a cancelled context releases a Feed
// blocked on a full tail with the context's error, and a context that is
// already done fails fast even with room.
func TestHandleFeedContextCancel(t *testing.T) {
	h, s, ev := idleHandle(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		if err := h.Feed(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	blocked := feedAsync(ctx, h, ev)
	select {
	case <-blocked:
		t.Fatal("Feed beyond capacity must block")
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-blocked:
		if err != context.Canceled {
			t.Fatalf("cancelled Feed = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancel must release the blocked Feed")
	}
	s.splitCycle()
	if s.unread() != 0 {
		t.Fatalf("unread tail %d after an ingest, want 0", s.unread())
	}
	if err := h.Feed(ctx, ev); err != context.Canceled {
		t.Fatalf("Feed with a done ctx = %v, want context.Canceled", err)
	}
	if err := h.FeedBatch(ctx, []event.Event{ev}); err != context.Canceled {
		t.Fatalf("FeedBatch with a done ctx = %v, want context.Canceled", err)
	}
	if n := s.ar.Len(); n != 2 {
		t.Fatalf("arena holds %d positions, want the 2 admitted", n)
	}
}

// TestHandleTryFeedOverload: TryFeed admits up to QueueCap unread
// events and then rejects with an *OverloadError whose Pending equals
// the cap; an ingest makes room again, and an aborted handle refuses.
func TestHandleTryFeedOverload(t *testing.T) {
	const capacity = 4
	h, s, ev := idleHandle(t, capacity)
	if err := h.FeedBatch(context.Background(), []event.Event{ev, ev, ev}); err != nil {
		t.Fatal(err)
	}
	if err := h.TryFeed(ev); err != nil {
		t.Fatalf("TryFeed below capacity = %v", err)
	}
	err := h.TryFeed(ev)
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) || oe.Pending != capacity || oe.Cap != capacity {
		t.Fatalf("TryFeed at capacity = %v, want an *OverloadError with Pending == Cap == %d", err, capacity)
	}
	s.splitCycle()
	if err := h.TryFeed(ev); err != nil {
		t.Fatalf("TryFeed after an ingest = %v", err)
	}
	if n := s.ar.Len(); n != capacity+1 {
		t.Fatalf("arena holds %d positions, want %d: a rejected event spends none", n, capacity+1)
	}
	h.Abort()
	if err := h.TryFeed(ev); err != ErrHandleClosed {
		t.Fatalf("TryFeed after Abort = %v, want ErrHandleClosed", err)
	}
}

// TestHandleUnreadCountsKeptEvents: the unread tail counts kept events,
// not the positions the intake filter spent between them. A selective
// query whose few kept events sit behind long filtered runs is not
// overloaded: TryFeed admits up to QueueCap kept events and the shedder,
// whose low watermark is half the cap, drops nothing below it.
func TestHandleUnreadCountsKeptEvents(t *testing.T) {
	const capacity = 8
	for _, shedding := range []bool{false, true} {
		h, s, kept, dropped := idleHandleCfg(t, Config{Instances: 1, QueueCap: capacity, Shed: shedding})
		want := capacity
		if shedding {
			want = capacity / 2
		}
		for i := 0; i < want; i++ {
			for j := 0; j < 4*capacity; j++ {
				if err := h.TryFeed(dropped); err != nil {
					t.Fatalf("shedding %v: TryFeed of a filtered event = %v", shedding, err)
				}
			}
			if err := h.TryFeed(kept); err != nil {
				t.Fatalf("shedding %v: TryFeed of kept event %d behind %d filtered positions = %v", shedding, i, s.ar.Len()-1, err)
			}
		}
		m := h.Metrics()
		if m.ShedEvents != 0 || m.FilteredEvents != uint64(want*4*capacity) || s.unread() != uint64(want) {
			t.Fatalf("shedding %v: shed %d, filtered %d, unread %d; want 0, %d, %d",
				shedding, m.ShedEvents, m.FilteredEvents, s.unread(), want*4*capacity, want)
		}
		if !shedding {
			var oe *OverloadError
			if err := h.TryFeed(kept); !errors.As(err, &oe) || oe.Pending != capacity {
				t.Fatalf("TryFeed at capacity = %v, want an *OverloadError with Pending %d", err, capacity)
			}
		}
		h.Abort()
	}
}

// TestRecoveringSubmitAppendsSuffix: once a recovering Submit returns,
// the shard's arena already holds the journal suffix — the events the
// splitter replays ahead of live input — with nothing driving it.
func TestRecoveringSubmitAppendsSuffix(t *testing.T) {
	reg, q, events := recoveryFixture(t)
	cfg := Config{Instances: 2, Reg: reg}
	store := durable.NewMemStore()
	// The first life ingests half the stream — so its journal holds it —
	// and parks with windows in flight.
	first := NewRuntime(RuntimeConfig{Workers: 2, Durable: store})
	h, err := first.Submit(q, cfg, nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	half := events[:len(events)/2]
	if err := h.FeedBatch(context.Background(), half); err != nil {
		t.Fatal(err)
	}
	for m := h.Metrics(); m.EventsIngested+m.FilteredEvents < uint64(len(half)); m = h.Metrics() {
		time.Sleep(time.Millisecond)
	}
	if err := first.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	log, err := store.OpenShard(q.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := log.Load(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.Events) == 0 {
		t.Fatal("the parked run left no journal suffix; the test is vacuous")
	}

	rt := idleRuntime(store)
	h, err = rt.Submit(q, cfg, nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := h.shards[0]
	for _, want := range st.Events {
		got, ok := s.ar.Lookup(want.Seq)
		if !ok || got.TS != want.TS || got.Type != want.Type {
			t.Fatalf("position %d after Submit = %+v (present %v), want the journal's %+v", want.Seq, got, ok, want)
		}
	}
	if last := st.Events[len(st.Events)-1].Seq; s.ar.Len() != last+1 {
		t.Fatalf("arena length %d after Submit, want %d", s.ar.Len(), last+1)
	}
	h.Abort()
	s.step()
	rt.pool.Close()
}

// TestSubmitShutdownRace guards the Submit/Shutdown serialization: a
// Submit racing a concurrent Shutdown either lands fully (its handle is
// part of the drain) or is refused with ErrShuttingDown — never a third
// state where the handle exists but the shutdown already passed it by,
// leaving it orphaned past the drain. Run with -race.
func TestSubmitShutdownRace(t *testing.T) {
	for round := 0; round < 30; round++ {
		reg := event.NewRegistry()
		rt := NewRuntime(RuntimeConfig{Workers: 2})

		const submitters = 4
		type result struct {
			h   *Handle
			err error
		}
		results := make(chan result, submitters)
		start := make(chan struct{})
		for i := 0; i < submitters; i++ {
			go func() {
				<-start
				h, err := rt.Submit(testQuery(t, reg), Config{Instances: 1}, nil, 1, nil, nil)
				results <- result{h, err}
			}()
		}
		done := make(chan error, 1)
		go func() {
			<-start
			done <- rt.Shutdown(context.Background())
		}()
		close(start)

		if err := <-done; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		for i := 0; i < submitters; i++ {
			r := <-results
			switch {
			case r.err == nil:
				// Admitted before the close: the shutdown must have
				// drained it — Wait returns immediately, no hang.
				r.h.Wait()
			case errors.Is(r.err, ErrRuntimeClosed):
				// Refused: nothing to clean up.
			default:
				t.Fatalf("Submit = %v, want nil or ErrShuttingDown", r.err)
			}
		}
	}
}

// TestSubmitAfterShutdownRefused: the non-racy half of the contract.
func TestSubmitAfterShutdownRefused(t *testing.T) {
	reg := event.NewRegistry()
	rt := NewRuntime(RuntimeConfig{Workers: 1})
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Submit(testQuery(t, reg), Config{Instances: 1}, nil, 1, nil, nil)
	if !errors.Is(err, ErrShuttingDown) || !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrShuttingDown (matching ErrRuntimeClosed)", err)
	}
}
