package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

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

// TestShardQueueBackpressure checks that push blocks at capacity, resumes
// when the consumer drains, and is released by close.
func TestShardQueueBackpressure(t *testing.T) {
	ctx := context.Background()
	const cap = 64
	q := newShardQueue(cap)
	for i := 0; i < cap; i++ {
		if err := q.push(ctx, event.Event{Seq: uint64(i)}); err != nil {
			t.Fatalf("push before capacity must succeed, got %v", err)
		}
	}
	pushed := make(chan error, 1)
	go func() { pushed <- q.push(ctx, event.Event{Seq: cap}) }()
	select {
	case <-pushed:
		t.Fatal("push beyond capacity must block")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok, _ := q.next(); !ok {
		t.Fatal("pop from full queue must succeed")
	}
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatalf("unblocked push must succeed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("push must unblock after a pop")
	}

	// A blocked producer is released (with a drop) when the queue closes.
	blocked := make(chan error, 1)
	for {
		q.mu.Lock()
		full := len(q.buf)-q.head >= cap
		q.mu.Unlock()
		if full {
			break
		}
		if err := q.push(ctx, event.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	go func() { blocked <- q.push(ctx, event.Event{}) }()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case err := <-blocked:
		if err != ErrHandleClosed {
			t.Fatalf("push into a closed queue = %v, want ErrHandleClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close must release blocked producers")
	}
	if err := q.push(ctx, event.Event{}); err != ErrHandleClosed {
		t.Fatalf("push after close = %v, want ErrHandleClosed", err)
	}

	// Pending events still drain after close; then done is reported.
	drained := 0
	for {
		_, ok, done := q.next()
		if ok {
			drained++
			continue
		}
		if !done {
			t.Fatal("closed empty queue must report done")
		}
		break
	}
	if drained != cap {
		t.Fatalf("drained %d pending events, want %d", drained, cap)
	}
}

// TestShardQueueContextCancel checks that a producer blocked on a full
// queue is released with the context error — the "cancelled context
// unblocks Feed within one ingest cycle" contract.
func TestShardQueueContextCancel(t *testing.T) {
	q := newShardQueue(2)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		if err := q.push(ctx, event.Event{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- q.push(ctx, event.Event{Seq: 2}) }()
	select {
	case <-blocked:
		t.Fatal("push beyond capacity must block")
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-blocked:
		if err != context.Canceled {
			t.Fatalf("cancelled push = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancel must release the blocked producer")
	}
	// An already-cancelled context fails fast even with queue space.
	if _, ok, _ := q.next(); !ok {
		t.Fatal("pop must succeed")
	}
	if err := q.push(ctx, event.Event{}); err != context.Canceled {
		t.Fatalf("push with done ctx = %v, want context.Canceled", err)
	}
}

// TestShardQueueTryPushAndBatch covers the non-blocking and batched
// admission paths.
func TestShardQueueTryPushAndBatch(t *testing.T) {
	ctx := context.Background()
	q := newShardQueue(4)
	evs := []event.Event{{Seq: 0}, {Seq: 1}, {Seq: 2}}
	keep := func(*event.Event) bool { return true }
	if err := q.pushBatch(ctx, evs, keep); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.tryPush(event.Event{Seq: 3}); !ok {
		t.Fatal("tryPush below capacity must succeed")
	}
	if pending, ok := q.tryPush(event.Event{Seq: 4}); ok || pending != 4 {
		t.Fatalf("tryPush at capacity = (%d, %v), want (4, false)", pending, ok)
	}
	// A batch admits as one unit once there is head-of-queue space, even
	// if it overshoots the cap; admit sees every event in place and what
	// it rejects is not queued.
	if _, ok, _ := q.next(); !ok {
		t.Fatal("pop must succeed")
	}
	restamp := func(ev *event.Event) bool {
		ev.Seq += 10
		return ev.Seq != 11
	}
	if err := q.pushBatch(ctx, evs, restamp); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		ev, ok, _ := q.next()
		if !ok {
			break
		}
		got = append(got, ev.Seq)
	}
	if fmt.Sprint(got) != "[1 2 3 10 12]" {
		t.Fatalf("drained %v, want [1 2 3 10 12]", got)
	}
	q.discard()
	if _, ok := q.tryPush(event.Event{}); ok {
		t.Fatal("tryPush after discard must fail")
	}
	if _, ok, done := q.next(); ok || !done {
		t.Fatal("discarded queue must be empty and done")
	}
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
