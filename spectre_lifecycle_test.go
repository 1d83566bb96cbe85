// Lifecycle and cancellation coverage for the v2 streaming API: context
// cancellation mid-stream, double Close/Wait/Drain, Feed after Close,
// option validation and the sink protocol. Everything here runs under
// `go test -race` in CI.
package spectre_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	spectre "github.com/spectrecep/spectre"
)

// recorder is a Sink that records everything it hears.
type recorder struct {
	mu      sync.Mutex
	matches int
	errs    []error
	drains  int
}

func (r *recorder) OnMatch(spectre.ComplexEvent) {
	r.mu.Lock()
	r.matches++
	r.mu.Unlock()
}

func (r *recorder) OnError(err error) {
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}

func (r *recorder) OnDrain() {
	r.mu.Lock()
	r.drains++
	r.mu.Unlock()
}

func (r *recorder) snapshot() (int, []error, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.matches, append([]error(nil), r.errs...), r.drains
}

func simpleQuery(t testing.TB, reg *spectre.Registry) *spectre.Query {
	t.Helper()
	q, err := spectre.ParseQuery(`
		QUERY ab
		PATTERN (A B)
		WITHIN 10 EVENTS FROM A
		CONSUME ALL
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestEngineRunContextCancel is the acceptance check for run
// cancellation: an engine blocked on a quiet channel source must return
// ctx.Err() promptly after cancel — not wait for an event that never
// arrives — and report it to the sink as OnError, never OnDrain.
func TestEngineRunContextCancel(t *testing.T) {
	reg := spectre.NewRegistry()
	q := simpleQuery(t, reg)
	ta, _ := reg.LookupType("A")

	eng, err := spectre.NewEngine(q, spectre.WithInstances(2))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan spectre.Event)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &recorder{}
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx, spectre.FromChan(ch), rec) }()

	// The engine is live: it accepts events from the channel.
	for i := 0; i < 3; i++ {
		select {
		case ch <- spectre.Event{TS: int64(i), Type: ta}:
		case <-time.After(5 * time.Second):
			t.Fatal("engine did not ingest from the channel")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Run did not return")
	}
	_, errs, drains := rec.snapshot()
	if len(errs) != 1 || !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("sink errors = %v, want one context.Canceled", errs)
	}
	if drains != 0 {
		t.Fatalf("sink drains = %d, want 0 on a cancelled run", drains)
	}

	// An engine handed an already-done context refuses to start — without
	// consuming its single run.
	eng2, err := spectre.NewEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(ctx, spectre.FromSlice(nil), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with done ctx = %v, want context.Canceled", err)
	}
	if err := eng2.Run(context.Background(), spectre.FromSlice(nil), nil); err != nil {
		t.Fatalf("Run after an up-front rejection = %v, want nil (run not consumed)", err)
	}
}

// TestEngineRunSinkDrain checks the happy-path sink protocol: OnMatch
// then exactly one OnDrain, no OnError.
func TestEngineRunSinkDrain(t *testing.T) {
	reg := spectre.NewRegistry()
	q := simpleQuery(t, reg)
	ta, _ := reg.LookupType("A")
	tb, _ := reg.LookupType("B")
	eng, err := spectre.NewEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	events := []spectre.Event{{TS: 0, Type: ta}, {TS: 1, Type: tb}}
	if err := eng.Run(context.Background(), spectre.FromSlice(events), rec); err != nil {
		t.Fatal(err)
	}
	matches, errs, drains := rec.snapshot()
	if matches != 1 || len(errs) != 0 || drains != 1 {
		t.Fatalf("sink saw matches=%d errs=%v drains=%d, want 1/none/1", matches, errs, drains)
	}
	// Running twice is misuse, reported synchronously and not via OnError.
	if err := eng.Run(context.Background(), spectre.FromSlice(events), rec); !errors.Is(err, spectre.ErrAlreadyRan) {
		t.Fatalf("second Run = %v, want ErrAlreadyRan", err)
	}
	if _, errs, _ := rec.snapshot(); len(errs) != 0 {
		t.Fatalf("ErrAlreadyRan leaked into OnError: %v", errs)
	}
}

// TestSubmitContextCancelAborts checks the submission-lifetime contract:
// cancelling the Submit context aborts the handle, the sink hears
// OnError(ctx.Err()) and then OnDrain, and further feeding fails.
func TestSubmitContextCancelAborts(t *testing.T) {
	reg := spectre.NewRegistry()
	q := simpleQuery(t, reg)
	ta, _ := reg.LookupType("A")

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rec := &recorder{}
	h, err := rt.Submit(ctx, q, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := h.Feed(context.Background(), spectre.Event{TS: int64(i), Type: ta}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	// The cancellation alone must drive the full sink protocol — OnError
	// then OnDrain — without the producer ever calling Wait.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, drains := rec.snapshot(); drains == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aborted handle never reported OnDrain")
		}
		time.Sleep(time.Millisecond)
	}
	_, errs, drains := rec.snapshot()
	if len(errs) != 1 || !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("sink errors = %v, want one context.Canceled", errs)
	}
	if drains != 1 {
		t.Fatalf("sink drains = %d, want 1", drains)
	}
	h.Wait() // idempotent alongside the watcher-driven drain
	if err := h.Feed(context.Background(), spectre.Event{Type: ta}); !errors.Is(err, spectre.ErrHandleClosed) {
		t.Fatalf("Feed after abort = %v, want ErrHandleClosed", err)
	}

	// Submitting on an already-cancelled context fails fast.
	if _, err := rt.Submit(ctx, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with done ctx = %v, want context.Canceled", err)
	}
}

// TestSubmitContextCancelAfterDrain pins OnDrain as the terminal sink
// call: a submission context cancelled after the query drained must not
// deliver a late OnError.
func TestSubmitContextCancelAfterDrain(t *testing.T) {
	reg := spectre.NewRegistry()
	q := simpleQuery(t, reg)
	ta, _ := reg.LookupType("A")

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &recorder{}
	h, err := rt.Submit(ctx, q, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Feed(context.Background(), spectre.Event{Type: ta}); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	cancel()
	time.Sleep(50 * time.Millisecond) // give a buggy watcher time to misfire
	_, errs, drains := rec.snapshot()
	if drains != 1 {
		t.Fatalf("sink drains = %d, want 1", drains)
	}
	if len(errs) != 0 {
		t.Fatalf("cancel after drain leaked into OnError: %v", errs)
	}
}

// TestRuntimeRunContextCancel checks that Runtime.Run blocked on a quiet
// channel source returns promptly on cancellation, draining what the
// handles admitted.
func TestRuntimeRunContextCancel(t *testing.T) {
	reg := spectre.NewRegistry()
	q := simpleQuery(t, reg)
	ta, _ := reg.LookupType("A")

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Submit(context.Background(), q, nil); err != nil {
		t.Fatal(err)
	}
	ch := make(chan spectre.Event)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx, spectre.FromChan(ch)) }()
	select {
	case ch <- spectre.Event{Type: ta}:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not consume from the channel")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Runtime.Run did not return from a quiet source")
	}
}

// TestHandleLifecycleRaces hammers the close/wait/drain surface from many
// goroutines while a producer feeds — the double-Close/Wait/Drain and
// Feed-after-Close contract under the race detector.
func TestHandleLifecycleRaces(t *testing.T) {
	reg := spectre.NewRegistry()
	q := simpleQuery(t, reg)
	ta, _ := reg.LookupType("A")
	tb, _ := reg.LookupType("B")

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rec := &recorder{}
	h, err := rt.Submit(context.Background(), q, rec)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	// One producer (Feed is single-producer by contract); it stops at the
	// first ErrHandleClosed. Bounded so a slow race-detector run still
	// drains quickly after the concurrent Close.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			typ := ta
			if i%2 == 1 {
				typ = tb
			}
			if err := h.Feed(ctx, spectre.Event{TS: int64(i), Type: typ}); err != nil {
				if !errors.Is(err, spectre.ErrHandleClosed) {
					t.Errorf("Feed = %v, want nil or ErrHandleClosed", err)
				}
				return
			}
		}
	}()
	// Many closers and waiters racing each other.
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			h.Close()
			h.Wait()
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			h.Drain()
		}()
	}
	wg.Wait()

	if err := h.Feed(ctx, spectre.Event{Type: ta}); !errors.Is(err, spectre.ErrHandleClosed) {
		t.Fatalf("Feed after Close = %v, want ErrHandleClosed", err)
	}
	if _, _, drains := rec.snapshot(); drains != 1 {
		t.Fatalf("sink drains = %d, want exactly 1 across concurrent waiters", drains)
	}
}

// TestRuntimeShutdownDeadline checks the two Shutdown modes: a missed
// deadline aborts pending queries and reports the context error; the
// runtime is unusable either way.
func TestRuntimeShutdownDeadline(t *testing.T) {
	reg := spectre.NewRegistry()
	q := simpleQuery(t, reg)
	ta, _ := reg.LookupType("A")

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	h, err := rt.Submit(context.Background(), q, rec)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]spectre.Event, 10000)
	for i := range evs {
		evs[i] = spectre.Event{TS: int64(i), Type: ta}
	}
	if err := h.FeedBatch(context.Background(), evs); err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- rt.Shutdown(cancelled) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Shutdown past deadline = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown with a done context did not abort")
	}
	if _, _, drains := rec.snapshot(); drains != 1 {
		t.Fatalf("sink drains = %d, want 1 after abort", drains)
	}
	if _, err := rt.Submit(context.Background(), q, nil); !errors.Is(err, spectre.ErrRuntimeClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrRuntimeClosed", err)
	}
}

// TestFeedBatchMatchesFeed checks ingestion-path equivalence: the same
// partitioned stream produces the same match multiset whether fed per
// event or in batches.
func TestFeedBatchMatchesFeed(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{
		Symbols: 12, Leaders: 3, Minutes: 60, Seed: 9,
	})
	src := `
		QUERY rise
		PATTERN (X Y)
		DEFINE X AS X.close > X.open, Y AS Y.close > X.close
		WITHIN 20 EVENTS FROM X
		CONSUME ALL
		PARTITION BY TYPE SHARDS 4
	`
	ctx := context.Background()
	run := func(batch int) map[string]int {
		t.Helper()
		q, err := spectre.ParseQuery(src, reg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		got := make(map[string]int)
		h, err := rt.Submit(ctx, q, spectre.SinkFunc(func(ce spectre.ComplexEvent) { got[ce.Key()]++ }))
		if err != nil {
			t.Fatal(err)
		}
		if batch <= 0 {
			for i := range events {
				if err := h.Feed(ctx, events[i]); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for lo := 0; lo < len(events); lo += batch {
				hi := min(lo+batch, len(events))
				if err := h.FeedBatch(ctx, events[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
		}
		h.Drain()
		return got
	}
	want := run(0)
	if len(want) == 0 {
		t.Fatal("per-event reference produced no matches; test is vacuous")
	}
	for _, batch := range []int{1, 7, 256, len(events) + 1} {
		assertSameMultiset(t, "feedbatch", run(batch), want)
	}
}

// TestOptionValidation checks that bad option inputs surface as
// constructor/Submit errors instead of silently falling back to defaults.
func TestOptionValidation(t *testing.T) {
	reg := spectre.NewRegistry()
	q := simpleQuery(t, reg)

	engineCases := []struct {
		name string
		opt  spectre.Option
	}{
		{"WithInstances(0)", spectre.WithInstances(0)},
		{"WithInstances(-3)", spectre.WithInstances(-3)},
		{"WithInstances(1<<30)", spectre.WithInstances(1 << 30)},
		{"WithShards(0)", spectre.WithShards(0)},
		{"WithShards(-2)", spectre.WithShards(-2)},
		{"WithQueueCap(0)", spectre.WithQueueCap(0)},
		{"WithRegistry(nil)", spectre.WithRegistry(nil)},
	}
	for _, tc := range engineCases {
		if _, err := spectre.NewEngine(q, tc.opt); err == nil {
			t.Errorf("NewEngine with %s: no error", tc.name)
		} else {
			var qe *spectre.QueryError
			if !errors.As(err, &qe) {
				t.Errorf("NewEngine with %s: error %v is not a *QueryError", tc.name, err)
			}
			if !strings.Contains(err.Error(), strings.Split(tc.name, "(")[0]) {
				t.Errorf("NewEngine with %s: error %q does not name the option", tc.name, err)
			}
		}
	}

	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, tc := range engineCases {
		if _, err := rt.Submit(context.Background(), q, nil, tc.opt); err == nil {
			t.Errorf("Submit with %s: no error", tc.name)
		}
	}

	for _, n := range []int{0, -1, 1 << 30} {
		if _, err := spectre.NewRuntime(reg, spectre.WithWorkers(n)); err == nil {
			t.Errorf("NewRuntime with WithWorkers(%d): no error", n)
		}
	}

	// Valid values still work (no false positives from validation).
	if _, err := spectre.NewEngine(q, spectre.WithInstances(2), spectre.WithQueueCap(64)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestOverloadErrorTaxonomy pins the error contract: *OverloadError
// matches ErrOverloaded, QueryError unwraps, and sentinels survive
// wrapping.
func TestOverloadErrorTaxonomy(t *testing.T) {
	var oe error = &spectre.OverloadError{Shard: 3, Pending: 10, Cap: 10}
	if !errors.Is(oe, spectre.ErrOverloaded) {
		t.Fatal("OverloadError must match ErrOverloaded")
	}
	if !strings.Contains(oe.Error(), "shard 3") {
		t.Fatalf("OverloadError message %q does not name the shard", oe.Error())
	}
	named := &spectre.OverloadError{Query: "rise", Shard: 1, Pending: 8, Cap: 8}
	if msg := named.Error(); !strings.Contains(msg, `"rise"`) || !strings.Contains(msg, "8/8") {
		t.Fatalf("OverloadError message %q does not carry the query name and occupancy", msg)
	}
	if !errors.Is(named, spectre.ErrOverloaded) {
		t.Fatal("named OverloadError must still match ErrOverloaded")
	}
	qe := &spectre.QueryError{Query: "q", Err: spectre.ErrRuntimeClosed}
	if !errors.Is(qe, spectre.ErrRuntimeClosed) {
		t.Fatal("QueryError must unwrap to its cause")
	}
}
