package spectre_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	spectre "github.com/spectrecep/spectre"
)

// soakQuerySrc pairs every A with the next B in a short window: matches
// start arriving after the second event, so a blocking sink stalls the
// shard almost immediately — the deterministic way to drive the intake
// queue into overload without racing the consumer.
const soakQuerySrc = `
	QUERY soak
	PATTERN (A B)
	DEFINE A AS A.symbol = 'A', B AS B.symbol = 'B'
	WITHIN 8 EVENTS FROM A
	CONSUME ALL
`

// soakEvents builds n alternating A/B events with increasing timestamps.
func soakEvents(reg *spectre.Registry, n int) []spectre.Event {
	ta := reg.TypeID("A")
	tb := reg.TypeID("B")
	evs := make([]spectre.Event, n)
	for i := range evs {
		tp := ta
		if i%2 == 1 {
			tp = tb
		}
		evs[i] = spectre.Event{TS: int64(i) * int64(time.Millisecond), Type: tp}
	}
	return evs
}

// gateSink records match keys and blocks every OnMatch until the gate
// closes, stalling the shard loop so the unread tail fills on demand.
// entered (optional) is closed when the first OnMatch arrives, so tests
// can wait until the shard is provably stalled.
type gateSink struct {
	gate    <-chan struct{}
	entered chan struct{}
	once    sync.Once
	keys    []string
}

func (g *gateSink) OnMatch(ce spectre.ComplexEvent) {
	if g.entered != nil {
		g.once.Do(func() { close(g.entered) })
	}
	<-g.gate
	g.keys = append(g.keys, ce.Key())
}
func (g *gateSink) OnError(error) {}
func (g *gateSink) OnDrain()      {}

// releaseOnExit closes gate at test exit unless already closed, so a
// failed assert does not deadlock the deferred runtime shutdown behind a
// still-stalled sink.
func releaseOnExit(gate chan struct{}) func() {
	return func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}
}

// TestTryFeedOverloadKeepsSequentialOrder stalls a capacity-64 shard and
// hammers TryFeed past it: rejections must be structured OverloadErrors
// naming the query, shard and occupancy, no call may block, and the
// matches over the accepted events must be exactly a sequential run over
// that kept substream.
func TestTryFeedOverloadKeepsSequentialOrder(t *testing.T) {
	reg := spectre.NewRegistry()
	events := soakEvents(reg, 20_000)
	q, err := spectre.ParseQuery(soakQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	gate := make(chan struct{})
	defer releaseOnExit(gate)()
	sink := &gateSink{gate: gate}
	h, err := rt.Submit(context.Background(), q, sink, spectre.WithQueueCap(64))
	if err != nil {
		t.Fatal(err)
	}

	var kept []spectre.Event
	overloads := 0
	for _, ev := range events {
		err := h.TryFeed(ev)
		if err == nil {
			kept = append(kept, ev)
			continue
		}
		overloads++
		if !errors.Is(err, spectre.ErrOverloaded) {
			t.Fatalf("TryFeed rejection %v does not match ErrOverloaded", err)
		}
		var oe *spectre.OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("TryFeed rejection %v is not an *OverloadError", err)
		}
		if oe.Query != "soak" || oe.Shard != 0 || oe.Cap != 64 {
			t.Fatalf("OverloadError = %+v, want query soak, shard 0, cap 64", oe)
		}
		if oe.Pending <= 0 || oe.Pending > oe.Cap {
			t.Fatalf("OverloadError pending %d out of (0, %d]", oe.Pending, oe.Cap)
		}
	}
	if overloads == 0 {
		t.Fatal("stalled 64-slot queue never overloaded over 20k events; test is vacuous")
	}
	close(gate)
	h.Drain()

	if m := h.Metrics(); m.ShedEvents != 0 {
		t.Fatalf("ShedEvents = %d without WithShedding, want 0", m.ShedEvents)
	}

	qRef, err := spectre.ParseQuery(soakQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := spectre.RunSequential(qRef, kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.keys) != len(want) {
		t.Fatalf("runtime emitted %d matches over the kept substream, sequential %d", len(sink.keys), len(want))
	}
	for i := range want {
		if sink.keys[i] != want[i].Key() {
			t.Fatalf("match %d = %s, want %s (sequential order lost)", i, sink.keys[i], want[i].Key())
		}
	}
}

// TestTryFeedSheddingKeepsSequentialOrder is the shedding twin of
// TestTryFeedOverloadKeepsSequentialOrder: the query's intake filter is
// on (and drops nothing), the stalled shard sheds instead of rejecting,
// and the matches must still be exactly a sequential run over the kept
// events. A shed event spends no position, so windows never stretch over
// it and emitted positions are those of the kept substream.
func TestTryFeedSheddingKeepsSequentialOrder(t *testing.T) {
	reg := spectre.NewRegistry()
	events := soakEvents(reg, 20_000)
	q, err := spectre.ParseQuery(soakQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	gate := make(chan struct{})
	defer releaseOnExit(gate)()
	sink := &gateSink{gate: gate}
	h, err := rt.Submit(context.Background(), q, sink, spectre.WithShedding(), spectre.WithQueueCap(64))
	if err != nil {
		t.Fatal(err)
	}
	if info := h.Plan().Info(); !info.IntakeFilter {
		t.Fatalf("intake filter off (%s); the test needs it on", info.IntakeOffReason)
	}

	var kept []spectre.Event
	shed := uint64(0)
	for _, ev := range events {
		if err := h.TryFeed(ev); err != nil {
			t.Fatalf("TryFeed with shedding returned %v, want nil", err)
		}
		if now := h.Metrics().ShedEvents; now > shed {
			shed = now
			continue
		}
		kept = append(kept, ev)
	}
	close(gate)
	h.Drain()

	m := h.Metrics()
	if m.ShedEvents == 0 {
		t.Fatal("stalled 64-slot queue shed nothing over 20k events; test is vacuous")
	}
	if m.FilteredEvents != 0 || m.EventsIngested != uint64(len(kept)) {
		t.Fatalf("filtered %d, ingested %d; want 0 and the %d kept events", m.FilteredEvents, m.EventsIngested, len(kept))
	}

	qRef, err := spectre.ParseQuery(soakQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := spectre.RunSequential(qRef, kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.keys) != len(want) {
		t.Fatalf("runtime emitted %d matches over the kept substream, sequential %d", len(sink.keys), len(want))
	}
	for i := range want {
		if sink.keys[i] != want[i].Key() {
			t.Fatalf("match %d = %s, want %s (shed events spent positions)", i, sink.keys[i], want[i].Key())
		}
	}
}

// TestSheddingSurvivesOverload stalls the shard with shedding enabled:
// every producer call must return nil (shed, not rejected), the queue
// must stay bounded, and after release the shed/filtered/ingested
// counters must account for every event fed.
func TestSheddingSurvivesOverload(t *testing.T) {
	reg := spectre.NewRegistry()
	events := soakEvents(reg, 30_000)
	q, err := spectre.ParseQuery(soakQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	gate := make(chan struct{})
	defer releaseOnExit(gate)()
	sink := &gateSink{gate: gate}
	h, err := rt.Submit(context.Background(), q, sink,
		spectre.WithQueueCap(1024), spectre.WithShedding())
	if err != nil {
		t.Fatal(err)
	}

	// First half one at a time, second half in batches: both producer
	// paths must shed instead of rejecting or blocking.
	ctx := context.Background()
	for _, ev := range events[:len(events)/2] {
		if err := h.TryFeed(ev); err != nil {
			t.Fatalf("TryFeed with shedding returned %v, want nil", err)
		}
	}
	const chunk = 512
	for rest := events[len(events)/2:]; len(rest) > 0; {
		n := chunk
		if n > len(rest) {
			n = len(rest)
		}
		if err := h.FeedBatch(ctx, rest[:n]); err != nil {
			t.Fatalf("FeedBatch with shedding returned %v, want nil", err)
		}
		rest = rest[n:]
	}

	close(gate)
	h.Drain()

	m := h.Metrics()
	if m.ShedEvents == 0 {
		t.Fatal("stalled shard shed nothing over 30k events; shedding never engaged")
	}
	if total := m.EventsIngested + m.FilteredEvents + m.ShedEvents; total != uint64(len(events)) {
		t.Fatalf("ingested %d + filtered %d + shed %d = %d, want every one of the %d fed events accounted for",
			m.EventsIngested, m.FilteredEvents, m.ShedEvents, total, len(events))
	}
	if len(sink.keys) == 0 {
		t.Fatal("no matches at all: the kept prefix must still match")
	}
}

// TestFeedBatchDeadlineNotDeadlock fills a stalled no-shedding queue and
// checks that a blocking FeedBatch honors its context deadline instead of
// deadlocking, while the shedding variant never blocks at all.
func TestFeedBatchDeadlineNotDeadlock(t *testing.T) {
	reg := spectre.NewRegistry()
	events := soakEvents(reg, 4_096)
	q, err := spectre.ParseQuery(soakQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	gate := make(chan struct{})
	defer releaseOnExit(gate)()
	sink := &gateSink{gate: gate, entered: make(chan struct{})}
	h, err := rt.Submit(context.Background(), q, sink, spectre.WithQueueCap(128))
	if err != nil {
		t.Fatal(err)
	}

	// Provoke the first match and wait until the sink has the shard
	// stalled — only then is "queue full" a stable condition.
	for _, ev := range events[:8] {
		if err := h.Feed(context.Background(), ev); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-sink.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("shard never reached the sink")
	}

	// Fill the stalled queue to capacity.
	for i := 8; ; i++ {
		if i >= len(events) {
			t.Fatal("never hit capacity on a stalled 128-slot queue")
		}
		if err := h.TryFeed(events[i]); errors.Is(err, spectre.ErrOverloaded) {
			break
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = h.FeedBatch(ctx, events)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FeedBatch on a full queue returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("FeedBatch took %v to honor a 200ms deadline", elapsed)
	}
	if err := h.Feed(ctx, events[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Feed on a full queue returned %v, want DeadlineExceeded", err)
	}
	close(gate)
	h.Drain()

	// Shedding variant: same stall, but no producer call may block even
	// with an unbounded context.
	gate2 := make(chan struct{})
	defer releaseOnExit(gate2)()
	sink2 := &gateSink{gate: gate2}
	h2, err := rt.Submit(context.Background(), q, sink2,
		spectre.WithQueueCap(128), spectre.WithShedding())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			if err := h2.FeedBatch(context.Background(), events); err != nil {
				t.Errorf("FeedBatch with shedding returned %v, want nil", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("FeedBatch with shedding blocked on a stalled shard")
	}
	close(gate2)
	h2.Drain()
	if m := h2.Metrics(); m.ShedEvents == 0 {
		t.Fatal("stalled shedding shard recorded no shed events")
	}
}

// TestSheddingIdleIsByteIdentical keeps the unread tail below the low
// watermark: shedding enabled but never engaged must be invisible — the
// exact sequential match stream, zero ShedEvents, and live emission-lag
// gauges.
func TestSheddingIdleIsByteIdentical(t *testing.T) {
	reg := spectre.NewRegistry()
	events := soakEvents(reg, 10_000) // under the 12 288 low watermark
	q, err := spectre.ParseQuery(soakQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var keys []string
	h, err := rt.Submit(context.Background(), q,
		spectre.SinkFunc(func(ce spectre.ComplexEvent) { keys = append(keys, ce.Key()) }),
		spectre.WithShedding())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FeedBatch(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	h.Drain()

	m := h.Metrics()
	if m.ShedEvents != 0 {
		t.Fatalf("ShedEvents = %d below the low watermark, want 0", m.ShedEvents)
	}
	if m.EmitLagP50 <= 0 || m.EmitLagP99 <= 0 {
		t.Fatalf("emission-lag gauges p50=%g p99=%g, want both seeded and positive", m.EmitLagP50, m.EmitLagP99)
	}

	qRef, err := spectre.ParseQuery(soakQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := spectre.RunSequential(qRef, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("%d matches with idle shedding, sequential %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i].Key() {
			t.Fatalf("match %d = %s, want %s", i, keys[i], want[i].Key())
		}
	}
}
