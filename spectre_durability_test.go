package spectre_test

import (
	"context"
	"testing"
	"time"

	spectre "github.com/spectrecep/spectre"
)

// durableQuerySrc is a named, single-shard query: durability keys the
// WAL by query name, and a single shard gives the resume position a
// direct meaning as a stream offset.
const durableQuerySrc = `
	QUERY rise
	PATTERN (X Y)
	DEFINE X AS X.close > X.open, Y AS Y.close > X.close
	WITHIN 40 EVENTS FROM X
	CONSUME ALL
`

// TestDurableRestartRoundTrip is the public-API crash-recovery walk: a
// durable runtime ingests a prefix, parks (spectre-server does this when
// a connection breaks), a second runtime against the same state
// directory recovers, resumes from Handle.Recovered and finishes the
// stream — and the concatenated output is byte-identical to an
// uninterrupted sequential run. It parks straight after the
// asynchronous FeedBatch, so whatever is still queued is discarded and
// must be re-fed, and once everything fed has been ingested, so the
// second life must have a journal to replay. The private-registry run
// repeats the second walk the way spectre-server submits: each life
// parses its query into a registry of its own, pinned with WithRegistry,
// while the runtime's registry stays empty.
func TestDurableRestartRoundTrip(t *testing.T) {
	t.Run("park at once", func(t *testing.T) { durableRestartRoundTrip(t, false, false) })
	t.Run("park once ingested", func(t *testing.T) { durableRestartRoundTrip(t, true, false) })
	t.Run("private registry", func(t *testing.T) { durableRestartRoundTrip(t, true, true) })
}

func durableRestartRoundTrip(t *testing.T, ingestBeforePark, private bool) {
	dir := t.TempDir()
	ctx := context.Background()
	nyse := spectre.NYSEConfig{Symbols: 16, Leaders: 3, Minutes: 60, Seed: 11}
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, nyse)
	rtReg := reg
	if private {
		rtReg = spectre.NewRegistry()
	}
	// life returns one life's query, the stream it is fed and its submit
	// options. A private second life interns the payload fields in the
	// opposite order, as a reconnecting client's stream may: only the WAL
	// name tables of the WithRegistry registry map its journal back.
	life := func(second bool) (*spectre.Query, []spectre.Event, []spectre.Option) {
		lreg, evs := reg, events
		var opts []spectre.Option
		if private {
			lreg = spectre.NewRegistry()
			if second {
				lreg.FieldIndex("close")
			}
			evs = spectre.GenerateNYSE(lreg, nyse)
			opts = append(opts, spectre.WithRegistry(lreg))
		}
		q, err := spectre.ParseQuery(durableQuerySrc, lreg)
		if err != nil {
			t.Fatal(err)
		}
		return q, evs, opts
	}

	qRef, err := spectre.ParseQuery(durableQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := spectre.RunSequential(qRef, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no matches; test is vacuous")
	}
	var want []string
	for i := range ref {
		want = append(want, ref[i].Key())
	}

	var got []string
	sink := spectre.SinkFunc(func(ce spectre.ComplexEvent) { got = append(got, ce.Key()) })

	// Life 1: ingest roughly half, then park — the restart-survivable
	// detach. In-flight windows stay in the WAL.
	q1, events1, opts1 := life(false)
	rt1, err := spectre.NewRuntime(rtReg, spectre.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := rt1.Submit(ctx, q1, sink, opts1...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt1.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if pos := h1.Recovered(); len(pos) != 1 || pos[0] != 0 {
		t.Fatalf("fresh durable query Recovered() = %v, want [0]", pos)
	}
	if err := h1.FeedBatch(ctx, events1[:len(events)/2]); err != nil {
		t.Fatal(err)
	}
	if ingestBeforePark {
		deadline := time.Now().Add(30 * time.Second)
		for m := h1.Metrics(); m.EventsIngested+m.FilteredEvents < uint64(len(events)/2); m = h1.Metrics() {
			if time.Now().After(deadline) {
				t.Fatalf("ingestion stalled before park: %d ingested + %d filtered of %d fed",
					m.EventsIngested, m.FilteredEvents, len(events)/2)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	h1.Park()
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: a fresh runtime over the same directory recovers, tells us
	// where to resume, and finishes the stream.
	q2, events2, opts2 := life(true)
	rt2, err := spectre.NewRuntime(rtReg, spectre.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := rt2.Submit(ctx, q2, sink, opts2...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	pos := h2.Recovered()
	if len(pos) != 1 {
		t.Fatalf("Recovered() = %v, want one shard", pos)
	}
	if pos[0] > uint64(len(events)/2) {
		t.Fatalf("resume position %d beyond the %d events ever fed", pos[0], len(events)/2)
	}
	if ingestBeforePark && pos[0] == 0 {
		t.Fatal("recovery replayed nothing: resume position 0 after a fully ingested first life")
	}
	if err := h2.FeedBatch(ctx, events2[pos[0]:]); err != nil {
		t.Fatal(err)
	}
	h2.Drain()
	if err := rt2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("restart run delivered %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d = %s, want %s (restart must be invisible)", i, got[i], want[i])
		}
	}
}

// TestDurabilityOptionValidation: empty directories and non-durable
// handles are rejected/inert, not silently wrong.
func TestDurabilityOptionValidation(t *testing.T) {
	reg := spectre.NewRegistry()
	if _, err := spectre.NewRuntime(reg, spectre.WithDurability("")); err == nil {
		t.Fatal("WithDurability(\"\") must fail")
	}

	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	q, err := spectre.ParseQuery(durableQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Submit(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pos := h.Recovered(); pos != nil {
		t.Fatalf("non-durable Recovered() = %v, want nil", pos)
	}
	h.Park() // degrades to Drain on a non-durable handle
}
