//go:build faultinject

package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/faultinject"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/queries"
)

// qeFixture builds the paper's introductory QE query (duration windows,
// selected-B consumption) over a synthetic A/B stream.
func qeFixture(t *testing.T) (*event.Registry, *pattern.Query, []event.Event) {
	t.Helper()
	reg := event.NewRegistry()
	q, err := queries.QE(reg, queries.QEConsumeSelectedB)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := reg.LookupType("A")
	tb, _ := reg.LookupType("B")
	events := make([]event.Event, 0, 600)
	for i := 0; i < 600; i++ {
		typ := tb
		if i%5 == 0 || i%7 == 0 {
			typ = ta
		}
		events = append(events, event.Event{TS: int64(i) * int64(2*time.Second), Type: typ})
	}
	return reg, q, events
}

// qeSparseFixture is QE over 20 000 events with an A every 5 000, so
// the WAL's cuts between windows are grid cuts and a kill at a cut or a
// sync lands between two of them.
func qeSparseFixture(t *testing.T) (*event.Registry, *pattern.Query, []event.Event) {
	t.Helper()
	reg := event.NewRegistry()
	q, events, err := qe(reg, 20_000, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	return reg, q, events
}

// runCrashLife is one simulated process lifetime under the fault
// harness: submit, recover, feed until done or killed, then shut down.
// It reports whether the stream completed (end of stream drained with
// the process still alive).
func runCrashLife(t *testing.T, store durable.Store, reg *event.Registry, q *pattern.Query,
	cfg Config, events []event.Event, stopAfter int, sink func(event.Complex)) bool {
	t.Helper()
	ctx := context.Background()
	rt := NewRuntime(RuntimeConfig{Workers: 2, Durable: store})
	cfg.Reg = reg
	h, err := rt.Submit(q, cfg, nil, 1, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := int(h.Recovered()[0])
	end := len(events)
	final := stopAfter < 0 || stopAfter >= end
	if !final {
		end = stopAfter
	}
	for i := pos; i < end && !faultinject.Killed(); i += 32 {
		j := i + 32
		if j > end {
			j = end
		}
		if err := h.FeedBatch(ctx, events[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if !final {
		// Ingestion is asynchronous and a mid-stream shutdown parks the
		// shard, dropping its unread tail. Wait until the fed prefix was
		// actually ingested (or the kill fired) so intermediate lives
		// make real progress.
		for !faultinject.Killed() && int(h.shards[0].ingested.Load()) < end {
			time.Sleep(100 * time.Microsecond)
		}
	}
	completed := false
	if final && !faultinject.Killed() {
		h.Drain()
		// The kill can also land during the end-of-stream drain; then
		// this life died like any other and the next one finishes.
		completed = !faultinject.Killed()
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	return completed
}

// crashCycle drives one full kill-and-recover scenario: an unarmed
// partial life first (so recovered state exists and the recovery-path
// crash points are reachable), then lives with the crash armed until it
// fires, then recovery lives until the stream completes. Returns every
// match delivered across all lives, in order; exactly-once means the
// result must be byte-identical to an uninterrupted run.
func crashCycle(t *testing.T, reg *event.Registry, q *pattern.Query, cfg Config,
	events []event.Event, point string, hitN int) []string {
	t.Helper()
	defer faultinject.Reset()
	ms := durable.NewMemStore()
	store := faultinject.Guard(ms)
	var delivered []string
	sink := func(ce event.Complex) { delivered = append(delivered, ce.Key()) }

	faultinject.Reset()
	runCrashLife(t, store, reg, q, cfg, events, len(events)/2, sink)

	armed := true
	for life := 0; life < 50; life++ {
		if armed {
			faultinject.Arm(point, hitN)
		} else {
			faultinject.Reset()
		}
		completed := runCrashLife(t, store, reg, q, cfg, events, -1, sink)
		if faultinject.Killed() {
			// Process death: everything unsynced is gone, stale handles
			// are inert, and the next life recovers from the WAL.
			armed = false
			ms.Crash()
			continue
		}
		if completed {
			return delivered
		}
	}
	t.Fatalf("crash point %s (hit %d): did not converge in 50 lives", point, hitN)
	return nil
}

// TestCrashPointCatalog asserts every named crash point in the catalog
// actually fires on a representative durable run with a restart — a
// renamed or unplugged Hit call site fails here, not silently.
func TestCrashPointCatalog(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	reg, q, events := recoveryFixture(t)
	cfg := Config{Instances: 2}
	store := durable.NewMemStore()
	var sink = func(event.Complex) {}
	runCrashLife(t, store, reg, q, cfg, events, len(events)/2, sink)
	runCrashLife(t, store, reg, q, cfg, events, -1, sink)
	for _, point := range faultinject.Catalog {
		if faultinject.Hits(point) == 0 {
			t.Errorf("crash point %q never fired", point)
		}
	}
}

// TestCrashRecoveryEquivalence is the exhaustive matrix: every crash
// point x {Q1, QE, QE with windows 5 000 events apart}. Each cell
// kills the process at the armed point, recovers from the WAL, and
// asserts the concatenated delivered stream is byte-identical to the
// uninterrupted run — exactly-once, no loss, no duplicates.
func TestCrashRecoveryEquivalence(t *testing.T) {
	fixtures := []struct {
		name string
		fix  func(*testing.T) (*event.Registry, *pattern.Query, []event.Event)
	}{
		{"Q1", recoveryFixture},
		{"QE", qeFixture},
		{"QE-sparse", qeSparseFixture},
	}
	for _, f := range fixtures {
		reg, q, events := f.fix(t)
		cfg := Config{Instances: 2}
		faultinject.Reset()
		want := referenceRun(t, reg, q, cfg, events)
		if len(want) == 0 {
			t.Fatalf("%s: fixture produced no matches", f.name)
		}
		for _, point := range faultinject.Catalog {
			t.Run(fmt.Sprintf("%s/%s", f.name, point), func(t *testing.T) {
				got := crashCycle(t, reg, q, cfg, events, point, 2)
				assertKeysEqual(t, "crash equivalence", got, want)
			})
		}
	}
}

// TestCrashRecoverySoak is the randomized kill-and-recover soak: many
// iterations, each arming a random crash point at a random future hit,
// asserting byte-identical output every time.
func TestCrashRecoverySoak(t *testing.T) {
	iterations := 100
	if testing.Short() {
		iterations = 15
	}
	rng := rand.New(rand.NewSource(4217))

	q1reg, q1, q1events := recoveryFixture(t)
	qereg, qe, qeevents := qeFixture(t)

	type fixture struct {
		reg    *event.Registry
		q      *pattern.Query
		events []event.Event
		want   []string
	}
	fixtures := []*fixture{
		{reg: q1reg, q: q1, events: q1events},
		{reg: qereg, q: qe, events: qeevents},
	}
	cfg := Config{Instances: 2}

	for i := 0; i < iterations; i++ {
		f := fixtures[rng.Intn(len(fixtures))]
		point := faultinject.Catalog[rng.Intn(len(faultinject.Catalog))]
		hitN := 1 + rng.Intn(8)
		if f.want == nil {
			faultinject.Reset()
			f.want = referenceRun(t, f.reg, f.q, cfg, f.events)
		}
		got := crashCycle(t, f.reg, f.q, cfg, f.events, point, hitN)
		if len(got) != len(f.want) {
			t.Fatalf("iteration %d (%s hit %d): %d matches, want %d",
				i, point, hitN, len(got), len(f.want))
		}
		for j := range f.want {
			if got[j] != f.want[j] {
				t.Fatalf("iteration %d (%s hit %d): match %d = %s, want %s",
					i, point, hitN, j, got[j], f.want[j])
			}
		}
	}
}

// TestDegradedModeKeepsDelivering: a store that starts failing writes
// breaks durability but never the delivered stream (availability over
// durability, DESIGN.md §11).
func TestDegradedModeKeepsDelivering(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	reg, q, events := recoveryFixture(t)
	cfg := Config{Instances: 2}
	want := referenceRun(t, reg, q, cfg, events)

	store := faultinject.Flaky(durable.NewMemStore(), 7, 0)
	var got []string
	ctx := context.Background()
	rt := NewRuntime(RuntimeConfig{Workers: 2, Durable: store})
	h, err := rt.Submit(q, Config{Instances: 2, Reg: reg}, nil, 1, func(ce event.Complex) {
		got = append(got, ce.Key())
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FeedBatch(ctx, events); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	m := h.Metrics()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	assertKeysEqual(t, "degraded mode", got, want)
	if m.DurableErrors == 0 {
		t.Fatal("flaky store produced no DurableErrors")
	}
}

// TestFlakyLatencyBackpressure: a slow store stalls the persister, which
// backpressures ingest via the bounded request queue instead of growing
// an unbounded backlog; deliveries still match.
func TestFlakyLatencyBackpressure(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	reg, q, events := recoveryFixture(t)
	cfg := Config{Instances: 2}
	want := referenceRun(t, reg, q, cfg, events)

	store := faultinject.Flaky(durable.NewMemStore(), 0, 200*time.Microsecond)
	var got []string
	ctx := context.Background()
	rt := NewRuntime(RuntimeConfig{Workers: 2, Durable: store})
	h, err := rt.Submit(q, Config{Instances: 2, Reg: reg}, nil, 1, func(ce event.Complex) {
		got = append(got, ce.Key())
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FeedBatch(ctx, events); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	assertKeysEqual(t, "slow store", got, want)
}
