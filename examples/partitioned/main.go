// Partitioned runs the multi-query, key-partitioned SPECTRE Runtime over
// a per-symbol trading stream: hundreds of symbols, two queries submitted
// to one shared runtime, each partitioned by symbol (PARTITION BY TYPE)
// so every symbol's windows and consumption policies evolve independently
// while all shards multiplex onto one worker pool.
//
// Run it with:
//
//	go run ./examples/partitioned
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	spectre "github.com/spectrecep/spectre"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	reg := spectre.NewRegistry()

	// Hundreds of symbols quoting once per minute; the stream interleaves
	// them all, so per-symbol correlation needs partitioning.
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{
		Symbols: 300,
		Leaders: 8,
		Minutes: 150,
		Seed:    11,
	})
	fmt.Printf("generated %d quotes across 300 symbols\n", len(events))

	// Query 1: per-symbol momentum — two consecutive rising quotes of the
	// SAME symbol, the second closing higher. PARTITION BY TYPE gives each
	// symbol its own windows; SHARDS 8 spreads the symbols over 8
	// independent SPECTRE pipelines.
	momentum, err := spectre.ParseQuery(`
		QUERY momentum
		PATTERN (X Y)
		DEFINE X AS X.close > X.open, Y AS Y.close > X.close
		WITHIN 20 EVENTS FROM X
		CONSUME ALL
		PARTITION BY TYPE SHARDS 8
	`, reg)
	if err != nil {
		return err
	}

	// Query 2: per-symbol reversal — a falling quote followed by a deeper
	// fall, consuming only the confirmation (the paper's selected-B
	// policy). Shard count left to the runtime (GOMAXPROCS).
	reversal, err := spectre.ParseQuery(`
		QUERY reversal
		PATTERN (A B)
		DEFINE A AS A.close < A.open, B AS B.close < A.close
		WITHIN 15 EVENTS FROM A
		CONSUME (B)
		PARTITION BY TYPE
	`, reg)
	if err != nil {
		return err
	}

	ctx := context.Background()
	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		return err
	}
	defer rt.Close()

	// One counter per handle: sink callbacks are serialized per handle but
	// run concurrently across handles, so the two queries must not share a
	// counter (or any other unsynchronized state).
	var nMomentum, nReversal int
	hMomentum, err := rt.Submit(ctx, momentum, spectre.SinkFunc(func(spectre.ComplexEvent) { nMomentum++ }))
	if err != nil {
		return err
	}
	hReversal, err := rt.Submit(ctx, reversal, spectre.SinkFunc(func(spectre.ComplexEvent) { nReversal++ }))
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s on %d shards, %s on %d shards\n",
		hMomentum.Name(), hMomentum.Shards(), hReversal.Name(), hReversal.Shards())

	// Feed both queries in batches: FeedBatch writes each event straight
	// into its shard's arena, taking a shard's lock once per run of events
	// routed to it — the cheap intake path — and each handle routes every
	// event by symbol hash.
	start := time.Now()
	const batch = 512
	for lo := 0; lo < len(events); lo += batch {
		hi := min(lo+batch, len(events))
		if err := hMomentum.FeedBatch(ctx, events[lo:hi]); err != nil {
			return err
		}
		if err := hReversal.FeedBatch(ctx, events[lo:hi]); err != nil {
			return err
		}
	}
	hMomentum.Drain()
	hReversal.Drain()
	elapsed := time.Since(start)

	// Graceful teardown with a deadline: a production service would call
	// this from its SIGTERM handler.
	shutdownCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(shutdownCtx); err != nil {
		return err
	}

	fmt.Printf("processed %d events through both queries in %v (%.0f events/sec)\n",
		len(events), elapsed.Round(time.Millisecond),
		float64(len(events))/elapsed.Seconds())
	for _, hc := range []struct {
		h       *spectre.Handle
		matches int
	}{{hMomentum, nMomentum}, {hReversal, nReversal}} {
		m := hc.h.Metrics()
		fmt.Printf("  %-9s %6d matches  windows=%d versions=%d gate-reprocessed=%d\n",
			hc.h.Name(), hc.matches, m.WindowsOpened, m.VersionsCreated, m.GateReprocessed)
	}
	return nil
}
