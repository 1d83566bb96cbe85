// Communication efficiency (DESIGN.md §13): bytes shipped per source
// event for an ingest-bound distributed workload — a plan-filterable
// mixed-type NYSE stream feeding three queries attached to one shared
// source. The wire combines coordinator-side plan pushdown (irrelevant
// events never framed), compact delta/varint encoding with plan-driven
// field projection, and shared-stream page dedup (one physical copy per
// link, per-query reference frames). Every mode's merged output is
// checked against a local sharded run of the same queries.
package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/spectrecep/spectre/internal/cluster"
	"github.com/spectrecep/spectre/internal/core"
	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/shard"
	"github.com/spectrecep/spectre/internal/stats"
)

// commsQueries are the three same-stream queries. Each step carries a
// binding-free rising predicate, so the pushdown plan can prove a
// falling event (close ≤ open, roughly half the NYSE stream) useless to
// every step and drop it before framing; the windows differ so the
// queries stay distinct consumers of the shared pages.
func commsQueries() []string {
	qs := make([]string, 0, 3)
	for i, win := range []int{60, 120, 180} {
		qs = append(qs, fmt.Sprintf(`
			QUERY CQ%d
			PATTERN (A B C)
			DEFINE A AS (A.symbol IN ('BLUE00','BLUE01') AND A.close > A.open),
			       B AS B.close > B.open,
			       C AS C.close > C.open
			WITHIN %d EVENTS FROM A
			CONSUME ALL
		`, i, win))
	}
	return qs
}

// commsData is the mixed-type stream both sides consume.
func commsData(reg *event.Registry) []event.Event {
	return dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 150, Seed: 11})
}

// commsCanon renders a match canonically for cross-mode comparison.
func commsCanon(c event.Complex) string {
	return fmt.Sprintf("%s|w%d|d%d|%v|%v", c.Query, c.WindowID, c.DetectedAt, c.Constituents, c.Consumed)
}

// commsLocal runs the three queries on the in-process sharded runtime
// and returns each query's match set in canonical (sorted) order — the
// reference the distributed modes must reproduce. The local runtime
// interleaves shard output in arrival order, so only the set is the
// contract here; the distributed modes additionally check their merged
// sequences against each other.
func commsLocal(reg *event.Registry, events []event.Event, texts []string, route func(*event.Event) int) ([][]string, error) {
	rt := core.NewRuntime(core.RuntimeConfig{})
	defer rt.Close()
	out := make([][]string, len(texts))
	handles := make([]*core.Handle, len(texts))
	var mu sync.Mutex
	for i, text := range texts {
		i := i
		q, err := parser.Parse(text, reg)
		if err != nil {
			return nil, err
		}
		h, err := rt.Submit(q, core.Config{Reg: reg}, route, distShards, func(m event.Complex) {
			mu.Lock()
			out[i] = append(out[i], commsCanon(m))
			mu.Unlock()
		}, nil)
		if err != nil {
			return nil, err
		}
		handles[i] = h
	}
	for lo := 0; lo < len(events); lo += 1024 {
		hi := lo + 1024
		if hi > len(events) {
			hi = len(events)
		}
		for _, h := range handles {
			if err := h.FeedBatch(context.Background(), events[lo:hi]); err != nil {
				return nil, err
			}
		}
	}
	for _, h := range handles {
		h.Drain()
	}
	for i := range out {
		sort.Strings(out[i])
	}
	return out, nil
}

// commsResult is one distributed run's transport accounting and output.
type commsResult struct {
	bytesPerEvent float64
	eventsPerSec  float64
	framesSent    uint64
	deduped       uint64
	out           [][]string // per query, merged order
}

// commsRemote runs the three queries attached to one shared stream on a
// two-worker loopback cluster under the given coordinator options and
// returns bytes-per-source-event from the links' transport counters.
func commsRemote(reg *event.Registry, events []event.Event, texts []string, route func(*event.Event) int, opts cluster.Options) (commsResult, error) {
	var res commsResult
	const nWorkers = 2
	opts.MinWorkers = nWorkers
	opts.FlushInterval = time.Millisecond
	c, err := cluster.Listen("127.0.0.1:0", reg, opts)
	if err != nil {
		return res, err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workers := make([]*cluster.Worker, 0, nWorkers)
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	for i := 0; i < nWorkers; i++ {
		w, err := cluster.Join(ctx, event.NewRegistry(), c.Addr().String(), cluster.WorkerOptions{})
		if err != nil {
			return res, err
		}
		workers = append(workers, w)
	}

	st := c.OpenStream()
	res.out = make([][]string, len(texts))
	handles := make([]*cluster.QueryHandle, len(texts))
	var mu sync.Mutex
	for i, text := range texts {
		i := i
		h, err := c.Submit(ctx, cluster.Submission{
			Name: fmt.Sprintf("CQ%d", i), Text: text,
			NShards: distShards, Route: route, Stream: st,
			Emit: func(m event.Complex) {
				mu.Lock()
				res.out[i] = append(res.out[i], commsCanon(m))
				mu.Unlock()
			},
		})
		if err != nil {
			return res, err
		}
		handles[i] = h
	}
	// Give the workers a beat to report shard readiness: page staging
	// (and pushdown's sequence pre-stamping) only covers shards whose
	// owners are ready; events fed before that ship through the plain
	// pump and dilute the measurement.
	time.Sleep(300 * time.Millisecond)

	start := time.Now()
	for lo := 0; lo < len(events); lo += 1024 {
		hi := lo + 1024
		if hi > len(events) {
			hi = len(events)
		}
		if err := st.FeedBatch(events[lo:hi]); err != nil {
			return res, err
		}
	}
	st.Close()
	for _, h := range handles {
		if err := h.Wait(ctx); err != nil {
			return res, err
		}
	}
	res.eventsPerSec = stats.Throughput(uint64(len(events)), time.Since(start))
	var bytes uint64
	for _, ls := range c.Stats() {
		bytes += ls.BytesSent
		res.framesSent += ls.FramesSent
		res.deduped += ls.EventsDeduped
	}
	res.bytesPerEvent = float64(bytes) / float64(len(events))
	return res, nil
}

// commsModes are the wire configurations the sweep compares.
var commsModes = []struct {
	label string
	opts  cluster.Options
}{
	{"2w v2 no-pushdown", cluster.Options{DisablePushdown: true}},
	{"2w v2", cluster.Options{}},
}

// commsCheck asserts a distributed run reproduced the local match sets.
func commsCheck(label string, local [][]string, res commsResult) error {
	for i, want := range local {
		got := append([]string(nil), res.out[i]...)
		sort.Strings(got)
		if len(got) != len(want) {
			return fmt.Errorf("comms %s: query %d emitted %d matches, local reference %d", label, i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("comms %s: query %d match %d diverges from local reference", label, i, j)
			}
		}
	}
	return nil
}

// Comms measures bytes shipped per source event across wire modes:
// pushdown disabled (compact frames and page dedup only) and the full
// stack. Every mode must reproduce the local runs' match sets, and the
// modes must agree with each other byte-for-byte in merged order.
func (o *Options) Comms() ([]Row, error) {
	o.setDefaults()
	reg := event.NewRegistry()
	events := commsData(reg)
	texts := commsQueries()
	route := shard.NewRouter(distShards, shard.ByType()).Route

	o.printf("\n== Comms: bytes/event across wire modes (3 shared-stream queries, %d shards, %d events) ==\n",
		distShards, len(events))

	local, err := commsLocal(reg, events, texts, route)
	if err != nil {
		return nil, err
	}
	nMatches := 0
	for _, q := range local {
		nMatches += len(q)
	}
	o.printf("local reference: %d matches across %d queries\n", nMatches, len(texts))
	o.printf("%-18s %14s %14s %10s %10s\n", "mode", "bytes/event", "med ev/s", "frames", "deduped")

	var rows []Row
	var refOut [][]string // first mode's merged output, for cross-mode equality
	for _, mode := range commsModes {
		var series, tput stats.Series
		var last commsResult
		for r := 0; r < o.Repeats; r++ {
			res, err := commsRemote(reg, events, texts, route, mode.opts)
			if err != nil {
				return nil, err
			}
			if err := commsCheck(mode.label, local, res); err != nil {
				return nil, err
			}
			series.Add(res.bytesPerEvent)
			tput.Add(res.eventsPerSec)
			last = res
		}
		// The modes run the same deterministic merge over the same
		// pre-stamped sequences; their merged orders must be identical.
		if refOut == nil {
			refOut = last.out
		} else {
			for i := range refOut {
				if len(refOut[i]) != len(last.out[i]) {
					return nil, fmt.Errorf("comms %s: merged order diverges from the other mode on query %d", mode.label, i)
				}
				for j := range refOut[i] {
					if refOut[i][j] != last.out[i][j] {
						return nil, fmt.Errorf("comms %s: merged order diverges from the other mode on query %d", mode.label, i)
					}
				}
			}
		}
		c := series.Candles()
		tc := tput.Candles()
		rows = append(rows, Row{
			Figure: "comms", Label: mode.label, K: distShards,
			Value: c.Median, Metric: "bytes/event", Candles: c,
		})
		o.printf("%-18s %14.1f %14.0f %10d %10d\n", mode.label, c.Median, tc.Median, last.framesSent, last.deduped)
	}
	return rows, nil
}
