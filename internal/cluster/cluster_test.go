package cluster

// Distributed ↔ local golden equivalence: a query distributed over remote
// shard workers must deliver byte-identical output, in the merged
// deterministic order, to a reference built from local per-shard core
// runs interleaved through the same ordered merge — for any worker count,
// across graceful rebalancing and across a mid-stream worker kill.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/core"
	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/shard"
)

// canon renders a match canonically for byte comparison.
func canon(c event.Complex) string {
	return fmt.Sprintf("%s|w%d|d%d|%v|%v", c.Query, c.WindowID, c.DetectedAt, c.Constituents, c.Consumed)
}

// refOp is one entry of a shard's interleaved emit/advance stream.
type refOp struct {
	advance  bool
	boundary uint64
	match    event.Complex
}

// refRun builds the reference output: each shard's substream, stamped
// with its positions as the coordinator stamps it, through a local
// single-shard core run journaled upstream (capturing the exact emit/cut
// interleaving), then the same ordered merge the coordinator uses.
func refRun(t *testing.T, reg *event.Registry, text string, route func(*event.Event) int, nShards int, events []event.Event) []string {
	t.Helper()
	rt := core.NewRuntime(core.RuntimeConfig{})
	defer rt.Close()
	subs := make([][]event.Event, nShards)
	for i := range events {
		s := route(&events[i])
		ev := events[i]
		ev.Seq = uint64(len(subs[s]))
		subs[s] = append(subs[s], ev)
	}
	ops := make([][]refOp, nShards)
	for s := 0; s < nShards; s++ {
		s := s
		q, err := parser.Parse(text, reg)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		cfg := core.Config{
			Reg: reg,
			Upstream: &core.Upstream{OnCut: func(c *durable.CutRecord) {
				ops[s] = append(ops[s], refOp{advance: true, boundary: c.Boundary})
			}},
		}
		h, err := rt.Submit(q, cfg, nil, 1, func(m event.Complex) {
			ops[s] = append(ops[s], refOp{match: m.Clone()})
		}, nil)
		if err != nil {
			t.Fatalf("submit shard %d: %v", s, err)
		}
		if err := h.FeedBatch(context.Background(), subs[s]); err != nil {
			t.Fatalf("feed shard %d: %v", s, err)
		}
		h.Close()
		h.Wait()
	}

	var out []string
	m := newOrderedMerge(nShards, func(c event.Complex) { out = append(out, canon(c)) })
	for i := range events {
		m.route(route(&events[i]))
	}
	for s := range ops {
		for _, op := range ops[s] {
			if op.advance {
				m.progress(s, op.boundary)
			} else if !m.emit(s, op.match) {
				t.Fatalf("reference: shard %d match at %d beyond routed events", s, op.match.DetectedAt)
			}
		}
		m.drained(s)
	}
	m.release()
	for s := range m.shards {
		if m.shards[s].next < len(m.shards[s].buf) {
			t.Fatal("reference merge left matches buffered after drain")
		}
	}
	return out
}

// testCluster wires a loopback coordinator plus n workers, each with its
// own registry (simulating separate processes).
type testCluster struct {
	c       *Coordinator
	workers []*Worker
}

func startCluster(t *testing.T, reg *event.Registry, n int) *testCluster {
	t.Helper()
	c, err := Listen("127.0.0.1:0", reg, Options{
		MinWorkers:    n,
		FlushInterval: time.Millisecond,
		Heartbeat:     200 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	tc := &testCluster{c: c}
	for i := 0; i < n; i++ {
		tc.addWorker(t)
	}
	return tc
}

func (tc *testCluster) addWorker(t *testing.T) *Worker {
	t.Helper()
	return tc.join(t, event.NewRegistry())
}

// join adds a worker whose process-local registry is wreg.
func (tc *testCluster) join(t *testing.T, wreg *event.Registry) *Worker {
	t.Helper()
	w, err := Join(context.Background(), wreg, tc.c.Addr().String(),
		WorkerOptions{Heartbeat: 100 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	t.Cleanup(func() { w.Close(); _ = w.Wait() })
	tc.workers = append(tc.workers, w)
	return w
}

// ownerCounts snapshots how many shards each worker currently owns.
func ownerCounts(c *Coordinator) map[uint32]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := map[uint32]int{}
	for _, q := range c.queries {
		for _, s := range q.shards {
			if s.owner != nil {
				m[s.owner.id]++
			}
		}
	}
	return m
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// distSubmit submits one query and returns the handle plus the collected
// merged output.
func distSubmit(t *testing.T, c *Coordinator, name, text string, route func(*event.Event) int, nShards int) (*QueryHandle, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var out []string
	h, err := c.Submit(context.Background(), Submission{
		Name:    name,
		Text:    text,
		NShards: nShards,
		Route:   route,
		Emit: func(m event.Complex) {
			mu.Lock()
			out = append(out, canon(m))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("cluster submit: %v", err)
	}
	return h, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), out...)
	}
}

func feedAll(t *testing.T, h *QueryHandle, events []event.Event) {
	t.Helper()
	const chunk = 250
	for off := 0; off < len(events); off += chunk {
		end := min(off+chunk, len(events))
		if err := h.FeedBatch(events[off:end]); err != nil {
			t.Fatalf("feed: %v", err)
		}
	}
}

func drain(t *testing.T, h *QueryHandle) {
	t.Helper()
	h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

func compareRuns(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: reference produced no detections — equivalence is vacuous", label)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d distributed vs %d reference detections", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: detection %d differs:\n distributed %s\n reference   %s", label, i, got[i], want[i])
		}
	}
	t.Logf("%s: %d identical detections", label, len(want))
}

// goldenCase is one distributed-equivalence scenario.
type goldenCase struct {
	name   string
	text   string
	route  func(reg *event.Registry) func(*event.Event) int
	events func(reg *event.Registry) []event.Event
}

func byType(n int) func(reg *event.Registry) func(*event.Event) int {
	return func(*event.Registry) func(*event.Event) int {
		return shard.NewRouter(n, shard.ByType()).Route
	}
}

const distShards = 4

var goldenCases = []goldenCase{
	{
		name: "Q1",
		text: `
			QUERY Q1
			PATTERN (MLE RE1 RE2 RE3)
			DEFINE MLE AS (MLE.symbol IN ('BLUE00','BLUE01') AND MLE.close > MLE.open),
			       RE1 AS RE1.close > RE1.open,
			       RE2 AS RE2.close > RE2.open,
			       RE3 AS RE3.close > RE3.open
			WITHIN 200 EVENTS FROM MLE
			CONSUME ALL
		`,
		route: byType(distShards),
		events: func(reg *event.Registry) []event.Event {
			return dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 50, Seed: 11})
		},
	},
	{
		name: "Q2",
		text: `
			QUERY Q2
			PATTERN (A B+ C D+ E)
			DEFINE A AS A.close < 95,
			       B AS (B.close > 95 AND B.close < 105),
			       C AS C.close > 105,
			       D AS (D.close > 95 AND D.close < 105),
			       E AS E.close < 95
			WITHIN 400 EVENTS FROM EVERY 100 EVENTS
			CONSUME ALL
		`,
		route: byType(distShards),
		events: func(reg *event.Registry) []event.Event {
			return dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 20, Leaders: 2, Minutes: 120, Seed: 5})
		},
	},
	{
		name: "Q3",
		text: `
			QUERY Q3
			PATTERN (A SET(X1 X2 X3))
			DEFINE A AS A.symbol = 'S0000',
			       X1 AS X1.symbol = 'S0001',
			       X2 AS X2.symbol = 'S0002',
			       X3 AS X3.symbol = 'S0003'
			WITHIN 200 EVENTS FROM EVERY 50 EVENTS
			CONSUME ALL
		`,
		// Q3's SET members must stay co-located: route on a session field
		// instead of the type so every shard sees all four symbols.
		route: func(reg *event.Registry) func(*event.Event) int {
			return shard.NewRouter(distShards, shard.ByField(reg.FieldIndex("session"))).Route
		},
		events: func(reg *event.Registry) []event.Event {
			evs := dataset.Rand(reg, dataset.RandConfig{Symbols: 10, Events: 4000, Seed: 23})
			idx := reg.FieldIndex("session")
			for i := range evs {
				f := make([]float64, idx+1)
				copy(f, evs[i].Fields)
				f[idx] = float64(i % 8)
				evs[i].Fields = f
			}
			return evs
		},
	},
	{
		name: "QE",
		text: `
			QUERY QE
			PATTERN (A B)
			DEFINE A AS A.symbol = 'A', B AS B.symbol = 'B'
			WITHIN 1 min FROM A
			CONSUME (B)
			ON MATCH RESTART LEADER
		`,
		// A and B types must share a shard; route on the account field.
		route: func(reg *event.Registry) func(*event.Event) int {
			return shard.NewRouter(distShards, shard.ByField(reg.FieldIndex("account"))).Route
		},
		events: func(reg *event.Registry) []event.Event {
			acct := reg.FieldIndex("account")
			ta, tb := reg.TypeID("A"), reg.TypeID("B")
			evs := make([]event.Event, 0, 2400)
			for i := 0; i < 2400; i++ {
				ty := tb
				if i%4 == 0 {
					ty = ta
				}
				f := make([]float64, acct+1)
				f[acct] = float64(i % 6)
				evs = append(evs, event.Event{TS: int64(i) * int64(7*time.Second), Type: ty, Fields: f})
			}
			return evs
		},
	},
}

// TestDistributedGoldenEquivalence: every paper query, distributed over 2
// and 4 loopback workers, must be byte-identical to the local reference.
func TestDistributedGoldenEquivalence(t *testing.T) {
	for _, tc := range goldenCases {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				reg := event.NewRegistry()
				events := tc.events(reg)
				route := tc.route(reg)
				want := refRun(t, reg, tc.text, route, distShards, events)

				cl := startCluster(t, reg, workers)
				h, got := distSubmit(t, cl.c, tc.name, tc.text, route, distShards)
				feedAll(t, h, events)
				drain(t, h)
				compareRuns(t, fmt.Sprintf("%s w=%d", tc.name, workers), want, got())
			})
		}
	}
}

// TestWorkerRegistryRemap: workers whose registries interned the
// coordinator's type and field names in reverse order before joining must
// translate every shipped event into their own ids — the non-identity
// path of the shared translation — and golden Q1 stays byte-identical.
func TestWorkerRegistryRemap(t *testing.T) {
	tc := goldenCases[0] // Q1
	reg := event.NewRegistry()
	events := tc.events(reg)
	route := tc.route(reg)
	want := refRun(t, reg, tc.text, route, distShards, events)

	types, fields := reg.TypeNames(), reg.FieldNames()
	if len(types) < 2 || len(fields) < 2 {
		t.Fatalf("%d types, %d fields: reversing cannot move an id", len(types), len(fields))
	}
	cl := startCluster(t, reg, 0)
	for i := 0; i < 2; i++ {
		wreg := event.NewRegistry()
		for j := len(types) - 1; j >= 0; j-- {
			wreg.TypeID(types[j])
		}
		for j := len(fields) - 1; j >= 0; j-- {
			wreg.FieldIndex(fields[j])
		}
		cl.join(t, wreg)
	}
	h, got := distSubmit(t, cl.c, tc.name, tc.text, route, distShards)
	feedAll(t, h, events)
	drain(t, h)
	compareRuns(t, "Q1 reversed worker registries", want, got())
}

// TestDistributedWorkerKill: killing a worker mid-stream must lose no
// matches and duplicate none — the shards replay from retained events on
// the survivor and the emission ordinals absorb the overlap. The output
// must still be byte-identical to the reference.
func TestDistributedWorkerKill(t *testing.T) {
	tc := goldenCases[0] // Q1
	reg := event.NewRegistry()
	events := tc.events(reg)
	route := tc.route(reg)
	want := refRun(t, reg, tc.text, route, distShards, events)

	cl := startCluster(t, reg, 2)
	h, got := distSubmit(t, cl.c, tc.name, tc.text, route, distShards)

	half := len(events) / 2
	feedAll(t, h, events[:half])
	// Give the first half time to reach the workers so the kill actually
	// discards in-flight state rather than a cold shard.
	waitUntil(t, "some output before the kill", func() bool { return len(got()) > 0 })

	victim := cl.workers[0]
	victim.Close() // abrupt: connection drops, nothing handed off
	waitUntil(t, "shards reassigned off the dead worker", func() bool {
		counts := ownerCounts(cl.c)
		return counts[victim.ID()] == 0 && counts[cl.workers[1].ID()] == distShards
	})

	feedAll(t, h, events[half:])
	drain(t, h)
	compareRuns(t, "Q1 kill+rebalance", want, got())
}

// TestDistributedRebalanceJoin: a worker joining mid-stream triggers a
// graceful handoff (quiesce → WAL snapshot → resume) and the output stays
// byte-identical.
func TestDistributedRebalanceJoin(t *testing.T) {
	tc := goldenCases[3] // QE
	reg := event.NewRegistry()
	events := tc.events(reg)
	route := tc.route(reg)
	want := refRun(t, reg, tc.text, route, distShards, events)

	cl := startCluster(t, reg, 1)
	h, got := distSubmit(t, cl.c, tc.name, tc.text, route, distShards)

	half := len(events) / 2
	feedAll(t, h, events[:half])
	waitUntil(t, "first worker owning all shards", func() bool {
		return ownerCounts(cl.c)[cl.workers[0].ID()] == distShards
	})

	w2 := cl.addWorker(t)
	waitUntil(t, "graceful migration to the joined worker", func() bool {
		return ownerCounts(cl.c)[w2.ID()] == distShards/2
	})

	feedAll(t, h, events[half:])
	drain(t, h)
	compareRuns(t, "QE join+rebalance", want, got())
}

// TestJoinRetriesExhausted: joining an unreachable coordinator gives up
// after the configured attempts with a typed *Error.
func TestJoinRetriesExhausted(t *testing.T) {
	start := time.Now()
	_, err := Join(context.Background(), event.NewRegistry(), "127.0.0.1:1",
		WorkerOptions{JoinAttempts: 3, Logf: t.Logf})
	if err == nil {
		t.Fatal("join to unreachable address succeeded")
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *cluster.Error: %v", err, err)
	}
	if ce.Op != "join" || ce.Attempts != 3 {
		t.Fatalf("unexpected error detail: op=%q attempts=%d", ce.Op, ce.Attempts)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("join retries took %v, backoff cap is not being applied", elapsed)
	}
}

// TestCloseDoesNotWaitForHeartbeat: Close wakes every link's heartbeat
// loop instead of waiting out its tick (2 s by default).
func TestCloseDoesNotWaitForHeartbeat(t *testing.T) {
	c, err := Listen("127.0.0.1:0", event.NewRegistry(), Options{MinWorkers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	for i := 0; i < 2; i++ {
		w, err := Join(context.Background(), event.NewRegistry(), c.Addr().String(), WorkerOptions{Logf: t.Logf})
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		t.Cleanup(func() { w.Close(); _ = w.Wait() })
	}
	if err := c.WaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("Close took %v with a 2s heartbeat; it must not wait for the tick", d)
	}
}

// TestOrderedMergeHolds: the merge must hold a buffered match while
// another shard's bound is behind it, and release in global key order.
func TestOrderedMergeHolds(t *testing.T) {
	var out []string
	m := newOrderedMerge(2, func(c event.Complex) { out = append(out, c.Query) })
	// Global stream: positions 0,2,4 -> shard 0; 1,3,5 -> shard 1.
	for i := 0; i < 6; i++ {
		m.route(i % 2)
	}
	// Shard 1 emits a match under its window at local 1 (global 3).
	m.progress(1, 1)
	if !m.emit(1, event.Complex{Query: "late", DetectedAt: 2}) {
		t.Fatal("emit rejected")
	}
	m.release()
	if len(out) != 0 {
		t.Fatalf("released %v while shard 0 bound was behind", out)
	}
	// Shard 0 advances past global 3 (its local 2 = global 4): now the
	// held match is settled.
	m.progress(0, 2)
	m.release()
	if len(out) != 1 || out[0] != "late" {
		t.Fatalf("expected the held match to release, got %v", out)
	}
	// A shard 0 match under its window at local 1 (global 2) would have
	// come earlier — the merge must never let that happen after release;
	// emitting under the current bound (local 2, global 4) orders after.
	m.progress(0, 2)
	if !m.emit(0, event.Complex{Query: "next", DetectedAt: 2}) {
		t.Fatal("emit rejected")
	}
	m.drained(1)
	m.release()
	if len(out) != 2 || out[1] != "next" {
		t.Fatalf("expected ordered release, got %v", out)
	}
}
