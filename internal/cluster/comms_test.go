package cluster

// Communication-efficiency behavior (DESIGN.md §13): the handshake's
// version check, pushdown equivalence (filtering at the
// coordinator must not change a single output byte), and shared-stream
// page dedup across co-located queries.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

// startClusterOpts is startCluster with coordinator/worker option
// overrides (zero fields get the test defaults).
func startClusterOpts(t *testing.T, reg *event.Registry, n int, opts Options, wopts WorkerOptions) *testCluster {
	t.Helper()
	if opts.MinWorkers == 0 {
		opts.MinWorkers = n
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = time.Millisecond
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 200 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := Listen("127.0.0.1:0", reg, opts)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	tc := &testCluster{c: c}
	for i := 0; i < n; i++ {
		if wopts.Heartbeat == 0 {
			wopts.Heartbeat = 100 * time.Millisecond
		}
		if wopts.Logf == nil {
			wopts.Logf = t.Logf
		}
		w, err := Join(context.Background(), event.NewRegistry(), c.Addr().String(), wopts)
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		t.Cleanup(func() { w.Close(); _ = w.Wait() })
		tc.workers = append(tc.workers, w)
	}
	return tc
}

// TestHandshakeRefusesOldPeer: the handshake carries the one protocol
// version this build speaks, and a peer on any other version — older or
// newer — is refused on either side: such a worker gets the coordinator's
// protocol-mismatch error frame and no link, and such a coordinator's
// welcome fails Join with a typed *Error.
func TestHandshakeRefusesOldPeer(t *testing.T) {
	// v5 put a cut on the assign and progress frames; v4 peers send a
	// bare boundary and expect a handoff.
	if protoVersion != 5 {
		t.Fatalf("protoVersion = %d, want 5", protoVersion)
	}
	for _, peer := range []uint32{protoVersion - 1, protoVersion + 1} {
		t.Run(fmt.Sprintf("v%d", peer), func(t *testing.T) {
			c, err := Listen("127.0.0.1:0", event.NewRegistry(), Options{Logf: t.Logf})
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer c.Close()
			conn, err := net.Dial("tcp", c.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			hello := helloMsg{Proto: peer, Capacity: 1, Name: "foreign-worker"}
			if err := writeFrame(conn, kindHello, hello.encode(nil)); err != nil {
				t.Fatalf("send hello: %v", err)
			}
			kind, body, err := wire.ReadFrame(conn, nil)
			if err != nil {
				t.Fatalf("read refusal: %v", err)
			}
			em, err := decodeError(body)
			if kind != kindError || err != nil || !strings.Contains(em.Msg, "protocol mismatch") {
				t.Fatalf("v%d worker got kind %d, %q (%v); want a protocol-mismatch error frame", peer, kind, em.Msg, err)
			}
			if n := len(c.Stats()); n != 0 {
				t.Fatalf("refused worker left %d link(s) registered", n)
			}

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, _, err := wire.ReadFrame(conn, nil); err != nil {
					return
				}
				welcome := welcomeMsg{Proto: peer, WorkerID: 1}
				_ = writeFrame(conn, kindWelcome, welcome.encode(nil))
			}()
			_, err = Join(context.Background(), event.NewRegistry(), ln.Addr().String(),
				WorkerOptions{JoinAttempts: 1, Logf: t.Logf})
			var ce *Error
			if !errors.As(err, &ce) || !strings.Contains(err.Error(), "protocol mismatch") {
				t.Fatalf("join to a v%d coordinator = %v, want a *cluster.Error naming the protocol mismatch", peer, err)
			}
		})
	}
}

// TestPushdownEquivalence: for every golden query on 2 and 4 workers,
// filtering at the coordinator (plan pushdown, the default) and
// filtering at the worker (DisablePushdown) must both be byte-identical
// to the local reference — so to each other.
func TestPushdownEquivalence(t *testing.T) {
	for _, gc := range goldenCases {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", gc.name, workers), func(t *testing.T) {
				reg := event.NewRegistry()
				events := gc.events(reg)
				route := gc.route(reg)
				want := refRun(t, reg, gc.text, route, distShards, events)

				outs := map[string][]string{}
				for _, mode := range []struct {
					name string
					opts Options
				}{
					{name: "pushdown", opts: Options{}},
					{name: "full-ship", opts: Options{DisablePushdown: true}},
				} {
					cl := startClusterOpts(t, reg, workers, mode.opts, WorkerOptions{})
					h, got := distSubmit(t, cl.c, gc.name, gc.text, route, distShards)
					feedAll(t, h, events)
					drain(t, h)
					outs[mode.name] = got()
					compareRuns(t, fmt.Sprintf("%s/%s", gc.name, mode.name), want, outs[mode.name])
				}
				for i := range outs["pushdown"] {
					if outs["pushdown"][i] != outs["full-ship"][i] {
						t.Fatalf("detection %d differs between pushdown and full-ship", i)
					}
				}
			})
		}
	}
}

// TestPushdownFilters asserts the tentpole actually engages: a query
// whose plan rejects most of the stream must drop events at the
// coordinator (never encoding them) when pushdown is on.
func TestPushdownFilters(t *testing.T) {
	gc := goldenCases[0] // Q1: every step requires close > open
	reg := event.NewRegistry()
	events := gc.events(reg)
	route := gc.route(reg)

	cl := startCluster(t, reg, 2)
	h, _ := distSubmit(t, cl.c, gc.name, gc.text, route, distShards)
	feedAll(t, h, events)

	// Routing is synchronous, so the counters are final once the feed
	// returns; sample before drain (finished queries leave the table).
	// Cuts drop retained events as the workers advance; the retained
	// ordinals count every event ever kept.
	cl.c.mu.Lock()
	var filtered, kept uint64
	for _, q := range cl.c.queries {
		filtered += q.filtered
		for _, s := range q.shards {
			kept += s.retained.end()
		}
	}
	cl.c.mu.Unlock()
	drain(t, h)
	if filtered == 0 {
		t.Fatal("pushdown dropped nothing — plan filter never engaged")
	}
	if filtered+kept != uint64(len(events)) {
		t.Fatalf("filtered %d + kept %d != %d fed", filtered, kept, len(events))
	}
	t.Logf("pushdown dropped %d of %d events at the coordinator", filtered, len(events))
}

// TestSharedStreamDedup: three queries attached to one shared stream;
// co-located shards must receive each source event once (pages), the
// per-query outputs must match a per-query reference, and the dedup
// counters must show real savings.
func TestSharedStreamDedup(t *testing.T) {
	gc := goldenCases[0] // Q1
	reg := event.NewRegistry()
	events := gc.events(reg)
	route := gc.route(reg)
	want := refRun(t, reg, gc.text, route, distShards, events)

	cl := startCluster(t, reg, 2)
	st := cl.c.OpenStream()
	type sub struct {
		h   *QueryHandle
		got func() []string
	}
	var subs []sub
	for i := 0; i < 3; i++ {
		// All three use the same name: canon embeds it, and each query's
		// output must be byte-identical to the single-query reference.
		h, got := distSubmitStream(t, cl.c, st, gc.name, gc.text, route, distShards)
		subs = append(subs, sub{h: h, got: got})
	}
	// Page staging only covers shards that are already recovered on
	// their owner; wait so the whole stream is dedup-eligible.
	waitUntil(t, "shards ready", func() bool {
		cl.c.mu.Lock()
		defer cl.c.mu.Unlock()
		for _, q := range cl.c.queries {
			for _, s := range q.shards {
				if s.owner == nil || !s.ready {
					return false
				}
			}
		}
		return true
	})
	const chunk = 250
	for off := 0; off < len(events); off += chunk {
		end := min(off+chunk, len(events))
		if err := st.FeedBatch(events[off:end]); err != nil {
			t.Fatalf("stream feed: %v", err)
		}
	}
	st.Close()
	for i, s := range subs {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := s.h.Wait(ctx); err != nil {
			t.Fatalf("wait query %d: %v", i, err)
		}
		cancel()
		compareRuns(t, fmt.Sprintf("stream query %d", i), want, s.got())
	}

	var deduped uint64
	for _, ls := range cl.c.Stats() {
		deduped += ls.EventsDeduped
	}
	if deduped == 0 {
		t.Fatal("no events deduplicated across the shared stream")
	}
	var workerDeduped uint64
	for _, w := range cl.workers {
		workerDeduped += w.Stats().EventsDeduped
	}
	if workerDeduped == 0 {
		t.Fatal("workers expanded no page references")
	}
	t.Logf("deduped %d events coordinator-side, %d page-ref expansions worker-side", deduped, workerDeduped)

	// Direct feeds must be rejected on stream-attached queries.
	if err := subs[0].h.Feed(events[0]); err == nil {
		t.Fatal("direct feed on a stream-attached query succeeded")
	}
}

// TestSharedStreamPlacement: Submit spreads each stream-attached query's
// shards over the workers by load, and co-locates the next query's
// shards with the first's (so their pages dedup) — it never stacks a
// query on one worker for a later move to undo.
func TestSharedStreamPlacement(t *testing.T) {
	gc := goldenCases[0]
	reg := event.NewRegistry()
	route := gc.route(reg)
	cl := startCluster(t, reg, 2)
	st := cl.c.OpenStream()
	for i := 0; i < 2; i++ {
		distSubmitStream(t, cl.c, st, fmt.Sprintf("%s%d", gc.name, i), gc.text, route, distShards)
	}
	cl.c.mu.Lock()
	defer cl.c.mu.Unlock()
	for _, q := range st.queries {
		owned := map[uint32]int{}
		for i, s := range q.shards {
			owned[s.owner.id]++
			if first := st.queries[0].shards[i].owner; s.owner != first {
				t.Fatalf("%s shard %d on worker %d, the first query's on %d", q.name, i, s.owner.id, first.id)
			}
		}
		for _, w := range cl.workers {
			if owned[w.ID()] != distShards/2 {
				t.Fatalf("%s: worker %d owns %d of %d shards at submit: %v", q.name, w.ID(), owned[w.ID()], distShards, owned)
			}
		}
	}
}

// distSubmitStream is distSubmit with the submission attached to a
// shared stream.
func distSubmitStream(t *testing.T, c *Coordinator, st *Stream, name, text string, route func(*event.Event) int, nShards int) (*QueryHandle, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var out []string
	h, err := c.Submit(context.Background(), Submission{
		Name:    name,
		Text:    text,
		NShards: nShards,
		Route:   route,
		Stream:  st,
		Emit: func(m event.Complex) {
			mu.Lock()
			out = append(out, canon(m))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("stream submit: %v", err)
	}
	return h, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), out...)
	}
}
