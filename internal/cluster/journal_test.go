package cluster

// The coordinator as each shard's only journal: retention is cut at every
// root pop, and moving a shard is a reassignment from its latest cut —
// whether the move follows a join, a kill, or goes away and straight back.

import (
	"fmt"
	"testing"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/event"
)

// retention reports the largest per-shard count of live retained events
// and of live merge position entries across every running query.
func retention(c *Coordinator) (events, positions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, q := range c.queries {
		for i, s := range q.shards {
			events = max(events, s.retained.live())
			positions = max(positions, q.merge.shards[i].gpos.live())
		}
	}
	return events, positions
}

// TestCoordinatorRetentionBounded: once the workers have caught up with
// the feed, what the coordinator keeps of each shard — retained events
// and merge position entries — spans from the shard's latest cut to the
// end of its substream, whatever the stream's length. With a root window
// open that span is under one window (golden Q1: 200 of the shard's
// positions), since a root unfinished once caught up reaches past what
// was routed. With none open, the last cut is a grid cut (every 1024
// positions in the core) under 1024 positions back. The bound is their
// sum, the same at both lengths.
func TestCoordinatorRetentionBounded(t *testing.T) {
	const (
		windowSize = 200  // golden Q1: WITHIN 200 EVENTS
		idleGrid   = 1024 // core's grid of cuts between windows
	)
	bound := windowSize + idleGrid
	tc := goldenCases[0]
	for _, n := range []int{20000, 80000} {
		t.Run(fmt.Sprintf("events=%d", n), func(t *testing.T) {
			reg := event.NewRegistry()
			events := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: n / 40, Seed: 11})
			route := tc.route(reg)
			cl := startCluster(t, reg, 2)
			h, _ := distSubmit(t, cl.c, tc.name, tc.text, route, distShards)
			feedAll(t, h, events)
			var evs, pos int
			waitUntil(t, fmt.Sprintf("retention under %d per shard", bound), func() bool {
				evs, pos = retention(cl.c)
				return evs < bound && pos < bound
			})
			t.Logf("%d events: at most %d retained events and %d position entries per shard", len(events), evs, pos)
			drain(t, h)
		})
	}
}

// migrationCases are the golden queries the migration tests run: Q1,
// and QE, whose cuts carry consumed runs.
func migrationCases() []goldenCase { return []goldenCase{goldenCases[0], goldenCases[3]} }

// readyOn reports whether w owns want shards, every one of them ready.
func readyOn(c *Coordinator, w *Worker, want int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, q := range c.queries {
		for _, s := range q.shards {
			if s.owner != nil && s.owner.id == w.ID() {
				if !s.ready {
					return false
				}
				n++
			}
		}
	}
	return n == want
}

// TestDistributedMigrateThenKill: a join moves half the shards to the new
// worker, which is killed mid-stream; its shards go back to the first
// worker from their latest cuts, and the output is byte-identical.
func TestDistributedMigrateThenKill(t *testing.T) {
	for _, tc := range migrationCases() {
		t.Run(tc.name, func(t *testing.T) {
			reg := event.NewRegistry()
			events := tc.events(reg)
			route := tc.route(reg)
			want := refRun(t, reg, tc.text, route, distShards, events)

			cl := startCluster(t, reg, 1)
			h, got := distSubmit(t, cl.c, tc.name, tc.text, route, distShards)
			third := len(events) / 3
			feedAll(t, h, events[:third])
			waitUntil(t, "output before the join", func() bool { return len(got()) > 0 })

			w2 := cl.addWorker(t)
			waitUntil(t, "half the shards running on the joined worker", func() bool { return readyOn(cl.c, w2, distShards/2) })
			feedAll(t, h, events[third:2*third])

			w2.Close()
			waitUntil(t, "every shard back on the first worker", func() bool { return readyOn(cl.c, cl.workers[0], distShards) })
			feedAll(t, h, events[2*third:])
			drain(t, h)
			compareRuns(t, tc.name+" migrate then kill", want, got())
		})
	}
}

// TestDistributedMigrateBack: shards move to the other worker and
// straight back, before the first abort can have drained, twice
// mid-stream. The back move is assigned on the link that is still
// aborting the shard's previous run: the worker must take it, and the
// coordinator must ignore that run's late frames. No link may be lost,
// and the output is byte-identical.
func TestDistributedMigrateBack(t *testing.T) {
	for _, tc := range migrationCases() {
		t.Run(tc.name, func(t *testing.T) {
			reg := event.NewRegistry()
			events := tc.events(reg)
			route := tc.route(reg)
			want := refRun(t, reg, tc.text, route, distShards, events)

			cl := startCluster(t, reg, 2)
			h, got := distSubmit(t, cl.c, tc.name, tc.text, route, distShards)
			third := len(events) / 3
			for part := 0; part < 2; part++ {
				feedAll(t, h, events[part*third:(part+1)*third])
				waitUntil(t, "output before the moves", func() bool { return len(got()) > 0 })
				for _, w := range cl.workers {
					waitUntil(t, "every shard running", func() bool { return readyOn(cl.c, w, distShards/2) })
				}
				cl.c.mu.Lock()
				for _, q := range cl.c.queries {
					for idx, s := range q.shards {
						home := s.owner
						away := cl.c.workers[cl.workers[0].ID()]
						if home == away {
							away = cl.c.workers[cl.workers[1].ID()]
						}
						cl.c.moveShard(q, idx, away)
						cl.c.moveShard(q, idx, home)
					}
				}
				cl.c.mu.Unlock()
			}
			feedAll(t, h, events[2*third:])
			drain(t, h)
			compareRuns(t, tc.name+" migrate back", want, got())
			if n := cl.c.Workers(); n != 2 {
				t.Fatalf("%d workers joined after the moves, want 2: a link was lost", n)
			}
		})
	}
}
