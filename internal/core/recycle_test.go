package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/stream"
	"github.com/spectrecep/spectre/internal/window"
)

// hasGroup reports whether a vertex of cg lies under n.
func hasGroup(n *deptree.Node, cg *deptree.CG) bool {
	if n == nil {
		return false
	}
	if n.IsWV() {
		return hasGroup(n.Child(), cg)
	}
	return n.CG == cg || hasGroup(n.Edge(deptree.AbandonEdge), cg) || hasGroup(n.Edge(deptree.CompletionEdge), cg)
}

// TestVersionRecycleWaitsForSlot drives one shard by hand through the
// interleaving that recycling must survive. A slot claims the version of
// window 1 on the abandon edge of the root's group and, mid-batch, opens
// a run: the group's creation message names the version. Before the
// batch ends, the root completes its match and the splitter drops the
// version. It must stay out of the free list while the claim is held,
// and after the claim is released until a later cycle has applied the
// batch's feedback. Applied in time, the stale creation inserts nothing;
// applied to a recycled version, it would hang a group nobody resolves
// under another window.
func TestVersionRecycleWaitsForSlot(t *testing.T) {
	reg := event.NewRegistry()
	ta, tb, tc := reg.TypeID("A"), reg.TypeID("B"), reg.TypeID("C")
	p := pattern.Seq("recycle",
		pattern.Step{Name: "A", Types: []event.Type{ta}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Consume: true},
	)
	q := &pattern.Query{
		Name:    "recycle",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartEvery, Every: 4,
			EndKind: pattern.EndCount, Count: 8,
		},
	}
	// Window 0 is A C B C A C C C; window 1 starts at the second A.
	types := []event.Type{ta, tc, tb, tc, ta, tc, tc, tc, tb, tc, tc, tc}
	events := make([]event.Event, len(types))
	for i, ty := range types {
		events[i] = event.Event{Seq: uint64(i), TS: int64(i), Type: ty}
	}
	prog, err := compile(q, Config{
		Instances: 3, BatchSize: 1, IngestBatch: 8, horizon: 64,
		ConsistencyCheckEvery: 1 << 20, PlanDisabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog)
	if err != nil {
		t.Fatal(err)
	}
	var got []event.Complex
	s.begin(func(ce event.Complex) { got = append(got, ce) })
	feedShard(s, events, false)

	// The root's A opens its group; the next cycle forks window 1 on it.
	s.splitCycle()
	root := s.tree.Root().WV
	s.slotStep(root.ScheduledOn())
	s.splitCycle()
	cgNode := s.tree.Root().Child()
	if cgNode == nil || cgNode.IsWV() {
		t.Fatal("setup: the root's group has no vertex")
	}
	g0 := cgNode.CG
	wv := cgNode.Edge(deptree.AbandonEdge).WV
	i := wv.ScheduledOn()
	if i < 0 {
		t.Fatal("setup: the abandon-edge version holds no slot")
	}

	// A slot claims the version and processes its first event, the A at 4,
	// which opens a group the version owns. The batch is not over.
	sl := &s.slots[i]
	if !sl.claim() || sl.wv.Load() != wv {
		t.Fatal("setup: could not claim the version's slot")
	}
	wv.Mu.Lock()
	w := sl.w
	w.msgs = w.msgs[:0]
	w.processSpan(wv, 1)
	if len(w.msgs) != 1 || w.msgs[0].kind != msgCGCreated || w.msgs[0].cg.Owner != wv {
		t.Fatalf("setup: the batch must create one group of the version, messages %+v", w.msgs)
	}
	g1 := w.msgs[0].cg

	// The root completes A B: its group completes and the splitter drops
	// the abandon edge, the claimed version with it.
	for n := 0; g0.Outcome() == deptree.CGOpen; n++ {
		if n > 10 {
			t.Fatal("setup: the root's match did not complete")
		}
		s.slotStep(root.ScheduledOn())
	}
	s.splitCycle()
	if !wv.Dropped() || sl.wv.Load() == wv {
		t.Fatal("the version must be dropped and unassigned")
	}
	for cycle := 0; cycle < 4; cycle++ {
		s.step()
		if slices.Contains(s.freeVersions, wv) || wv.Win == nil {
			t.Fatalf("cycle %d: a version was released while a slot's claim on it was held", cycle)
		}
	}

	// The batch ends as slotStep ends it: feedback pushed under the lock,
	// then the claim released.
	s.fq.push(w.msgs)
	wv.Mu.Unlock()
	sl.release()
	if slices.Contains(s.freeVersions, wv) {
		t.Fatal("the version was released before a cycle applied the batch's feedback")
	}
	s.splitCycle()
	if !slices.Contains(s.freeVersions, wv) || wv.Win != nil || wv.Suppressed != nil {
		t.Fatal("the cycle that applied the batch's feedback must release the version, poisoned")
	}
	if hasGroup(s.tree.Root(), g1) {
		t.Fatal("the dropped version's stale group creation inserted a vertex")
	}
	if err := s.tree.Check(); err != nil {
		t.Fatal(err)
	}

	s.closeIntake()
	stop := time.Now().Add(10 * time.Second)
	for !s.finished.Load() {
		if time.Now().After(stop) {
			t.Fatal("the shard did not drain")
		}
		s.step()
	}
	assertSameOutput(t, "driven", got, runSequential(t, q, events))
}

// TestRecycleRiseEquivalence runs the README rise query — CONSUME ALL,
// so most window versions are dropped or popped and their memory
// recycled — at k = 1, 2 and 4, concurrently on an Engine and driven
// single-threaded. Both must equal the sequential engine; the driven
// shard must actually have reused versions, and hold at most one cycle's
// departures in limbo.
func TestRecycleRiseEquivalence(t *testing.T) {
	reg := event.NewRegistry()
	events := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 20, Leaders: 3, Minutes: 400, Seed: 9})
	q, err := parser.Parse(riseQuery, reg)
	if err != nil {
		t.Fatal(err)
	}
	want := runSequential(t, q, events)
	if len(want) == 0 {
		t.Fatal("the rise query produced no matches; test is vacuous")
	}
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cfg := Config{Instances: k, BatchSize: 16, IngestBatch: 64}
			eng, err := New(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var got []event.Complex
			if err := eng.Run(ctx, stream.FromSlice(events), func(ce event.Complex) { got = append(got, ce) }); err != nil {
				t.Fatal(err)
			}
			assertSameOutput(t, "engine", got, want)

			prog, err := compile(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := newShard(prog)
			if err != nil {
				t.Fatal(err)
			}
			distinct := map[*deptree.WindowVersion]bool{}
			created := 0
			s.tree.NewVersion = func(win *window.Window, sup []*deptree.CG) *deptree.WindowVersion {
				wv := s.newVersion(win, sup)
				distinct[wv] = true
				created++
				return wv
			}
			got = got[:0]
			s.begin(func(ce event.Complex) { got = append(got, ce) })
			feedShard(s, events, true)
			stop := time.Now().Add(60 * time.Second)
			for !s.finished.Load() {
				if time.Now().After(stop) {
					t.Fatal("the driven shard did not drain")
				}
				s.step()
				// Driven single-threaded, no claim outlives a step: a
				// cycle's departures are free by the end of the next.
				if len(s.limbo) > 1 {
					t.Fatalf("%d limbo batches after a step, want at most 1", len(s.limbo))
				}
			}
			assertSameOutput(t, "driven", got, want)
			if len(distinct) >= created {
				t.Fatalf("%d versions created from %d objects: none was recycled", created, len(distinct))
			}
		})
	}
}
