package core

import (
	"testing"

	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/window"
)

// rollShard builds a single-shard state over one 64-event count window
// of A events (every A starts a run, so every position is Used), plus a
// version of that window that suppresses a synthetic consumption group.
func rollShard(t *testing.T) (*shardState, *deptree.WindowVersion, *deptree.CG) {
	t.Helper()
	reg := event.NewRegistry()
	ta, tb := reg.TypeID("A"), reg.TypeID("B")
	p := pattern.Seq("roll",
		pattern.Step{Name: "A", Types: []event.Type{ta}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Consume: true},
	)
	q := &pattern.Query{
		Name:    "roll",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartEvery, Every: 64,
			EndKind: pattern.EndCount, Count: 64,
		},
	}
	prog, err := compile(q, Config{
		Instances:             1,
		ConsistencyCheckEvery: 1 << 20, // only explicit checks
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog)
	if err != nil {
		t.Fatal(err)
	}
	var win *window.Window
	for i := 0; i < 64; i++ {
		seq := s.ar.Append(event.Event{TS: int64(i), Type: ta})
		opened, _ := s.winMgr.Observe(s.ar.Get(seq))
		if len(opened) > 0 {
			win = opened[0]
		}
	}
	// The test is the splitter: it read the events, so the slots may.
	s.cursor = s.ar.Len()
	s.ingested.Store(s.cursor)
	if win == nil {
		t.Fatal("window manager opened no window")
	}
	owner := deptree.NewWindowVersion(999, win, nil)
	cg := deptree.NewCG(1, owner, 0, 1)
	wv := s.newVersion(win, []*deptree.CG{cg})
	return s, wv, cg
}

// TestRollbackRestartsAtWindowStart forces the consistency-violation path
// deterministically: the version processes (and Uses) a prefix, then the
// suppressed group claims an already-used event. The rollback must restart
// the version at its window start (paper Fig. 8), and the replay must skip
// the now-suppressed position.
func TestRollbackRestartsAtWindowStart(t *testing.T) {
	s, wv, cg := rollShard(t)
	w := s.split

	wv.Mu.Lock()
	defer wv.Mu.Unlock()
	if !w.processSpan(wv, 32) {
		t.Fatal("no progress")
	}
	if got := wv.Pos(); got != 32 {
		t.Fatalf("pos = %d, want 32", got)
	}
	if len(wv.Used) != 32 {
		t.Fatalf("used %d positions, want 32 (every A starts a run)", len(wv.Used))
	}

	cg.Add(10)
	if w.consistencyCheck(wv) {
		t.Fatal("consistency check must fail once the group claims a used event")
	}
	w.rollback(wv)
	if got := wv.Pos(); got != wv.Win.StartSeq {
		t.Fatalf("rolled back to %d, want window start %d", got, wv.Win.StartSeq)
	}
	if len(wv.Used) != 0 || len(wv.Skipped) != 0 {
		t.Fatalf("rollback kept bookkeeping: used=%d skipped=%d", len(wv.Used), len(wv.Skipped))
	}
	if m := s.metrics.snapshot(); m.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", m.Rollbacks)
	}

	for w.processSpan(wv, 1<<20) && !wv.Finished() {
	}
	if !wv.Finished() {
		t.Fatal("version did not finish after rollback")
	}
	if !containsSorted(wv.Skipped, 10) {
		t.Fatalf("position 10 must be speculatively skipped after the group claimed it (skipped=%v)", wv.Skipped)
	}
	if containsSorted(wv.Used, 10) {
		t.Fatal("position 10 must not be re-used after rollback")
	}
}
