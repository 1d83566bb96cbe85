package matcher

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
)

// mk builds a typed event with a sequence number.
func mk(seq uint64, t event.Type) *event.Event {
	return &event.Event{Seq: seq, Type: t}
}

func kinds(fb []Feedback) []FeedbackKind {
	out := make([]FeedbackKind, len(fb))
	for i := range fb {
		out[i] = fb[i].Kind
	}
	return out
}

func compileSeq(t *testing.T, sel pattern.SelectionPolicy, steps ...pattern.Step) *Compiled {
	t.Helper()
	p := pattern.Seq("t", steps...)
	p.Selection = sel
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSequenceLifecycle(t *testing.T) {
	ta, tb, tc := event.Type(1), event.Type(2), event.Type(3)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 1, OnCompletion: pattern.StopAfterMatch},
		pattern.Step{Name: "A", Types: []event.Type{ta}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Consume: true},
		pattern.Step{Name: "C", Types: []event.Type{tc}, Consume: true},
	)
	if c.MinLength() != 3 {
		t.Fatalf("min length = %d, want 3", c.MinLength())
	}
	s := c.NewState()

	fb := s.Process(mk(0, ta), nil)
	if len(fb) != 1 || fb[0].Kind != RunStarted || !fb[0].Consumable {
		t.Fatalf("A feedback = %v", kinds(fb))
	}
	if fb[0].PrevDelta != 3 || fb[0].Delta != 2 {
		t.Fatalf("A deltas = %d→%d, want 3→2", fb[0].PrevDelta, fb[0].Delta)
	}

	// A non-matching event is skipped silently (skip-till-next-match).
	fb = s.Process(mk(1, event.Type(9)), nil)
	if len(fb) != 0 {
		t.Fatalf("non-matching event produced feedback %v", kinds(fb))
	}

	fb = s.Process(mk(2, tb), nil)
	if len(fb) != 1 || fb[0].Kind != EventBound || fb[0].Delta != 1 {
		t.Fatalf("B feedback = %+v", fb)
	}

	fb = s.Process(mk(3, tc), nil)
	if len(fb) != 1 || fb[0].Kind != RunCompleted {
		t.Fatalf("C feedback = %v", kinds(fb))
	}
	m := fb[0].Match
	if len(m.Constituents) != 3 || len(m.Consumed) != 3 {
		t.Fatalf("match = %d constituents / %d consumed, want 3/3", len(m.Constituents), len(m.Consumed))
	}
	if m.CompletedAt.Seq != 3 {
		t.Fatalf("completed at %d, want 3", m.CompletedAt.Seq)
	}
	if !s.Stopped() {
		t.Fatal("stop-after-match must stop the window")
	}
	// Further events do nothing.
	if fb = s.Process(mk(4, ta), nil); len(fb) != 0 {
		t.Fatalf("stopped state still reacts: %v", kinds(fb))
	}
}

func TestWindowEndAbandons(t *testing.T) {
	ta, tb := event.Type(1), event.Type(2)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 1},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}},
	)
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	fb := s.WindowEnd(nil)
	if len(fb) != 1 || fb[0].Kind != RunAbandoned {
		t.Fatalf("window end feedback = %v", kinds(fb))
	}
	if s.OpenRuns() != 0 {
		t.Fatal("window end must clear all runs")
	}
}

func TestCloneIndependence(t *testing.T) {
	ta, tb := event.Type(1), event.Type(2)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 1},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}},
	)
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	cl := s.Clone()

	fb := s.Process(mk(1, tb), nil)
	if len(fb) != 1 || fb[0].Kind != RunCompleted {
		t.Fatal("original must complete")
	}
	// The clone still waits for B.
	if cl.OpenRuns() != 1 {
		t.Fatal("clone must keep its own open run")
	}
	fb = cl.Process(mk(2, tb), nil)
	if len(fb) != 1 || fb[0].Kind != RunCompleted {
		t.Fatal("clone must complete independently")
	}
}

func TestKleeneAdvanceFirst(t *testing.T) {
	ta, tb, tc := event.Type(1), event.Type(2), event.Type(3)
	// B's filter also matches C-typed events (overlapping predicates):
	// with at least one B bound, advance-first must prefer moving to C.
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 1},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb, tc}, Quant: pattern.OneOrMore},
		pattern.Step{Name: "C", Types: []event.Type{tc}},
	)
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	s.Process(mk(1, tb), nil) // first B
	fb := s.Process(mk(2, tc), nil)
	if len(fb) != 1 || fb[0].Kind != RunCompleted {
		t.Fatalf("advance-first should complete on the ambiguous event, got %v", kinds(fb))
	}
	if got := len(fb[0].Match.Constituents); got != 3 {
		t.Fatalf("constituents = %d, want 3 (A, one B, C)", got)
	}
}

func TestKleeneDeltaStable(t *testing.T) {
	ta, tb, tc := event.Type(1), event.Type(2), event.Type(3)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 1},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Quant: pattern.OneOrMore},
		pattern.Step{Name: "C", Types: []event.Type{tc}},
	)
	s := c.NewState()
	fb := s.Process(mk(0, ta), nil)
	if fb[0].Delta != 2 {
		t.Fatalf("δ after A = %d, want 2 (B+ needs ≥1, C needs 1)", fb[0].Delta)
	}
	fb = s.Process(mk(1, tb), nil)
	if fb[0].Delta != 1 {
		t.Fatalf("δ after first B = %d, want 1", fb[0].Delta)
	}
	// Additional B's must not advance completion (paper: "the Kleene+
	// implies that many events can match while the pattern completion
	// does not progress").
	fb = s.Process(mk(2, tb), nil)
	if fb[0].Delta != 1 || fb[0].PrevDelta != 1 {
		t.Fatalf("δ after second B = %d→%d, want 1→1", fb[0].PrevDelta, fb[0].Delta)
	}
}

func TestRestartAfterLeaderCarry(t *testing.T) {
	ta, tb := event.Type(1), event.Type(2)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 1, OnCompletion: pattern.RestartAfterLeader},
		pattern.Step{Name: "A", Types: []event.Type{ta}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{tb}},
	)
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	fb := s.Process(mk(1, tb), nil)
	// The match consumes the leader itself, so the run cannot restart:
	// only the completion is reported and the run dies.
	if len(fb) != 1 || fb[0].Kind != RunCompleted {
		t.Fatalf("feedback = %v, want only [completed] (leader consumed)", kinds(fb))
	}
	if s.OpenRuns() != 0 {
		t.Fatal("leader was consumed by the match; the run must not survive")
	}
}

func TestRestartAfterLeaderKeepsUnconsumedLeader(t *testing.T) {
	ta, tb := event.Type(1), event.Type(2)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 1, OnCompletion: pattern.RestartAfterLeader},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Consume: true},
	)
	s := c.NewState()
	s.Process(mk(0, ta), nil)

	fb := s.Process(mk(1, tb), nil)
	if len(fb) != 2 || fb[0].Kind != RunCompleted || fb[1].Kind != RunStarted {
		t.Fatalf("feedback = %v", kinds(fb))
	}
	if len(fb[1].Carry) != 0 {
		t.Fatal("unconsumed leader is not consumable; carry must be empty")
	}
	if s.OpenRuns() != 1 {
		t.Fatal("run must survive with the retained leader")
	}
	fb = s.Process(mk(2, tb), nil)
	if len(fb) != 2 || fb[0].Kind != RunCompleted {
		t.Fatalf("second B must complete again, got %v", kinds(fb))
	}
	m := fb[0].Match
	if len(m.Constituents) != 2 || m.Constituents[0].Seq != 0 || m.Constituents[1].Seq != 2 {
		t.Fatalf("second match = %v, want A(0) B(2)", m.Constituents)
	}
}

func TestMaxConcurrentRuns(t *testing.T) {
	ta, tb := event.Type(1), event.Type(2)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 2, OnCompletion: pattern.RestartFresh},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}},
	)
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	s.Process(mk(1, ta), nil)
	fb := s.Process(mk(2, ta), nil)
	if len(fb) != 0 || s.OpenRuns() != 2 {
		t.Fatalf("third A must not start a run (cap 2): fb=%v runs=%d", kinds(fb), s.OpenRuns())
	}
	// One B completes both runs (the same event extends every open run).
	fb = s.Process(mk(3, tb), nil)
	completed := 0
	for _, f := range fb {
		if f.Kind == RunCompleted {
			completed++
		}
	}
	if completed != 2 {
		t.Fatalf("B completed %d runs, want 2", completed)
	}
}

func TestAbandonRunsUsing(t *testing.T) {
	ta, tb := event.Type(1), event.Type(2)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 0, OnCompletion: pattern.RestartFresh},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}},
	)
	s := c.NewState()
	s.Process(mk(5, ta), nil)
	s.Process(mk(7, ta), nil)
	fb := s.AbandonRunsUsing([]uint64{5}, nil)
	if len(fb) != 1 || fb[0].Kind != RunAbandoned {
		t.Fatalf("feedback = %v, want one abandon", kinds(fb))
	}
	if s.OpenRuns() != 1 {
		t.Fatalf("open runs = %d, want 1", s.OpenRuns())
	}
}

func TestSetOutOfOrderAndDuplicates(t *testing.T) {
	ta := event.Type(1)
	x1, x2, x3 := event.Type(11), event.Type(12), event.Type(13)
	p := &pattern.Pattern{
		Name: "set",
		Elements: []pattern.Element{
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "A", Types: []event.Type{ta}}},
			{Kind: pattern.ElemSet, Set: []pattern.Step{
				{Name: "X1", Types: []event.Type{x1}},
				{Name: "X2", Types: []event.Type{x2}},
				{Name: "X3", Types: []event.Type{x3}},
			}},
		},
		Selection: pattern.SelectionPolicy{MaxConcurrentRuns: 1},
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.MinLength() != 4 {
		t.Fatalf("min length = %d, want 4", c.MinLength())
	}
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	fb := s.Process(mk(1, x3), nil)
	if fb[0].Delta != 2 {
		t.Fatalf("δ after one member = %d, want 2", fb[0].Delta)
	}
	// A duplicate member does not bind again.
	fb = s.Process(mk(2, x3), nil)
	if len(fb) != 0 {
		t.Fatalf("duplicate member bound: %v", kinds(fb))
	}
	s.Process(mk(3, x1), nil)
	fb = s.Process(mk(4, x2), nil)
	if len(fb) != 1 || fb[0].Kind != RunCompleted {
		t.Fatalf("set completion feedback = %v", kinds(fb))
	}
	if got := len(fb[0].Match.Constituents); got != 4 {
		t.Fatalf("constituents = %d, want 4", got)
	}
}

func TestNegationGuardBinderAccess(t *testing.T) {
	ta, tb, tx := event.Type(1), event.Type(2), event.Type(3)
	// The negation only fires when the X event's seq is greater than the
	// bound A's seq + 1 (a predicate over the binder).
	fieldless := func(ev *event.Event, b pattern.Binder) bool {
		bound := b.Bound(0)
		return len(bound) > 0 && ev.Seq > bound[0].Seq+1
	}
	p := &pattern.Pattern{
		Name: "guard",
		Elements: []pattern.Element{
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "A", Types: []event.Type{ta}}},
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "X", Types: []event.Type{tx}, Negated: true, Pred: fieldless}},
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "B", Types: []event.Type{tb}}},
		},
		Selection: pattern.SelectionPolicy{MaxConcurrentRuns: 1},
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// X at seq 1 does not satisfy the guard predicate → run survives.
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	if fb := s.Process(mk(1, tx), nil); len(fb) != 0 {
		t.Fatalf("guard fired too early: %v", kinds(fb))
	}
	if fb := s.Process(mk(2, tb), nil); len(fb) != 1 || fb[0].Kind != RunCompleted {
		t.Fatal("run must complete")
	}
	// X at seq 2 satisfies the guard → abandon.
	s = c.NewState()
	s.Process(mk(0, ta), nil)
	if fb := s.Process(mk(2, tx), nil); len(fb) != 1 || fb[0].Kind != RunAbandoned {
		t.Fatalf("guard must abandon, got %v", kinds(fb))
	}
}

func TestTrailingNegationRejected(t *testing.T) {
	ta, tx := event.Type(1), event.Type(2)
	p := &pattern.Pattern{
		Name: "bad",
		Elements: []pattern.Element{
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "A", Types: []event.Type{ta}}},
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "X", Types: []event.Type{tx}, Negated: true}},
		},
	}
	if _, err := Compile(p); err == nil {
		t.Fatal("trailing negation must be rejected")
	}
}

func TestFinalKleeneMinimumMatch(t *testing.T) {
	ta, tb := event.Type(1), event.Type(2)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 1},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Quant: pattern.OneOrMore},
	)
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	fb := s.Process(mk(1, tb), nil)
	if len(fb) == 0 || fb[len(fb)-1].Kind != RunCompleted {
		t.Fatalf("final Kleene must complete on its first binding, got %v", kinds(fb))
	}
}

func TestRunsSnapshot(t *testing.T) {
	ta, tb := event.Type(1), event.Type(2)
	c := compileSeq(t,
		pattern.SelectionPolicy{MaxConcurrentRuns: 0, OnCompletion: pattern.RestartFresh},
		pattern.Step{Name: "A", Types: []event.Type{ta}},
		pattern.Step{Name: "B", Types: []event.Type{tb}},
	)
	s := c.NewState()
	s.Process(mk(0, ta), nil)
	s.Process(mk(1, ta), nil)
	infos := s.Runs(nil)
	if len(infos) != 2 {
		t.Fatalf("runs = %d, want 2", len(infos))
	}
	for _, ri := range infos {
		if ri.Delta != 1 {
			t.Fatalf("run %d δ = %d, want 1", ri.ID, ri.Delta)
		}
		if got := s.RunDelta(ri.ID); got != 1 {
			t.Fatalf("RunDelta(%d) = %d, want 1", ri.ID, got)
		}
	}
	if s.RunDelta(999) != -1 {
		t.Fatal("unknown run must report -1")
	}
}

// fbKey renders one feedback for byte-exact comparison.
func fbKey(f Feedback) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s run=%d cons=%t %d->%d", f.Kind, f.Run, f.Consumable, f.PrevDelta, f.Delta)
	if f.Event != nil {
		fmt.Fprintf(&b, " ev=%d", f.Event.Seq)
	}
	for _, c := range f.Carry {
		fmt.Fprintf(&b, " carry=%d", c.Seq)
	}
	if f.Match != nil {
		b.WriteString(" match=[")
		for _, c := range f.Match.Constituents {
			fmt.Fprintf(&b, "%d,", c.Seq)
		}
		b.WriteString("] consumed=[")
		for _, c := range f.Match.Consumed {
			fmt.Fprintf(&b, "%d,", c.Seq)
		}
		b.WriteString("]")
	}
	return b.String()
}

// TestCloneForkEquivalence is the fork-correctness property of Clone: a
// state cloned mid-stream and fed the identical suffix must produce
// byte-identical feedback and matches. Random patterns, selection
// policies and streams.
func TestCloneForkEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		types := []event.Type{1, 2, 3, 4}
		nSteps := 2 + rng.Intn(3)
		steps := make([]pattern.Step, 0, nSteps)
		for i := 0; i < nSteps; i++ {
			st := pattern.Step{
				Name:    fmt.Sprintf("S%d", i),
				Types:   []event.Type{types[rng.Intn(len(types))]},
				Consume: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				st.Quant = pattern.OneOrMore
			}
			if i > 0 && i < nSteps-1 && rng.Intn(5) == 0 {
				st.Negated = true
				st.Quant = pattern.One
				st.Consume = false
			}
			steps = append(steps, st)
		}
		positives := 0
		for i := range steps {
			if !steps[i].Negated {
				positives++
			}
		}
		if positives < 2 {
			steps[0].Negated = false
			steps[len(steps)-1].Negated = false
		}
		p := pattern.Seq("fork", steps...)
		p.Selection = pattern.SelectionPolicy{
			MaxConcurrentRuns: rng.Intn(3),
			OnCompletion:      pattern.CompletionBehavior(1 + rng.Intn(3)),
		}
		if p.Selection.OnCompletion == pattern.RestartAfterLeader {
			steps[0].Quant = pattern.One
			steps[0].Negated = false
			p = pattern.Seq("fork", steps...)
			p.Selection = pattern.SelectionPolicy{MaxConcurrentRuns: 1, OnCompletion: pattern.RestartAfterLeader}
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		n := 200 + rng.Intn(200)
		split := rng.Intn(n)
		s := c.NewState()
		var fork *State
		for i := 0; i < n; i++ {
			if i == split {
				fork = s.Clone()
				if fork.OpenRuns() != s.OpenRuns() {
					t.Fatalf("seed %d: clone has %d runs, original %d", seed, fork.OpenRuns(), s.OpenRuns())
				}
			}
			ev := mk(uint64(i), types[rng.Intn(len(types))])
			got := s.Process(ev, nil)
			if fork == nil {
				continue
			}
			want := fork.Process(ev, nil)
			if len(got) != len(want) {
				t.Fatalf("seed %d ev %d: original %d feedback, fork %d", seed, i, len(got), len(want))
			}
			for j := range got {
				if g, w := fbKey(got[j]), fbKey(want[j]); g != w {
					t.Fatalf("seed %d ev %d fb %d:\noriginal: %s\n    fork: %s", seed, i, j, g, w)
				}
			}
			if s.Stopped() != fork.Stopped() || s.OpenRuns() != fork.OpenRuns() {
				t.Fatalf("seed %d ev %d: state diverged (stopped %t/%t, runs %d/%d)",
					seed, i, s.Stopped(), fork.Stopped(), s.OpenRuns(), fork.OpenRuns())
			}
		}
		if fork == nil {
			continue
		}
		a := s.WindowEnd(nil)
		b := fork.WindowEnd(nil)
		if len(a) != len(b) {
			t.Fatalf("seed %d: window end diverged (%d vs %d abandons)", seed, len(a), len(b))
		}
		for j := range a {
			if fbKey(a[j]) != fbKey(b[j]) {
				t.Fatalf("seed %d window-end fb %d: %s vs %s", seed, j, fbKey(a[j]), fbKey(b[j]))
			}
		}
	}
}

// tablePattern covers every kind of flat index: a plain leader, a Kleene
// step, a negation guard before a set, set members, a guard before a
// plain step and the final step, with per-step consumption. Every step
// has its own type, so a bound event's type names its step.
func tablePattern() *pattern.Pattern {
	return &pattern.Pattern{
		Name: "table",
		Elements: []pattern.Element{
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "A", Types: []event.Type{1}, Consume: true}},
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "B", Types: []event.Type{2}, Quant: pattern.OneOrMore}},
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "N", Types: []event.Type{3}, Negated: true}},
			{Kind: pattern.ElemSet, Set: []pattern.Step{
				{Name: "X1", Types: []event.Type{4}, Consume: true},
				{Name: "X2", Types: []event.Type{5}},
				{Name: "X3", Types: []event.Type{6}, Consume: true},
			}},
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "M", Types: []event.Type{7}, Negated: true}},
			{Kind: pattern.ElemStep, Step: pattern.Step{Name: "C", Types: []event.Type{8}, Consume: true}},
		},
		Selection: pattern.SelectionPolicy{OnCompletion: pattern.RestartFresh},
	}
}

// TestFlatStepTable checks the compiled flat-index table against a
// reference scan of Pattern.FlatSteps, and that every bind feedback's
// Consumable flag is its step's Consume flag.
func TestFlatStepTable(t *testing.T) {
	p := tablePattern()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	flat := p.FlatSteps()
	if len(c.steps) != len(flat) {
		t.Fatalf("table has %d entries, pattern %d flat steps", len(c.steps), len(flat))
	}
	consume := make(map[event.Type]bool)
	for i, fs := range flat {
		if !reflect.DeepEqual(*c.steps[i], *fs.Step) {
			t.Fatalf("flat %d: table %+v, FlatSteps %+v", i, *c.steps[i], *fs.Step)
		}
		consume[fs.Step.Types[0]] = fs.Step.Consume
	}

	rng := rand.New(rand.NewSource(7))
	s := c.NewState()
	var fb []Feedback
	checked := 0
	for i := 0; i < 4000; i++ {
		fb = s.Process(mk(uint64(i), event.Type(1+rng.Intn(8))), fb[:0])
		for _, f := range fb {
			if (f.Kind != EventBound && f.Kind != RunStarted) || f.Carry != nil {
				continue
			}
			if want := consume[f.Event.Type]; f.Consumable != want {
				t.Fatalf("ev %d (type %d): %s Consumable=%t, step Consume=%t",
					f.Event.Seq, f.Event.Type, f.Kind, f.Consumable, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("stream produced no bind feedback")
	}
}

// TestFailedStartsLeaveNoBindings drives a long pattern through many
// failed starts, abandoned one-event runs and completed runs. The leader's predicate sees every new
// run before it binds, and each must report no binding at any step.
func TestFailedStartsLeaveNoBindings(t *testing.T) {
	const length = 300
	starts, accept := 0, false
	lead := pattern.Step{Name: "S0", Types: []event.Type{1}, Consume: true,
		Pred: func(ev *event.Event, b pattern.Binder) bool {
			starts++
			for i := 0; i < length; i++ {
				if got := b.Bound(i); got != nil {
					t.Fatalf("ev %d: new run reports %d bindings at step %d", ev.Seq, len(got), i)
				}
			}
			return accept
		}}
	steps := []pattern.Step{lead}
	for i := 1; i < length; i++ {
		steps = append(steps, pattern.Step{Name: fmt.Sprintf("S%d", i), Types: []event.Type{2}, Consume: i%2 == 0})
	}
	c := compileSeq(t, pattern.SelectionPolicy{MaxConcurrentRuns: 1, OnCompletion: pattern.RestartFresh}, steps...)
	s := c.NewState()
	var fb []Feedback
	matches, seq := 0, uint64(0)
	for round := 0; round < 3; round++ {
		// A run abandoned after one binding goes back to the freelist.
		accept = true
		fb = s.Process(mk(seq, 1), fb[:0])
		seq++
		if fb = s.WindowEnd(fb[:0]); len(fb) != 1 {
			t.Fatalf("window end abandoned %d runs, want 1", len(fb))
		}
		// 50 leader-typed events, of which only the last starts a run,
		// then enough followers to complete it.
		for i := 0; i < 50; i++ {
			accept = i == 49
			fb = s.Process(mk(seq, 1), fb[:0])
			seq++
		}
		for i := 1; i < length; i++ {
			fb = s.Process(mk(seq, 2), fb[:0])
			seq++
			for _, f := range fb {
				if f.Kind == RunCompleted {
					matches++
					if got := len(f.Match.Constituents); got != length {
						t.Fatalf("match has %d constituents, want %d", got, length)
					}
				}
			}
		}
	}
	if matches != 3 {
		t.Fatalf("matches = %d, want 3", matches)
	}
	if starts < 100 {
		t.Fatalf("only %d start attempts", starts)
	}
}

// TestProcessAllocs guards the per-event path: an event that neither
// starts nor advances a run costs no allocation.
func TestProcessAllocs(t *testing.T) {
	c := compileSeq(t, pattern.SelectionPolicy{},
		pattern.Step{Name: "A", Types: []event.Type{1}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{2},
			Pred: func(ev *event.Event, b pattern.Binder) bool { return ev.Seq > b.Bound(0)[0].Seq+1000 }},
	)
	s := c.NewState()
	fb := s.Process(mk(0, 1), make([]Feedback, 0, 8))
	if len(fb) != 1 || fb[0].Kind != RunStarted {
		t.Fatalf("leader feedback = %v", kinds(fb))
	}
	// Type 2 is offered to the open run and rejected by its predicate;
	// type 9 matches nothing. Both attempt a start and fail.
	for _, ty := range []event.Type{2, 9} {
		ev := mk(1, ty)
		if n := testing.AllocsPerRun(200, func() {
			if fb = s.Process(ev, fb[:0]); len(fb) != 0 {
				t.Fatalf("type %d produced feedback %v", ty, kinds(fb))
			}
		}); n != 0 {
			t.Errorf("Process(type %d) = %v allocs, want 0", ty, n)
		}
	}
}

// TestBuildMatchAllocs guards match building: the Match and the one
// backing its Constituents and Consumed share, whatever the match length.
func TestBuildMatchAllocs(t *testing.T) {
	for _, length := range []int{2, 64, 640} {
		steps := make([]pattern.Step, length)
		for i := range steps {
			steps[i] = pattern.Step{Name: fmt.Sprintf("S%d", i), Types: []event.Type{1}, Consume: i%3 != 1}
		}
		steps[length/2].Quant = pattern.OneOrMore
		c := compileSeq(t, pattern.SelectionPolicy{MaxConcurrentRuns: 1}, steps...)
		s := c.NewState()
		for i := 0; i < length-1; i++ {
			s.Process(mk(uint64(i), 1), nil)
		}
		if s.OpenRuns() != 1 {
			t.Fatalf("length %d: %d open runs, want 1", length, s.OpenRuns())
		}
		r, last := s.runs[0], mk(uint64(length), 1)
		var m *Match
		if n := testing.AllocsPerRun(50, func() { m = s.buildMatch(r, last) }); n > 2 {
			t.Errorf("length %d: buildMatch = %v allocs, want ≤ 2", length, n)
		}
		if len(m.Constituents) != length-1 {
			t.Fatalf("length %d: %d constituents, want %d", length, len(m.Constituents), length-1)
		}
		for i := 1; i < len(m.Constituents); i++ {
			if m.Constituents[i-1].Seq >= m.Constituents[i].Seq {
				t.Fatalf("length %d: constituents out of sequence order", length)
			}
		}
	}
}

// TestResetMatchesNewState: a state reset after detecting matches —
// stopped by one, or holding open runs — behaves exactly as a new one
// over the same stream, and keeps no event reachable through its runs,
// past their bindings or not.
func TestResetMatchesNewState(t *testing.T) {
	stream := []event.Type{1, 2, 1, 2, 2, 3, 1, 2, 2, 2, 1, 2}
	feed := func(s *State) []Feedback {
		var all, fb []Feedback
		for i, ty := range stream {
			fb = s.Process(mk(uint64(i), ty), fb[:0])
			all = append(all, fb...)
		}
		return all
	}
	for _, onDone := range []pattern.CompletionBehavior{pattern.StopAfterMatch, pattern.RestartAfterLeader} {
		c := compileSeq(t, pattern.SelectionPolicy{OnCompletion: onDone},
			pattern.Step{Name: "A", Types: []event.Type{1}, Consume: true},
			pattern.Step{Name: "B", Types: []event.Type{2}, Quant: pattern.OneOrMore},
			pattern.Step{Name: "C", Types: []event.Type{3}, Consume: true},
		)
		used := c.NewState()
		if feed(used); !used.Stopped() && used.OpenRuns() == 0 {
			t.Fatalf("%v: setup left the state neither stopped nor with open runs", onDone)
		}
		used.Reset()
		if used.OpenRuns() != 0 || used.Stopped() || used.nextID != 0 {
			t.Fatalf("%v: reset state has %d open runs, stopped %v, next run id %d", onDone, used.OpenRuns(), used.Stopped(), used.nextID)
		}
		for _, r := range used.free {
			if slices.ContainsFunc(r.events[:cap(r.events)], func(ev *event.Event) bool { return ev != nil }) {
				t.Fatalf("%v: a reset state's run still points at an event", onDone)
			}
			if slices.ContainsFunc(r.spans, func(sp span) bool { return sp.n != 0 }) {
				t.Fatalf("%v: a reset state's run still has bindings", onDone)
			}
		}
		got, want := feed(used), feed(c.NewState())
		if len(got) != len(want) {
			t.Fatalf("%v: reset state gave %d feedback items, a new state %d", onDone, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Kind != w.Kind || g.Run != w.Run || g.Delta != w.Delta || g.PrevDelta != w.PrevDelta ||
				(g.Event == nil) != (w.Event == nil) || g.Event != nil && g.Event.Seq != w.Event.Seq {
				t.Fatalf("%v: feedback %d: reset state %+v, new state %+v", onDone, i, g, w)
			}
		}
	}
}
