package core

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/markov"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/queries"
	"github.com/spectrecep/spectre/internal/sched"
)

// oscPolicy is a scripted control plane for tests: the slot pool and
// lookahead horizon oscillate between two sizes on a fixed cycle period
// — the hardest resize schedule (shrink and grow mid-run, over and over).
type oscPolicy struct {
	cycle, period int
	loK, hiK      int
	loH, hiH      int
}

func (p *oscPolicy) Tune(sched.Signals) sched.Decision {
	p.cycle++
	if (p.cycle/p.period)%2 == 0 {
		return sched.Decision{Slots: p.hiK, Horizon: p.hiH}
	}
	return sched.Decision{Slots: p.loK, Horizon: p.loH}
}

// schedPolicies enumerates the scheduling configurations the equivalence
// suite sweeps: the paper's static top-k, the Fig. 11 fixed-probability
// baseline at both extremes and the midpoint, the adaptive policy on an
// aggressive cadence, and a scripted mid-run resize schedule.
func schedPolicies(k int) []struct {
	label string
	apply func(*Config)
} {
	return []struct {
		label string
		apply func(*Config)
	}{
		{"topk", func(*Config) {}},
		{"fixedprob=0", func(c *Config) { c.Predictor = markov.Fixed{P: 0} }},
		{"fixedprob=0.5", func(c *Config) { c.Predictor = markov.Fixed{P: 0.5} }},
		{"fixedprob=1", func(c *Config) { c.Predictor = markov.Fixed{P: 1} }},
		{"adaptive", func(c *Config) {
			c.Sched = sched.Config{
				Kind: sched.Adaptive, MinSlots: 1, MaxSlots: k + 2,
				MinHorizon: 1, AdjustEvery: 4, Procs: k + 2,
			}
		}},
		{"oscillating", func(c *Config) {
			c.Sched = sched.Config{MaxSlots: k + 2} // raises the pool ceiling
			c.SchedFactory = func() sched.Policy {
				return &oscPolicy{
					period: 16,
					loK:    1, hiK: k + 2,
					loH: 1, hiH: 16 * k,
				}
			}
		}},
	}
}

// TestPolicyEquivalence is the cross-policy flagship: the delivered
// output must be byte-identical to the sequential reference under every
// scheduling policy — including mid-run shrinks and grows of the slot
// pool and the lookahead horizon. The scheduling layer sits above the
// §4.2 validation gate, so it may only change performance, never output.
// Each workload runs either as an Engine (workers 0: one pool worker per
// role) or as a one-shard handle fed event by event on a shared pool with
// fewer workers than roles, where every worker alternates between the
// splitter and the slots.
func TestPolicyEquivalence(t *testing.T) {
	reg := event.NewRegistry()
	nyse := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 120, Seed: 11})
	q1, err := queries.Q1(reg, queries.Q1Config{Q: 8, WindowSize: 300, Leaders: 4})
	if err != nil {
		t.Fatal(err)
	}
	regR := event.NewRegistry()
	random := dataset.Rand(regR, dataset.RandConfig{Symbols: 8, Events: 6000, Seed: 7})
	q3, err := queries.Q3(regR, queries.Q3Config{SetSize: 3, WindowSize: 150, Slide: 40})
	if err != nil {
		t.Fatal(err)
	}
	regP := event.NewRegistry()
	nyseP := dataset.NYSE(regP, dataset.NYSEConfig{Symbols: 30, Leaders: 3, Minutes: 100, Seed: 19})
	q1P, err := queries.Q1(regP, queries.Q1Config{Q: 6, WindowSize: 250, Leaders: 3})
	if err != nil {
		t.Fatal(err)
	}

	workloads := []struct {
		label   string
		q       *pattern.Query
		events  []event.Event
		cfg     Config
		workers int // 0: Engine; otherwise the shared pool's size
	}{
		{"q1", q1, nyse, Config{Instances: 4, BatchSize: 32, ConsistencyCheckEvery: 8}, 0},
		{"q3-consume-all", q3, random, Config{Instances: 4, BatchSize: 32, ConsistencyCheckEvery: 8}, 0},
		{"q1-2workers", q1P, nyseP, Config{Instances: 3, BatchSize: 32}, 2},
	}
	for _, wl := range workloads {
		want := runSequential(t, wl.q, wl.events)
		if len(want) == 0 {
			t.Fatalf("%s produced no matches; test is vacuous", wl.label)
		}
		for _, pol := range schedPolicies(wl.cfg.Instances) {
			t.Run(wl.label+"/"+pol.label, func(t *testing.T) {
				cfg := wl.cfg
				pol.apply(&cfg)
				var (
					got []event.Complex
					m   Metrics
				)
				if wl.workers == 0 {
					var eng *Engine
					got, eng = runSpectre(t, wl.q, wl.events, cfg)
					m = eng.MetricsSnapshot()
				} else {
					rt := NewRuntime(RuntimeConfig{Workers: wl.workers})
					defer rt.Close()
					h, err := rt.Submit(wl.q, cfg, nil, 1, func(ce event.Complex) {
						got = append(got, ce)
					}, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, ev := range wl.events {
						if err := h.Feed(t.Context(), ev); err != nil {
							t.Fatal(err)
						}
					}
					h.Drain()
					m = h.Metrics()
				}
				assertSameOutput(t, pol.label, got, want)
				if m.SlotCyclesActive == 0 {
					t.Fatal("slot-utilization counters must be populated")
				}
				if u := m.SlotUtilization(); u < 0 || u > 1 {
					t.Fatalf("slot utilization %f out of [0, 1] (busy/active skewed across a resize?)", u)
				}
				if pol.label == "oscillating" && m.PolicyResizes == 0 {
					t.Fatal("the oscillating policy must have resized the pool")
				}
			})
		}
	}
}

// stuckShard builds a shard over two count windows with the stream
// ended, whose first window's root version is stranded exactly at the
// window end boundary (pos == EndSeq) without having run its window-end
// logic — the state a slot-pool shrink can leave behind when it
// withdraws a slot between batches.
func stuckShard(t *testing.T, factory func() sched.Policy) *shardState {
	t.Helper()
	reg := event.NewRegistry()
	ta, tb := reg.TypeID("A"), reg.TypeID("B")
	p := pattern.Seq("stuck",
		pattern.Step{Name: "A", Types: []event.Type{ta}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Consume: true},
	)
	q := &pattern.Query{
		Name:    "stuck",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartEvery, Every: 64,
			EndKind: pattern.EndCount, Count: 64,
		},
	}
	cfg := Config{Instances: 4}
	cfg.Sched = sched.Config{MaxSlots: 4}
	cfg.SchedFactory = factory
	prog, err := compile(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 80 events: window [0,64) resolves its end inside the stream,
	// window [64,128) is cut short by stream end.
	queue := newShardQueue(1024)
	s.begin(queue, nil)
	for i := 0; i < 80; i++ {
		ty := ta
		if i%2 == 1 {
			ty = tb
		}
		if err := queue.push(t.Context(), event.Event{TS: int64(i), Type: ty}); err != nil {
			t.Fatal(err)
		}
	}
	queue.close()
	// Ingest everything so both windows exist and input is done, however
	// many cycles the policy's horizon takes.
	for i := 0; i < 100 && !s.inputDone.Load(); i++ {
		s.splitCycle()
	}
	if !s.inputDone.Load() {
		t.Fatal("input must be done after ingesting the closed queue")
	}
	root := s.tree.Root()
	if root == nil {
		t.Fatal("no root window")
	}
	wv := root.WV
	end := wv.Win.EndSeq()
	if end != 64 {
		t.Fatalf("first window end = %d, want 64", end)
	}
	// Strand the root version at the boundary: all input processed, the
	// window-end logic not yet run, no slot assignment.
	wv.Mu.Lock()
	wv.State = s.prog.compiled.NewState()
	wv.SetPos(end)
	wv.Mu.Unlock()
	if on := wv.ScheduledOn(); on >= 0 {
		s.assigned[on] = nil
		s.slots[on].wv.Store(nil)
		wv.SetScheduledOn(-1)
	}
	return s
}

// TestEndBoundaryEligibleAfterShrink reproduces the pos == end strand
// under a shrunken slot pool and asserts the end-of-stream eligibility
// extension still offers the version one final scheduling round — the
// run must drain instead of deadlocking the root chain.
func TestEndBoundaryEligibleAfterShrink(t *testing.T) {
	// The policy pins the pool to a single slot: the shrunken regime.
	s := stuckShard(t, func() sched.Policy {
		return &oscPolicy{period: 1 << 30, loK: 1, hiK: 1, loH: 64, hiH: 64}
	})
	for i := 0; i < 10000 && !s.finished.Load(); i++ {
		s.step()
	}
	if !s.finished.Load() {
		root := s.tree.Root()
		t.Fatalf("run deadlocked; root version pos=%d end=%d finished=%v",
			root.WV.Pos(), root.WV.Win.EndSeq(), root.WV.Finished())
	}
}

// TestFinishedShardKeepsSplitterClaim: a pool worker that read finished
// as false just before another worker ended the run must not get into the
// splitter and finish it a second time (done would be closed twice).
func TestFinishedShardKeepsSplitterClaim(t *testing.T) {
	s := stuckShard(t, func() sched.Policy { return sched.Config{}.New(1) })
	for i := 0; i < 10000 && !s.finished.Load(); i++ {
		s.step()
	}
	if !s.finished.Load() {
		t.Fatal("run did not drain")
	}
	s.finished.Store(false) // the late worker's stale read
	if s.step() {
		t.Fatal("a finished shard still took a splitter cycle")
	}
}

// TestParkedSlotsNeverStep is the white-box park check: across a shrink
// and a grow of the slot pool, a pool-worker visit (step) must never run
// slotStep on an index at or past activeSlots. A sentinel version planted
// directly on a parked slot — behind the splitter's back, so no schedule
// pass strips it — must stay untouched while the active slot keeps
// working; after the grow the withdrawn slots take assignments again and
// the run drains.
func TestParkedSlotsNeverStep(t *testing.T) {
	var grow atomic.Bool
	factory := func() sched.Policy {
		return policyFunc(func() sched.Decision {
			if grow.Load() {
				return sched.Decision{Slots: 4, Horizon: 64}
			}
			return sched.Decision{Slots: 1, Horizon: 64}
		})
	}
	reg := event.NewRegistry()
	ta := reg.TypeID("A")
	p := pattern.Seq("park", pattern.Step{Name: "A", Types: []event.Type{ta}})
	q := &pattern.Query{
		Name:    "park",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartEvery, Every: 8,
			EndKind: pattern.EndCount, Count: 8,
		},
	}
	cfg := Config{Instances: 4}
	cfg.SchedFactory = factory
	prog, err := compile(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	queue := newShardQueue(1024)
	s.begin(queue, nil)
	// 16 independent windows of 8 events; one batch finishes one window,
	// so a single slot needs 16 visits to drain them.
	for i := 0; i < 128; i++ {
		if err := queue.push(t.Context(), event.Event{TS: int64(i), Type: ta}); err != nil {
			t.Fatal(err)
		}
	}

	// The first visit applies the shrink to 1 slot; ingest the rest of
	// the queue, however many passes the horizon takes.
	s.step()
	if got := int(s.activeSlots.Load()); got != 1 {
		t.Fatalf("active slots = %d, want 1", got)
	}
	for i := 0; i < 100 && s.queue.depth() > 0; i++ {
		s.ingest()
	}
	if d := s.queue.depth(); d != 0 {
		t.Fatalf("%d events still queued", d)
	}
	sentinel := deptree.NewWindowVersion(1<<40, s.tree.Root().WV.Win, nil)
	s.slots[3].wv.Store(sentinel)
	before := s.metricsSnapshot().EventsProcessed
	for i := 0; i < 4; i++ {
		s.step()
	}
	if sentinel.State != nil {
		t.Fatal("slotStep ran on a parked slot")
	}
	for i := 1; i < 4; i++ {
		if s.assigned[i] != nil {
			t.Fatalf("parked slot %d holds an assignment", i)
		}
	}
	if now := s.metricsSnapshot().EventsProcessed; now == before {
		t.Fatal("the active slot must keep working while the others are parked")
	}
	s.slots[3].wv.Store(nil)

	// Grow back: the next visit hands the withdrawn slots work again.
	grow.Store(true)
	s.step()
	if got := int(s.activeSlots.Load()); got != 4 {
		t.Fatalf("active slots after grow = %d, want 4", got)
	}
	for i := 1; i < 4; i++ {
		if s.assigned[i] == nil {
			t.Fatalf("slot %d took no assignment after the pool grew", i)
		}
	}
	queue.close()
	for i := 0; i < 10000 && !s.finished.Load(); i++ {
		s.step()
	}
	if !s.finished.Load() {
		t.Fatal("run did not drain after the grow")
	}
	if m := s.metricsSnapshot(); m.WindowsOpened != 16 || m.Matches == 0 {
		t.Fatalf("opened %d windows, %d matches; want 16 windows and matches", m.WindowsOpened, m.Matches)
	}
}

// TestAdaptiveEngineShrinksOnThisMachine runs the adaptive policy on a
// real workload and checks the control plane actually acts: with the
// useful-parallelism cap pinned to 1, the pool must shrink from its
// initial 4 slots and record the resize.
func TestAdaptiveEngineShrinksOnThisMachine(t *testing.T) {
	reg := event.NewRegistry()
	events := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 30, Leaders: 3, Minutes: 80, Seed: 29})
	q, err := queries.Q1(reg, queries.Q1Config{Q: 5, WindowSize: 200, Leaders: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := runSequential(t, q, events)
	cfg := Config{Instances: 4}
	cfg.Sched = sched.Config{Kind: sched.Adaptive, MinSlots: 1, MaxSlots: 4, AdjustEvery: 8, Procs: 1}
	// A latency target (never missed here) must not enroll the engine in
	// its private runtime's arbiter: a sole tenant would be granted the
	// whole pool and the grant would override Procs.
	cfg.Sched.LatencyTarget = time.Hour
	got, eng := runSpectre(t, q, events, cfg)
	assertSameOutput(t, "adaptive", got, want)
	m := eng.MetricsSnapshot()
	if m.PolicyResizes == 0 {
		t.Fatal("adaptive policy capped at 1 proc must have shrunk the 4-slot pool")
	}
	if m.CurSlots != 1 {
		t.Fatalf("final slot count = %d, want 1", m.CurSlots)
	}
	if u := m.SlotUtilization(); u <= 0 || u > 1 {
		t.Fatalf("slot utilization %f out of range", u)
	}
}

// policyFunc adapts a decision function into a sched.Policy.
type policyFunc func() sched.Decision

func (f policyFunc) Tune(sched.Signals) sched.Decision { return f() }
