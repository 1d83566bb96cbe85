package core

import (
	"testing"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/markov"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/queries"
)

// predictors enumerates the completion predictors the equivalence suite
// sweeps: the paper's learned Markov model and the Fig. 11
// fixed-probability baseline at both extremes and the midpoint.
var predictors = []struct {
	label string
	pred  markov.Predictor
}{
	{"topk", nil},
	{"fixedprob=0", markov.Fixed{P: 0}},
	{"fixedprob=0.5", markov.Fixed{P: 0.5}},
	{"fixedprob=1", markov.Fixed{P: 1}},
}

// TestPredictorEquivalence is the cross-predictor flagship: the delivered
// output must be byte-identical to the sequential reference whichever
// predictor ranks the top-k walk. Selection sits above the §4.2
// validation gate, so it may only change performance, never output. Each
// workload runs either as an Engine (workers 0: one pool worker per role)
// or as a one-shard handle fed event by event on a shared pool with fewer
// workers than roles, where every worker alternates between the splitter
// and the slots.
func TestPredictorEquivalence(t *testing.T) {
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
		for _, pr := range predictors {
			t.Run(wl.label+"/"+pr.label, func(t *testing.T) {
				cfg := wl.cfg
				cfg.Predictor = pr.pred
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
				assertSameOutput(t, pr.label, got, want)
				if m.SlotCyclesActive == 0 {
					t.Fatal("slot-utilization counters must be populated")
				}
				if u := m.SlotUtilization(); u < 0 || u > 1 {
					t.Fatalf("slot utilization %f out of [0, 1]", u)
				}
			})
		}
	}
}

// TestWorkerStatsReachModel guards the learner's input, which no output
// test can see: on the q1 workload of TestPredictorEquivalence, driven
// single-threaded, the model must receive the workers' count tables and
// fold them; under a fixed predictor no worker holds a table and no
// statistics message reaches the splitter. The workload records fewer
// than the default Rho observations, so the learned row swaps in the
// default model with a Rho low enough for the folds to show.
func TestWorkerStatsReachModel(t *testing.T) {
	reg := event.NewRegistry()
	nyse := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 40, Leaders: 4, Minutes: 120, Seed: 11})
	q1, err := queries.Q1(reg, queries.Q1Config{Q: 8, WindowSize: 300, Leaders: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range predictors {
		t.Run(pr.label, func(t *testing.T) {
			prog, err := compile(q1, Config{Instances: 4, BatchSize: 32, ConsistencyCheckEvery: 8, Predictor: pr.pred})
			if err != nil {
				t.Fatal(err)
			}
			s, err := newShard(prog)
			if err != nil {
				t.Fatal(err)
			}
			if s.model != nil {
				if s.model, err = markov.New(prog.compiled.MinLength(), markov.Config{Rho: 1000}); err != nil {
					t.Fatal(err)
				}
				s.pred = s.model
				for i := range s.slots {
					s.slots[i].w = newWorker(s)
				}
			}
			s.begin(nil)
			feedShard(s, nyse, true)
			tables := 0
			for i := 0; !s.finished.Load(); i++ {
				if i > 1_000_000 {
					t.Fatal("run did not drain")
				}
				s.step()
				// Slots push after the splitter's cycle: everything they
				// queued is still waiting for the next one.
				s.fq.mu.Lock()
				for _, m := range s.fq.buf {
					if m.kind == msgStats {
						if m.counts == nil || m.counts.Empty() {
							t.Fatal("a statistics message must carry a non-empty table")
						}
						tables++
					}
				}
				s.fq.mu.Unlock()
			}
			if pr.pred != nil {
				if s.model != nil || s.split.counts != nil {
					t.Fatal("a fixed predictor must leave the shard without a model or tables")
				}
				for i := range s.slots {
					if s.slots[i].w.counts != nil {
						t.Fatalf("slot %d holds a count table under a fixed predictor", i)
					}
				}
				if tables != 0 {
					t.Fatalf("%d statistics messages reached the splitter under a fixed predictor", tables)
				}
				return
			}
			if tables == 0 || s.model.Folds() == 0 {
				t.Fatalf("the model learned nothing: %d tables handed over, %d folds", tables, s.model.Folds())
			}
		})
	}
}

// stuckShard builds a one-slot shard over two count windows with the stream
// ended, whose first window's root version is stranded exactly at the
// window end boundary (pos == EndSeq) without having run its window-end
// logic — the state a top-k withdrawal can leave behind when it takes a
// version's slot between batches.
func stuckShard(t *testing.T) *shardState {
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
	prog, err := compile(q, Config{Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog)
	if err != nil {
		t.Fatal(err)
	}
	// 80 events: window [0,64) resolves its end inside the stream,
	// window [64,128) is cut short by stream end.
	s.begin(nil)
	events := make([]event.Event, 80)
	for i := range events {
		ty := ta
		if i%2 == 1 {
			ty = tb
		}
		events[i] = event.Event{TS: int64(i), Type: ty}
	}
	feedShard(s, events, true)
	// Ingest everything so both windows exist and input is done, however
	// many cycles the horizon takes.
	for i := 0; i < 100 && !s.inputDone.Load(); i++ {
		s.splitCycle()
	}
	if !s.inputDone.Load() {
		t.Fatal("input must be done after ingesting the closed intake")
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

// TestEndBoundaryEligible reproduces the pos == end strand and asserts the window-end eligibility clause still offers the
// version one final scheduling round — the run must drain instead of
// deadlocking the root chain.
func TestEndBoundaryEligible(t *testing.T) {
	s := stuckShard(t)
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
	s := stuckShard(t)
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
