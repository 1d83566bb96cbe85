package main

import (
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/arena"
	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/markov"
	"github.com/spectrecep/spectre/internal/matcher"
	"github.com/spectrecep/spectre/internal/plan"
	"github.com/spectrecep/spectre/internal/shard"
	"github.com/spectrecep/spectre/internal/window"
)

// replayCap bounds how much of a workload's stream the replay drivers
// push through a single layer; the per-event figures do not need more.
const replayCap = 200_000

// span runs f inside a span and returns how long it took.
func span(tr *tracer, name string, f func()) time.Duration {
	id := tr.begin(name, -1)
	t := time.Now()
	f()
	d := time.Since(t)
	tr.end(id)
	return d
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// replayEngineLayers pushes one shard's substream through each layer
// under the engine, one layer at a time, calling only what the layer
// exports: plan, arena, window, matcher, then deptree and markov fed with
// what the matcher reported.
func replayEngineLayers(tr *tracer, q *spectre.Query, reg *event.Registry, sub []event.Event, out map[string]float64) error {
	if len(sub) > replayCap {
		sub = sub[:replayCap]
	}
	n := len(sub)
	evs := make([]event.Event, n) // private copy: positions are stamped in place
	copy(evs, sub)
	for i := range evs {
		evs[i].Seq = uint64(i)
	}

	// plan: build, then the intake filter over every event.
	var pl *plan.Plan
	out["plan.build_us"] = float64(span(tr, "replay plan.New", func() { pl = plan.New(q, plan.Options{Reg: reg}) }).Nanoseconds()) / 1e3
	if pl.IntakeActive() {
		admitted := 0
		d := span(tr, "replay plan.Admit", func() {
			for i := range evs {
				if pl.Admit(&evs[i]) {
					admitted++
				}
			}
		})
		out["plan.admit_ns_per_event"] = nsPer(d, n)
		out["plan.admit_pass_share"] = float64(admitted) / float64(n)
	} else {
		out["plan.admit_pass_share"] = 1 // no intake filter: everything passes
	}

	// arena: append every event, releasing what lies a window behind, as
	// the engine does when a root window is popped.
	ar := arena.New()
	keep := uint64(q.Window.Count)
	if keep == 0 {
		keep = 4096
	}
	d := span(tr, "replay arena.Append", func() {
		for i := range evs {
			seq := ar.Append(evs[i])
			if seq%1024 == 0 && seq > keep {
				ar.ReleaseBefore(seq - keep)
			}
		}
	})
	allocs, reuses := ar.AllocStats()
	out["arena.append_ns_per_event"] = nsPer(d, n)
	out["arena.chunk_reuse_share"] = per(reuses, allocs+reuses, 1)

	// window: the splitter's window manager over every event.
	mgr := window.NewManager(q.Window)
	var windows []*window.Window
	d = span(tr, "replay window.Observe", func() {
		for i := range evs {
			opened, _ := mgr.Observe(&evs[i])
			windows = append(windows, opened...)
		}
		mgr.Finish(uint64(n))
	})
	covered := uint64(0)
	for _, w := range windows {
		covered += min(w.EndSeq(), uint64(n)) - w.StartSeq
	}
	out["window.observe_ns_per_event"] = nsPer(d, n)
	out["window.opened_per_kevent"] = float64(len(windows)) / float64(n) * 1000
	out["window.overlap"] = float64(covered) / float64(n)

	// matcher: the sequential pass, window by window, timed without and
	// then repeated with a log of what it reported.
	c, err := matcher.Compile(&q.Pattern)
	if err != nil {
		return err
	}
	var st seqStats
	d = span(tr, "replay matcher.Process", func() { st = sequentialPass(c, evs, windows, nil) })
	out["matcher.process_ns_per_step"] = nsPer(d, st.steps)
	out["matcher.steps_per_event"] = float64(st.steps) / float64(n)
	out["matcher.feedback_per_kstep"] = per(uint64(st.feedback), uint64(st.steps), 1000)
	out["matcher.open_runs_mean"] = per(uint64(st.openRuns), uint64(st.steps), 1)
	log := &feedbackLog{byWindow: make([][]fbRec, len(windows))}
	span(tr, "replay matcher.Clone+Snapshot", func() { st = sequentialPass(c, evs, windows, log) })
	out["matcher.clone_ns"] = nsPer(st.cloneTime, st.clones)
	out["matcher.snapshot_ns"] = nsPer(st.snapshotTime, st.clones)

	replayDeptree(tr, windows, log, out)
	return replayMarkov(tr, c, q, log, out)
}

// fbRec is one matcher notification, reduced to what the tree and the
// predictor consume.
type fbRec struct {
	kind        matcher.FeedbackKind
	run         int
	prev, delta int
	seq         uint64
	left        int // events left in the window after this one
}

type feedbackLog struct{ byWindow [][]fbRec }

type seqStats struct {
	steps, feedback, openRuns int
	clones                    int
	cloneTime, snapshotTime   time.Duration
}

// sequentialPass is the sequential engine's loop over matcher's exported
// functions: per window NewState, Process per unconsumed event,
// WindowEnd, with completions consuming their events. With a log it also
// records every notification and times Clone and Snapshot on a sample of
// the states it passes through.
func sequentialPass(c *matcher.Compiled, evs []event.Event, windows []*window.Window, log *feedbackLog) seqStats {
	var st seqStats
	consumed := make([]bool, len(evs))
	var fb []matcher.Feedback
	for wi, w := range windows {
		state := c.NewState()
		end := min(w.EndSeq(), uint64(len(evs)))
		apply := func(seq uint64) {
			for i := 0; i < len(fb); i++ { // fb grows while siblings are abandoned
				f := fb[i]
				st.feedback++
				if log != nil {
					log.byWindow[wi] = append(log.byWindow[wi], fbRec{f.Kind, f.Run, f.PrevDelta, f.Delta, seq, int(end - seq)})
				}
				if f.Kind == matcher.RunCompleted && len(f.Match.Consumed) > 0 {
					seqs := make([]uint64, len(f.Match.Consumed))
					for j, ev := range f.Match.Consumed {
						seqs[j] = ev.Seq
						consumed[ev.Seq] = true
					}
					fb = state.AbandonRunsUsing(seqs, fb)
				}
			}
		}
		for seq := w.StartSeq; seq < end; seq++ {
			if consumed[seq] {
				continue
			}
			fb = state.Process(&evs[seq], fb[:0])
			st.steps++
			st.openRuns += state.OpenRuns()
			apply(seq)
			if log != nil && st.steps%256 == 0 {
				t := time.Now()
				clone := state.Clone()
				st.cloneTime += time.Since(t)
				t = time.Now()
				snap := state.Snapshot()
				st.snapshotTime += time.Since(t)
				st.clones++
				_, _ = clone, snap
			}
			if state.Stopped() {
				break
			}
		}
		fb = state.WindowEnd(fb[:0])
		apply(end)
	}
	return st
}

// replayDeptree replays what the sequential pass reported onto a
// dependency tree: every window that overlaps the root is in the tree,
// the root's partial matches become consumption groups, their outcomes
// splice the tree, and the root is popped when its window is done.
func replayDeptree(tr *tracer, windows []*window.Window, log *feedbackLog, out map[string]float64) {
	var versionID, cgID uint64
	tree := deptree.NewTree(func(win *window.Window, sup []*deptree.CG) *deptree.WindowVersion {
		versionID++
		return deptree.NewWindowVersion(versionID, win, sup)
	})
	tree.CapSize = 256 // the engine's default speculation cap
	var (
		tNew, tCreated, tResolved, tPop, tTop, tSnap time.Duration
		nNew, nCreated, nResolved, nPop, nTop, nSnap int
		scratch                                      []*deptree.WindowVersion
	)
	half := func(*deptree.CG) float64 { return 0.5 }
	id := tr.begin("replay deptree", -1)
	next := 0
	for wi, w := range windows {
		for next < len(windows) && (next <= wi || windows[next].StartSeq < w.EndSeq()) {
			t := time.Now()
			tree.NewWindow(windows[next])
			tNew += time.Since(t)
			nNew++
			next++
		}
		root := tree.Root().WV
		open := map[int]*deptree.CG{}
		for _, f := range log.byWindow[wi] {
			switch f.kind {
			case matcher.RunStarted:
				cgID++
				cg := deptree.NewCG(cgID, root, f.run, f.delta)
				cg.Append(f.seq)
				open[f.run] = cg
				t := time.Now()
				tree.CGCreated(cg)
				tCreated += time.Since(t)
				nCreated++
			case matcher.EventBound:
				if cg := open[f.run]; cg != nil {
					cg.Append(f.seq)
					t := time.Now()
					cg.Publish()
					_ = cg.Snapshot()
					tSnap += time.Since(t)
					nSnap++
				}
			case matcher.RunCompleted, matcher.RunAbandoned:
				cg := open[f.run]
				if cg == nil {
					continue
				}
				delete(open, f.run)
				outcome := deptree.CGAbandoned
				if f.kind == matcher.RunCompleted {
					outcome = deptree.CGCompleted
				}
				cg.Resolve(outcome)
				t := time.Now()
				tree.CGResolved(cg)
				tResolved += time.Since(t)
				nResolved++
			}
		}
		t := time.Now()
		scratch = tree.TopK(instances, half, nil, scratch[:0])
		tTop += time.Since(t)
		nTop++
		t = time.Now()
		tree.PopRoot()
		tPop += time.Since(t)
		nPop++
	}
	tr.end(id)
	out["deptree.new_window_ns"] = nsPer(tNew, nNew)
	out["deptree.cg_created_ns"] = nsPer(tCreated, nCreated)
	out["deptree.cg_resolved_ns"] = nsPer(tResolved, nResolved)
	out["deptree.pop_root_ns"] = nsPer(tPop, nPop)
	out["deptree.topk_ns"] = nsPer(tTop, nTop)
	out["deptree.cg_snapshot_ns"] = nsPer(tSnap, nSnap)
	out["deptree.replay_max_size"] = float64(tree.MaxSize())
}

// replayMarkov feeds the predictor the completion-state transitions the
// sequential pass saw and asks it for a prediction at each of them.
func replayMarkov(tr *tracer, c *matcher.Compiled, q *spectre.Query, log *feedbackLog, out map[string]float64) error {
	model, err := markov.New(c.MinLength(), markov.Config{})
	if err != nil {
		return err
	}
	n := 0
	d := span(tr, "replay markov.RecordTransition", func() {
		for _, w := range log.byWindow {
			for _, f := range w {
				if f.kind == matcher.RunStarted || f.kind == matcher.EventBound {
					model.RecordTransition(f.prev, f.delta)
					n++
				}
			}
		}
	})
	out["markov.record_ns"] = nsPer(d, n)
	sum := 0.0
	d = span(tr, "replay markov.CompletionProbability", func() {
		for _, w := range log.byWindow {
			for _, f := range w {
				if f.kind == matcher.RunStarted || f.kind == matcher.EventBound {
					sum += model.CompletionProbability(f.delta, f.left)
				}
			}
		}
	})
	_ = sum
	out["markov.predict_ns"] = nsPer(d, n)
	return nil
}

// replayShard routes every event and reports the imbalance of the split.
func replayShard(tr *tracer, router *shard.Router, evs []event.Event, out map[string]float64) {
	counts := make([]uint64, router.Shards())
	d := span(tr, "replay shard.Route", func() {
		for i := range evs {
			counts[router.Route(&evs[i])]++
		}
	})
	var most uint64
	for _, c := range counts {
		most = max(most, c)
	}
	out["shard.route_ns_per_event"] = nsPer(d, len(evs))
	out["shard.skew"] = per(most*uint64(len(counts)), uint64(len(evs)), 1)
}
