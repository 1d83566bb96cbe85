package core

import (
	"sort"

	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/markov"
	"github.com/spectrecep/spectre/internal/matcher"
	"github.com/spectrecep/spectre/internal/window"
)

// slotStep processes one batch of slot i's assigned window version, if any
// and if no other worker currently owns the slot. It reports whether any
// progress was made.
//
// The slot is claimed before its version is loaded: the splitter recycles
// a version once every slot that could have loaded it has released its
// claim (DESIGN.md §3), so a version loaded before the claim might
// already belong to another window. The check before the claim is only a
// hint that spares the claim on an idle slot; it reads nothing but
// atomic flags, which stay safe to read on a recycled version.
func (s *shardState) slotStep(i int) bool {
	sl := &s.slots[i]
	if wv := sl.wv.Load(); wv == nil || wv.Dropped() || wv.Finished() {
		return false
	}
	if !sl.claim() {
		return false
	}
	worked := false
	if wv := sl.wv.Load(); wv != nil {
		worked = s.processBatch(sl.w, wv)
	}
	sl.release()
	return worked
}

// processBatch processes up to BatchSize events of wv and forwards the
// accumulated feedback. Feedback is pushed while still holding the
// version's mutex, which keeps the queue FIFO per window version even if
// the version later migrates to another slot.
func (s *shardState) processBatch(w *worker, wv *deptree.WindowVersion) bool {
	wv.Mu.Lock()
	defer wv.Mu.Unlock()
	if wv.Dropped() || wv.Finished() {
		return false
	}
	w.msgs = w.msgs[:0]
	worked := w.processSpan(wv, s.prog.cfg.BatchSize)
	w.flushStats()
	s.fq.push(w.msgs)
	return worked
}

// worker holds the per-slot scratch state of event processing. It is used
// by operator slots and by the splitter's inline reprocessing. All its
// buffers are reused across batches, so steady-state processing does not
// allocate.
type worker struct {
	s        *shardState
	msgs     []msg
	fb       []matcher.Feedback
	runBuf   []matcher.RunInfo
	touched  []int
	dirtyCGs []*deptree.CG
	// counts tallies the Markov transitions of validated versions in the
	// model's states until the batch ends. Nil under a fixed predictor,
	// and on the splitter's worker: inline reprocessing runs before the
	// version is validated, so it never counts.
	counts *markov.Counts
}

func newWorker(s *shardState) *worker {
	w := &worker{s: s}
	if s.model != nil {
		w.counts = s.model.NewCounts()
	}
	return w
}

// flushStats hands the batch's transition counts to the splitter, which
// folds the table into the model; the worker goes on with a fresh one.
func (w *worker) flushStats() {
	if w.counts == nil || w.counts.Empty() {
		return
	}
	w.msgs = append(w.msgs, msg{kind: msgStats, counts: w.counts})
	w.counts = w.s.model.NewCounts()
}

// processSpan processes up to max events of wv. The caller must hold
// wv.Mu. It returns whether any progress was made (events processed, the
// version finished, or a rollback happened).
func (w *worker) processSpan(wv *deptree.WindowVersion, max int) bool {
	s := w.s
	win := wv.Win
	if wv.State == nil {
		wv.ResetToStart(s.prog.compiled)
	}
	arenaLen := s.ingested.Load()
	end := win.EndSeq()
	limit := arenaLen
	if end < limit {
		limit = end
	}
	pos := wv.Pos()
	dur := int64(s.prog.query.Window.Duration)

	processed := 0
	checkEvery := s.prog.cfg.ConsistencyCheckEvery
	typeFilter := s.prog.typeFilter
	for pos < limit && processed < max {
		seq := pos
		ev, ok := s.ar.Lookup(seq)
		if !ok {
			// Gap left by the intake prefilter: the position was spent on
			// a dropped event and reads back as a zero event. Skip it
			// entirely — it must not reach the duration check (its TS is
			// zero) nor the matcher.
			processed++
			pos++
			wv.SetPos(pos)
			continue
		}
		// Window extents are raw-stream ranges: the duration boundary is
		// checked before any consumption filtering.
		if s.prog.durWindow && end == window.UnknownEnd && ev.TS-win.StartTS >= dur {
			w.finish(wv)
			w.flushMetrics(processed)
			return true
		}
		processed++
		if wv.State.Stopped() {
			// StopAfterMatch: detection is over; only the window boundary
			// matters. Count windows can skip ahead.
			if !s.prog.durWindow || end != window.UnknownEnd {
				pos = limit
				wv.SetPos(pos)
				break
			}
			pos++
			wv.SetPos(pos)
			continue
		}
		if typeFilter && !s.prog.plan.RelevantType(ev.Type) {
			// Every step is typed and no step accepts this event's type: it
			// can never bind, be consumed, or join a group. Skipping it only
			// forgoes the matcher's self-loop statistics, which influence
			// scheduling but never output.
			pos++
			wv.SetPos(pos)
			continue
		}
		if s.ar.Consumed(seq) {
			// Finally consumed by an earlier window.
			pos++
			wv.SetPos(pos)
			continue
		}
		if containsSorted(wv.LocalConsumed, seq) {
			// Consumed by this version's own earlier match.
			pos++
			wv.SetPos(pos)
			continue
		}
		if suppressedBy(wv, seq) {
			// Speculatively suppressed: a group on the version's
			// completion path currently holds this event.
			wv.Skipped = append(wv.Skipped, seq)
			pos++
			wv.SetPos(pos)
			continue
		}

		w.fb = wv.State.Process(ev, w.fb[:0])
		influenced := w.applyFeedback(wv, ev)
		if influenced {
			wv.Used = append(wv.Used, seq)
		}
		if wv.StatsEligible {
			w.recordSelfLoops(wv, ev)
		}
		pos++
		wv.SetPos(pos)

		if checkEvery > 0 && processed%checkEvery == 0 {
			if !w.consistencyCheck(wv) {
				w.rollback(wv)
				w.flushMetrics(processed)
				return true
			}
		}
	}

	finished := false
	if end != window.UnknownEnd && pos >= end {
		finished = true
	} else if s.inputDone.Load() && pos >= s.ingested.Load() {
		// Stream ended; no further events can arrive for this window.
		finished = true
	}
	if finished {
		// One last consistency check before finalizing the version: late
		// membership updates of suppressed groups are cheaper to catch
		// here than at the root's final gate.
		if !w.consistencyCheck(wv) {
			w.rollback(wv)
			w.flushMetrics(processed)
			return true
		}
		w.finish(wv)
		w.flushMetrics(processed)
		return true
	}
	w.flushMetrics(processed)
	return processed > 0
}

func (w *worker) flushMetrics(processed int) {
	if processed == 0 {
		return
	}
	w.s.metrics.add(func(m *Metrics) { m.EventsProcessed += uint64(processed) })
}

// finish runs the window-end logic: all open partial matches are abandoned
// (their groups resolve) and the version is marked finished.
func (w *worker) finish(wv *deptree.WindowVersion) {
	w.fb = wv.State.WindowEnd(w.fb[:0])
	w.applyFeedback(wv, nil)
	wv.MarkFinished()
}

// applyFeedback folds matcher feedback into consumption groups, buffered
// outputs and feedback messages. It reports whether ev influenced the
// matcher state (and therefore matters for consumption consistency).
func (w *worker) applyFeedback(wv *deptree.WindowVersion, ev *event.Event) bool {
	s := w.s
	influenced := false
	eligible := wv.StatsEligible
	w.touched = w.touched[:0]
	for i := 0; i < len(w.fb); i++ {
		f := w.fb[i]
		w.touched = append(w.touched, f.Run)
		switch f.Kind {
		case matcher.RunStarted:
			cg := deptree.NewCG(s.cgSeq.Add(1), wv, f.Run, f.Delta)
			for _, c := range f.Carry {
				cg.Append(c.Seq)
			}
			if f.Consumable && f.Event != nil {
				cg.Append(f.Event.Seq)
			}
			w.dirtyCGs = append(w.dirtyCGs, cg)
			wv.RunCGs[f.Run] = cg
			w.msgs = append(w.msgs, msg{kind: msgCGCreated, wv: wv, cg: cg})
			if eligible {
				w.counts.Add(f.PrevDelta, f.Delta)
			}
			influenced = true

		case matcher.EventBound:
			if cg := wv.RunCGs[f.Run]; cg != nil {
				if f.Consumable && f.Event != nil {
					cg.Append(f.Event.Seq)
					w.dirtyCGs = append(w.dirtyCGs, cg)
				}
				cg.SetDelta(f.Delta)
			}
			if eligible {
				w.counts.Add(f.PrevDelta, f.Delta)
			}
			influenced = true

		case matcher.RunCompleted:
			cg := wv.RunCGs[f.Run]
			delete(wv.RunCGs, f.Run)
			ce := buildComplex(s.prog.query.Name, wv.Win.ID, f.Match)
			wv.Buffered = append(wv.Buffered, ce)
			if cg != nil {
				cg.SetDelta(0)
				if cg.Resolve(deptree.CGCompleted) {
					w.msgs = append(w.msgs, msg{kind: msgCGResolved, cg: cg})
				}
			}
			if len(ce.Consumed) > 0 {
				wv.LocalConsumed = mergeSorted(wv.LocalConsumed, ce.Consumed)
				// Same-window consumption: sibling partial matches using a
				// consumed event are abandoned (their feedback is appended
				// and handled by this very loop).
				w.fb = wv.State.AbandonRunsUsing(ce.Consumed, w.fb)
			}
			if eligible {
				w.counts.Add(f.PrevDelta, 0)
			}
			influenced = true

		case matcher.RunAbandoned:
			cg := wv.RunCGs[f.Run]
			delete(wv.RunCGs, f.Run)
			if cg != nil {
				if cg.Resolve(deptree.CGAbandoned) {
					w.msgs = append(w.msgs, msg{kind: msgCGResolved, cg: cg})
				}
			}
			if ev != nil && f.Event == ev {
				influenced = true // negation trigger
			}
		}
	}
	// Publication is batched: each touched group stores its new size once
	// per feedback application, not once per added event, and allocates
	// nothing unless an append gave it a fresh backing.
	for i, cg := range w.dirtyCGs {
		cg.Publish()
		w.dirtyCGs[i] = nil
	}
	w.dirtyCGs = w.dirtyCGs[:0]
	return influenced
}

// recordSelfLoops records δ→δ transitions for open runs the event did not
// touch: the paper's Markov statistics observe every processed event.
func (w *worker) recordSelfLoops(wv *deptree.WindowVersion, ev *event.Event) {
	w.runBuf = wv.State.Runs(w.runBuf[:0])
	for _, ri := range w.runBuf {
		seen := false
		for _, id := range w.touched {
			if id == ri.ID {
				seen = true
				break
			}
		}
		if !seen {
			w.counts.Add(ri.Delta, ri.Delta)
		}
	}
}

// consistencyCheck implements the periodic check of paper Fig. 8 (lines
// 31-45): if a suppressed group's membership changed and this version has
// processed one of its events, the version is inconsistent.
func (w *worker) consistencyCheck(wv *deptree.WindowVersion) bool {
	for i, cg := range wv.Suppressed {
		snap := cg.Snapshot()
		if snap.Version == wv.LastChecked[i] {
			continue
		}
		wv.LastChecked[i] = snap.Version
		if intersectsSorted(wv.Used, snap.Seqs) {
			return false
		}
	}
	return true
}

// rollback resets the version to its window start (paper: "the state of
// the window version is rolled back to the start"). Its own consumption
// groups are resolved as abandoned; the splitter rebuilds the dependent
// subtree on the rollback message.
func (w *worker) rollback(wv *deptree.WindowVersion) {
	w.restart(wv)
	if w.counts != nil {
		w.counts.Reset()
	}
	w.msgs = append(w.msgs, msg{kind: msgRolledBack, wv: wv})
	w.s.metrics.add(func(m *Metrics) { m.Rollbacks++ })
}

// restart resets wv to its window start — the one reset path of
// rollbacks and the final gate (caller holds wv.Mu). Every consumption
// group its open runs still hold is resolved as abandoned and reported in
// w.msgs: the runs that would have resolved it are gone, and a group left
// open would stay open forever — its creation message, possibly still in
// flight, would then hang an open vertex under the root that the root
// waits on.
func (w *worker) restart(wv *deptree.WindowVersion) {
	for _, cg := range wv.RunCGs {
		if cg.Resolve(deptree.CGAbandoned) {
			w.msgs = append(w.msgs, msg{kind: msgCGResolved, cg: cg})
		}
	}
	wv.ResetToStart(w.s.prog.compiled)
	wv.Rollbacks++
}

// suppressedBy reports whether seq is currently in any suppressed group of
// wv.
func suppressedBy(wv *deptree.WindowVersion, seq uint64) bool {
	for _, cg := range wv.Suppressed {
		if cg.Contains(seq) {
			return true
		}
	}
	return false
}

// buildComplex converts a matcher match into a complex event. Both seq
// slices share one backing; each one's capacity ends where its length
// does, so an append to one cannot write into the other.
func buildComplex(query string, winID uint64, m *matcher.Match) event.Complex {
	ce := event.Complex{Query: query, WindowID: winID}
	if m.CompletedAt != nil {
		ce.DetectedAt = m.CompletedAt.Seq
	}
	n := len(m.Constituents)
	seqs := make([]uint64, n+len(m.Consumed))
	ce.Constituents, ce.Consumed = seqs[:n:n], seqs[n:]
	for i, c := range m.Constituents {
		ce.Constituents[i] = c.Seq
	}
	for i, c := range m.Consumed {
		ce.Consumed[i] = c.Seq
	}
	return ce
}

// containsSorted reports whether x is in the ascending slice s.
func containsSorted(s []uint64, x uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// intersectsSorted reports whether two ascending slices share an element.
func intersectsSorted(a, b []uint64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, x := range a {
		i := sort.Search(len(b), func(i int) bool { return b[i] >= x })
		if i < len(b) && b[i] == x {
			return true
		}
	}
	return false
}

// mergeSorted merges ascending b into ascending a, deduplicating. The
// common case — ascending insertion entirely past a's tail — appends in
// place instead of re-copying the whole slice.
func mergeSorted(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 || b[0] > a[len(a)-1] {
		return append(a, b...)
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
