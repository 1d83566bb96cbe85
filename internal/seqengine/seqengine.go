// Package seqengine implements the sequential reference engine: windows are
// processed to completion one after the other in window order, which is the
// "standard procedure to deal with data dependencies" the paper describes
// (§2.3) and the semantics SPECTRE must reproduce exactly (§2.3: "deliver
// exactly those complex events that would be produced in sequential
// processing").
//
// The engine doubles as the ground-truth pass of the evaluation: the ratio
// of completed to created consumption groups is the "ground truth value" of
// the completion probability used in Figures 10(d) and 10(e).
package seqengine

import (
	"fmt"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/matcher"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/window"
)

// Stats summarizes a sequential run. RunsStarted/RunsCompleted correspond
// to consumption groups created/completed; their ratio is the paper's
// ground-truth completion probability.
type Stats struct {
	WindowsOpened   uint64
	EventsProcessed uint64 // events fed to pattern detection (per window)
	RunsStarted     uint64
	RunsCompleted   uint64
	RunsAbandoned   uint64
	EventsConsumed  uint64
	Matches         uint64
}

// CompletionProbability returns completed/created, the ground-truth value
// of Figures 10(d)/(e). It returns 0 when no group was created.
func (s Stats) CompletionProbability() float64 {
	if s.RunsStarted == 0 {
		return 0
	}
	return float64(s.RunsCompleted) / float64(s.RunsStarted)
}

// Engine is the sequential reference engine.
type Engine struct {
	query    *pattern.Query
	compiled *matcher.Compiled
}

// New compiles the query into a sequential engine.
func New(q *pattern.Query) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("seqengine: %w", err)
	}
	c, err := matcher.Compile(&q.Pattern)
	if err != nil {
		return nil, fmt.Errorf("seqengine: %w", err)
	}
	return &Engine{query: q, compiled: c}, nil
}

// Run processes events and returns the complex events in canonical order
// (window order, detection order within a window) together with run
// statistics. Sequence numbers are assigned in place: events[i].Seq = i,
// the same dense numbering the SPECTRE runtime assigns at ingest.
func (e *Engine) Run(events []event.Event) ([]event.Complex, Stats, error) {
	for i := range events {
		events[i].Seq = uint64(i)
	}
	windows := e.SplitWindows(events)

	var (
		stats    Stats
		out      []event.Complex
		consumed = make([]bool, len(events))
		fb       []matcher.Feedback
	)
	stats.WindowsOpened = uint64(len(windows))

	for _, w := range windows {
		st := e.compiled.NewState()
		end := w.EndSeq()
		if end > uint64(len(events)) {
			end = uint64(len(events))
		}
		for seq := w.StartSeq; seq < end; seq++ {
			if consumed[seq] {
				continue
			}
			ev := &events[seq]
			stats.EventsProcessed++
			fb = st.Process(ev, fb[:0])
			out = e.applyFeedback(fb, st, w, consumed, &stats, out)
			if st.Stopped() {
				break
			}
		}
		fb = st.WindowEnd(fb[:0])
		out = e.applyFeedback(fb, st, w, consumed, &stats, out)
	}
	return out, stats, nil
}

// applyFeedback folds matcher feedback into outputs, consumption marks and
// statistics. Completions consume their events immediately and abandon any
// other partial match in the same window that used a consumed event.
func (e *Engine) applyFeedback(fb []matcher.Feedback, st *matcher.State, w *window.Window,
	consumed []bool, stats *Stats, out []event.Complex) []event.Complex {
	// The slice may grow while we append abandon feedback for sibling
	// runs; iterate by index.
	for i := 0; i < len(fb); i++ {
		f := fb[i]
		switch f.Kind {
		case matcher.RunStarted:
			stats.RunsStarted++
		case matcher.RunAbandoned:
			stats.RunsAbandoned++
		case matcher.RunCompleted:
			stats.RunsCompleted++
			stats.Matches++
			m := f.Match
			ce := event.Complex{
				Query:      e.query.Name,
				WindowID:   w.ID,
				DetectedAt: m.CompletedAt.Seq,
			}
			// One backing for both slices, each capped at its length.
			n := len(m.Constituents)
			seqs := make([]uint64, n+len(m.Consumed))
			ce.Constituents, ce.Consumed = seqs[:n:n], seqs[n:]
			for j, c := range m.Constituents {
				ce.Constituents[j] = c.Seq
			}
			for j, c := range m.Consumed {
				ce.Consumed[j] = c.Seq
			}
			out = append(out, ce)
			if len(ce.Consumed) > 0 {
				for _, seq := range ce.Consumed {
					if !consumed[seq] {
						consumed[seq] = true
						stats.EventsConsumed++
					}
				}
				// Same-window consumption: sibling partial matches that
				// bound a consumed event are abandoned.
				fb = st.AbandonRunsUsing(ce.Consumed, fb)
			}
		}
	}
	return out
}

// SplitWindows materializes the window list for events under the engine's
// window specification.
func (e *Engine) SplitWindows(events []event.Event) []*window.Window {
	mgr := window.NewManager(e.query.Window)
	var windows []*window.Window
	for i := range events {
		opened, _ := mgr.Observe(&events[i])
		windows = append(windows, opened...)
	}
	mgr.Finish(uint64(len(events)))
	return windows
}
