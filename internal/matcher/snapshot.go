package matcher

import "github.com/spectrecep/spectre/internal/event"

// Snapshot is a self-contained image of a matcher State. Unlike Clone —
// which shares *event.Event pointers with the arena — a Snapshot copies
// every bound event by value. The engine no longer takes snapshots; the
// benchmark harness still times them (matcher.snapshot_ns).
type Snapshot struct {
	NextID  int
	Stopped bool
	Runs    []RunSnapshot
}

// RunSnapshot images one open partial match. Events are the run's bound
// events in bind order, by value; Spans mirror the run's per-flat-index
// binding spans into Events.
type RunSnapshot struct {
	ID       int
	Elem     int
	KCount   int
	SetMask  uint64
	LastFlat int32
	Events   []event.Event
	Spans    []Span
}

// Span locates one flat step's bindings inside RunSnapshot.Events.
type Span struct {
	Start, N int32
}

// Snapshot captures the state's open runs by value. The state is not
// mutated; the caller must have exclusive access (the same ownership
// Clone requires).
func (s *State) Snapshot() *Snapshot {
	sn := &Snapshot{NextID: s.nextID, Stopped: s.stopped}
	if len(s.runs) > 0 {
		sn.Runs = make([]RunSnapshot, len(s.runs))
	}
	for i, r := range s.runs {
		rs := RunSnapshot{
			ID: r.id, Elem: r.elem, KCount: r.kcount,
			SetMask: r.setMask, LastFlat: r.lastFlat,
		}
		if len(r.events) > 0 {
			rs.Events = make([]event.Event, len(r.events))
			for j, ev := range r.events {
				rs.Events[j] = *ev
				rs.Events[j].Fields = append([]float64(nil), ev.Fields...)
			}
		}
		rs.Spans = make([]Span, len(r.spans))
		for j, sp := range r.spans {
			rs.Spans[j] = Span{Start: sp.start, N: sp.n}
		}
		sn.Runs[i] = rs
	}
	return sn
}
