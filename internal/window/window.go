// Package window implements window formation: turning the raw, totally
// ordered input stream into the (possibly overlapping) windows that the
// operator instances process (paper §2.2). Windows are contiguous ranges of
// sequence numbers whose boundaries are fixed at split time by the
// splitter; consumption never changes window extents, only detection inside
// them.
package window

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
)

// UnknownEnd marks a window whose end boundary is not yet determined
// (time-scoped windows before their closing event arrived).
const UnknownEnd = uint64(math.MaxUint64)

// Window is one split of the input stream: the half-open sequence range
// [StartSeq, EndSeq()). StartSeq, StartTS and ID are immutable; the end
// boundary is published atomically by the splitter once known, so operator
// instances may read it concurrently.
type Window struct {
	// ID is the window's position in window order (0-based, dense).
	ID uint64
	// StartSeq is the sequence number of the first event in the window.
	StartSeq uint64
	// StartTS is the timestamp of the opening event (used by
	// duration-scoped windows).
	StartTS int64

	end atomic.Uint64 // exclusive end boundary; UnknownEnd until resolved
}

// NewWindow constructs a window with an unknown end boundary.
func NewWindow(id, startSeq uint64, startTS int64) *Window {
	w := &Window{ID: id, StartSeq: startSeq, StartTS: startTS}
	w.end.Store(UnknownEnd)
	return w
}

// EndSeq returns the exclusive end boundary, or UnknownEnd.
func (w *Window) EndSeq() uint64 { return w.end.Load() }

// SetEndSeq publishes the end boundary (splitter only).
func (w *Window) SetEndSeq(end uint64) { w.end.Store(end) }

// Resolved reports whether the end boundary is known.
func (w *Window) Resolved() bool { return w.end.Load() != UnknownEnd }

// Size returns the window length in events; it is only meaningful once
// resolved.
func (w *Window) Size() uint64 {
	end := w.end.Load()
	if end == UnknownEnd {
		return 0
	}
	return end - w.StartSeq
}

// Contains reports whether seq falls inside the window (unresolved windows
// contain everything from StartSeq on).
func (w *Window) Contains(seq uint64) bool {
	return seq >= w.StartSeq && seq < w.end.Load()
}

// Overlaps reports whether window v shares events with w.
// Windows with unknown boundaries are conservatively treated as
// overlapping every successor.
func (w *Window) Overlaps(v *Window) bool {
	if w.StartSeq <= v.StartSeq {
		return v.StartSeq < w.end.Load()
	}
	return w.StartSeq < v.end.Load()
}

// String implements fmt.Stringer.
func (w *Window) String() string {
	if w.Resolved() {
		return fmt.Sprintf("w%d[%d,%d)", w.ID, w.StartSeq, w.end.Load())
	}
	return fmt.Sprintf("w%d[%d,?)", w.ID, w.StartSeq)
}

// Manager forms windows from the event stream according to a WindowSpec.
// It is used single-threaded by the splitter (and by the sequential
// engine). Events must be observed in sequence order.
type Manager struct {
	spec   pattern.WindowSpec
	nextID uint64

	// pendingEnd holds duration-scoped windows whose end boundary is not
	// yet known, in open order.
	pendingEnd []*Window

	// Average window-size statistics (paper Fig. 5 line 2 uses the
	// splitter's average window size).
	sizeSum   float64
	sizeCount int

	// opened and resolved are Observe's results, reused across calls.
	opened, resolved []*Window

	// nextOpen is, for FROM EVERY, the least multiple of Every past the
	// last observed position (0 before any): the next position where a
	// window may open. quietUntil is the position below which Observe
	// returns at once, because no event there can open or resolve a
	// window: nextOpen for FROM EVERY count windows, 0 for every other
	// spec, whose windows open on a predicate or end on a timestamp.
	nextOpen, quietUntil uint64
}

// NewManager returns a manager for spec. The spec must be valid.
func NewManager(spec pattern.WindowSpec) *Manager {
	return &Manager{spec: spec}
}

// Spec returns the manager's window specification.
func (m *Manager) Spec() pattern.WindowSpec { return m.spec }

// Observe ingests the next event and reports newly opened windows and
// windows whose end boundary just became known. The returned slices are
// scratch the manager owns, only valid until the next call. Positions
// must strictly increase but may have gaps. An event below quietUntil
// costs one comparison: it can neither open nor resolve a window.
func (m *Manager) Observe(ev *event.Event) (opened, resolved []*Window) {
	if ev.Seq < m.quietUntil {
		return nil, nil
	}
	return m.observe(ev)
}

// observe is Observe for an event that may open or resolve a window.
func (m *Manager) observe(ev *event.Event) (opened, resolved []*Window) {
	opened, resolved = m.opened[:0], m.resolved[:0]
	// Resolve pending duration windows first: a window scoped `WITHIN d`
	// ends right before the first event at or past StartTS+d.
	if m.spec.EndKind == pattern.EndDuration {
		for len(m.pendingEnd) > 0 {
			w := m.pendingEnd[0]
			if ev.TS-w.StartTS < int64(m.spec.Duration) {
				break
			}
			w.SetEndSeq(ev.Seq)
			m.recordSize(w)
			resolved = append(resolved, w)
			m.pendingEnd = m.pendingEnd[1:]
		}
	}

	opens := false
	switch m.spec.StartKind {
	case pattern.StartEvery:
		opens = m.opensEvery(ev.Seq)
	case pattern.StartOnMatch:
		opens = m.spec.StartMatches(ev)
	}
	if opens {
		w := NewWindow(m.nextID, ev.Seq, ev.TS)
		m.nextID++
		if m.spec.EndKind == pattern.EndCount {
			w.SetEndSeq(w.StartSeq + uint64(m.spec.Count))
			m.recordSize(w)
			resolved = append(resolved, w)
		} else {
			m.pendingEnd = append(m.pendingEnd, w)
		}
		opened = append(opened, w)
	}
	m.opened, m.resolved = opened, resolved
	return opened, resolved
}

// opensEvery reports whether seq is a multiple of Every, the FROM EVERY
// opening rule, and advances nextOpen past seq. Positions run in order,
// so only a gap that jumps past nextOpen — a dropped or foreign stretch
// of the stream, or the first position after ResumeAt — costs a
// division. For count windows it raises quietUntil to nextOpen: until
// then, no event opens a window, and none resolves one.
func (m *Manager) opensEvery(seq uint64) bool {
	every := uint64(m.spec.Every)
	if seq > m.nextOpen {
		m.nextOpen = seq / every * every
		if m.nextOpen < seq {
			m.nextOpen += every
		}
	}
	opens := seq == m.nextOpen
	if opens {
		m.nextOpen += every
	}
	if m.spec.EndKind == pattern.EndCount {
		m.quietUntil = m.nextOpen
	}
	return opens
}

// Finish resolves all still-pending windows at stream end: their boundary
// is the stream length.
func (m *Manager) Finish(streamLen uint64) (resolved []*Window) {
	for _, w := range m.pendingEnd {
		w.SetEndSeq(streamLen)
		m.recordSize(w)
		resolved = append(resolved, w)
	}
	m.pendingEnd = nil
	return resolved
}

func (m *Manager) recordSize(w *Window) {
	m.sizeSum += float64(w.Size())
	m.sizeCount++
}

// AvgSize returns the average resolved window size in events. Before any
// window resolved it falls back to the spec's count (count windows) or 1.
func (m *Manager) AvgSize() float64 {
	if m.sizeCount == 0 {
		if m.spec.EndKind == pattern.EndCount {
			return float64(m.spec.Count)
		}
		return 1
	}
	return m.sizeSum / float64(m.sizeCount)
}

// Opened reports how many windows have been opened so far.
func (m *Manager) Opened() uint64 { return m.nextID }

// ResumeAt fast-forwards the id assignment to nextID without opening
// windows. Crash recovery primes a fresh manager with the persisted cut's
// next-window id before replaying the journal suffix: windows below the
// cut already popped and must never be re-assigned, while the replayed
// events re-open the live windows under their original ids (window
// formation depends only on Seq/TS, so replay re-forms them identically).
func (m *Manager) ResumeAt(nextID uint64) {
	if nextID > m.nextID {
		m.nextID = nextID
	}
}
