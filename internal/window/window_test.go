package window

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
)

func observeAll(m *Manager, events []event.Event) (opened []*Window) {
	for i := range events {
		events[i].Seq = uint64(i)
		o, _ := m.Observe(&events[i])
		opened = append(opened, o...)
	}
	return opened
}

func TestCountSlidingWindows(t *testing.T) {
	m := NewManager(pattern.WindowSpec{
		StartKind: pattern.StartEvery, Every: 10,
		EndKind: pattern.EndCount, Count: 25,
	})
	events := make([]event.Event, 35)
	opened := observeAll(m, events)
	if len(opened) != 4 { // at seq 0, 10, 20, 30
		t.Fatalf("opened %d windows, want 4", len(opened))
	}
	w0 := opened[0]
	if !w0.Resolved() || w0.StartSeq != 0 || w0.EndSeq() != 25 {
		t.Fatalf("w0 = %v", w0)
	}
	if w0.Size() != 25 {
		t.Fatalf("size = %d, want 25", w0.Size())
	}
	if !w0.Contains(24) || w0.Contains(25) {
		t.Fatal("containment bounds")
	}
	if !w0.Overlaps(opened[1]) || !w0.Overlaps(opened[2]) || w0.Overlaps(opened[3]) {
		t.Fatal("overlap relations with slides 10/20/30 vs end 25")
	}
	if m.AvgSize() != 25 {
		t.Fatalf("avg size = %g, want 25", m.AvgSize())
	}
}

func TestPredicateStartDurationEnd(t *testing.T) {
	reg := event.NewRegistry()
	ta := reg.TypeID("A")
	tb := reg.TypeID("B")
	m := NewManager(pattern.WindowSpec{
		StartKind:  pattern.StartOnMatch,
		StartTypes: []event.Type{ta},
		EndKind:    pattern.EndDuration,
		Duration:   time.Minute,
	})
	sec := func(s int) int64 { return int64(s) * int64(time.Second) }
	events := []event.Event{
		{TS: sec(0), Type: ta},  // opens w0
		{TS: sec(30), Type: tb}, // inside
		{TS: sec(59), Type: ta}, // opens w1
		{TS: sec(61), Type: tb}, // resolves w0 (61 ≥ 0+60)
		{TS: sec(200), Type: tb},
	}
	opened := observeAll(m, events)
	if len(opened) != 2 {
		t.Fatalf("opened %d windows, want 2", len(opened))
	}
	w0, w1 := opened[0], opened[1]
	if !w0.Resolved() || w0.EndSeq() != 3 {
		t.Fatalf("w0 end = %v, want 3 (the first event at/past the boundary)", w0.EndSeq())
	}
	if !w1.Resolved() || w1.EndSeq() != 4 {
		t.Fatalf("w1 end = %v, want 4 (event at 200s resolves it)", w1.EndSeq())
	}
	if m.Opened() != 2 {
		t.Fatalf("Opened = %d", m.Opened())
	}
}

func TestFinishResolvesPending(t *testing.T) {
	reg := event.NewRegistry()
	ta := reg.TypeID("A")
	m := NewManager(pattern.WindowSpec{
		StartKind:  pattern.StartOnMatch,
		StartTypes: []event.Type{ta},
		EndKind:    pattern.EndDuration,
		Duration:   time.Hour,
	})
	events := []event.Event{{TS: 0, Type: ta}, {TS: 1, Type: ta}}
	opened := observeAll(m, events)
	if opened[0].Resolved() {
		t.Fatal("window must be unresolved before Finish")
	}
	resolved := m.Finish(2)
	if len(resolved) != 2 {
		t.Fatalf("Finish resolved %d windows, want 2", len(resolved))
	}
	if opened[0].EndSeq() != 2 || opened[1].EndSeq() != 2 {
		t.Fatal("Finish must set the boundary to the stream length")
	}
}

func TestUnresolvedOverlapConservative(t *testing.T) {
	w1 := NewWindow(0, 0, 0)
	w2 := NewWindow(1, 100, 0)
	if !w1.Overlaps(w2) {
		t.Fatal("unresolved windows must conservatively overlap successors")
	}
	w1.SetEndSeq(50)
	if w1.Overlaps(w2) {
		t.Fatal("resolved non-overlapping windows must not overlap")
	}
}

func TestAvgSizeFallback(t *testing.T) {
	m := NewManager(pattern.WindowSpec{
		StartKind: pattern.StartEvery, Every: 5,
		EndKind: pattern.EndCount, Count: 42,
	})
	if m.AvgSize() != 42 {
		t.Fatalf("count-window fallback avg = %g, want 42", m.AvgSize())
	}
	md := NewManager(pattern.WindowSpec{
		StartKind: pattern.StartEvery, Every: 5,
		EndKind: pattern.EndDuration, Duration: time.Second,
	})
	if md.AvgSize() != 1 {
		t.Fatalf("duration-window fallback avg = %g, want 1", md.AvgSize())
	}
}

func TestWindowString(t *testing.T) {
	w := NewWindow(2, 10, 0)
	if w.String() != "w2[10,?)" {
		t.Fatalf("unresolved string = %q", w.String())
	}
	w.SetEndSeq(20)
	if w.String() != "w2[10,20)" {
		t.Fatalf("resolved string = %q", w.String())
	}
}

// TestFinishWithoutResolutions covers the stream-cut edge: windows open
// but the stream ends before any duration boundary arrives, so every
// boundary (and the size statistics) comes from Finish alone.
func TestFinishWithoutResolutions(t *testing.T) {
	reg := event.NewRegistry()
	ta := reg.TypeID("A")
	m := NewManager(pattern.WindowSpec{
		StartKind:  pattern.StartOnMatch,
		StartTypes: []event.Type{ta},
		EndKind:    pattern.EndDuration,
		Duration:   time.Hour,
	})
	// Before anything happened, AvgSize falls back to 1 for duration
	// windows and Finish on an empty manager is a no-op.
	if m.AvgSize() != 1 {
		t.Fatalf("AvgSize fallback = %v, want 1", m.AvgSize())
	}
	if resolved := m.Finish(0); len(resolved) != 0 {
		t.Fatalf("Finish with no windows resolved %d", len(resolved))
	}

	events := []event.Event{
		{TS: 0, Type: ta},
		{TS: int64(time.Minute), Type: ta},
		{TS: int64(2 * time.Minute), Type: ta},
	}
	opened := observeAll(m, events)
	if len(opened) != 3 {
		t.Fatalf("opened %d windows, want 3", len(opened))
	}
	for i, w := range opened {
		if w.Resolved() {
			t.Fatalf("window %d resolved before Finish", i)
		}
		if w.Size() != 0 {
			t.Fatalf("unresolved window %d must report size 0", i)
		}
	}
	resolved := m.Finish(uint64(len(events)))
	if len(resolved) != 3 {
		t.Fatalf("Finish resolved %d windows, want 3", len(resolved))
	}
	// Boundaries are the stream length; sizes shrink with the start seq.
	for i, w := range opened {
		if w.EndSeq() != 3 {
			t.Fatalf("window %d boundary = %d, want 3", i, w.EndSeq())
		}
		if want := uint64(3 - i); w.Size() != want {
			t.Fatalf("window %d size = %d, want %d", i, w.Size(), want)
		}
	}
	// The averaged sizes (3+2+1)/3 feed the scheduler's probability model.
	if got := m.AvgSize(); got != 2 {
		t.Fatalf("AvgSize = %v, want 2", got)
	}
	// Finish is terminal: a second call has nothing left to resolve.
	if again := m.Finish(99); len(again) != 0 {
		t.Fatalf("second Finish resolved %d windows", len(again))
	}
}

// gappedStream returns n events at strictly increasing random positions
// from start, with gaps up to 3·every long, increasing timestamps and
// random types 1..3.
func gappedStream(rng *rand.Rand, start uint64, n, every int) []event.Event {
	events := make([]event.Event, n)
	seq, ts := start, int64(0)
	for i := range events {
		events[i] = event.Event{Seq: seq, TS: ts, Type: event.Type(1 + rng.Intn(3))}
		seq += 1 + uint64(rng.Intn(3*every))
		ts += int64(rng.Intn(4))
	}
	return events
}

// TestEveryOpensOnMultiples: over random, strictly increasing, gapped
// positions, FROM EVERY opens a window exactly at the positions that
// are multiples of Every — from position 0, and on a manager resumed
// mid-stream with ResumeAt — with dense ids, whatever the end kind.
func TestEveryOpensOnMultiples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, every := range []int{1, 2, 7, 64} {
		for _, end := range []pattern.EndKind{pattern.EndCount, pattern.EndDuration} {
			for _, start := range []uint64{0, 1, 12345} {
				spec := pattern.WindowSpec{StartKind: pattern.StartEvery, Every: every, EndKind: end, Count: 3 * every, Duration: 10}
				m := NewManager(spec)
				nextID := uint64(0)
				if start > 0 {
					nextID = 40
					m.ResumeAt(nextID)
				}
				events := gappedStream(rng, start, 2000, every)
				opens := 0
				for i := range events {
					ev := &events[i]
					opened, _ := m.Observe(ev)
					want := ev.Seq%uint64(every) == 0
					if want != (len(opened) == 1) || len(opened) > 1 {
						t.Fatalf("every %d, end %v, from %d: position %d opened %d windows, want open=%v", every, end, start, ev.Seq, len(opened), want)
					}
					if want {
						if w := opened[0]; w.StartSeq != ev.Seq || w.ID != nextID {
							t.Fatalf("every %d: opened %v at position %d, want id %d", every, w, ev.Seq, nextID)
						}
						nextID++
						opens++
					}
				}
				if opens == 0 {
					t.Fatalf("every %d, end %v, from %d: no window opened; the case is vacuous", every, end, start)
				}
			}
		}
	}
}

// refManager is window formation as Observe performed it with no quiet
// positions: every event runs the whole body, and FROM EVERY tests
// seq % Every.
type refManager struct {
	spec    pattern.WindowSpec
	nextID  uint64
	pending []*Window
}

func (r *refManager) observe(ev *event.Event) (opened, resolved []*Window) {
	if r.spec.EndKind == pattern.EndDuration {
		for len(r.pending) > 0 && ev.TS-r.pending[0].StartTS >= int64(r.spec.Duration) {
			r.pending[0].SetEndSeq(ev.Seq)
			resolved = append(resolved, r.pending[0])
			r.pending = r.pending[1:]
		}
	}
	opens := false
	switch r.spec.StartKind {
	case pattern.StartEvery:
		opens = ev.Seq%uint64(r.spec.Every) == 0
	case pattern.StartOnMatch:
		opens = r.spec.StartMatches(ev)
	}
	if opens {
		w := NewWindow(r.nextID, ev.Seq, ev.TS)
		r.nextID++
		if r.spec.EndKind == pattern.EndCount {
			w.SetEndSeq(w.StartSeq + uint64(r.spec.Count))
			resolved = append(resolved, w)
		} else {
			r.pending = append(r.pending, w)
		}
		opened = append(opened, w)
	}
	return opened, resolved
}

// TestQuietPositionsFormNothing: for a FROM EVERY, a WITHIN d duration
// and a StartOnMatch spec, Observe forms exactly the windows the whole
// body forms on every event, and whenever it returns at once — the
// event lies below quietUntil — the whole body opens and resolves
// nothing there either.
func TestQuietPositionsFormNothing(t *testing.T) {
	specs := map[string]pattern.WindowSpec{
		"every":          {StartKind: pattern.StartEvery, Every: 5, EndKind: pattern.EndCount, Count: 12},
		"every-within":   {StartKind: pattern.StartEvery, Every: 5, EndKind: pattern.EndDuration, Duration: 9},
		"onmatch-within": {StartKind: pattern.StartOnMatch, StartTypes: []event.Type{2}, EndKind: pattern.EndDuration, Duration: 9},
		"onmatch":        {StartKind: pattern.StartOnMatch, StartTypes: []event.Type{2}, EndKind: pattern.EndCount, Count: 12},
	}
	for name, spec := range specs {
		rng := rand.New(rand.NewSource(2))
		m, ref := NewManager(spec), &refManager{spec: spec}
		quiet := 0
		for _, ev := range gappedStream(rng, 0, 5000, 5) {
			fast := ev.Seq < m.quietUntil
			opened, resolved := m.Observe(&ev)
			wantOpened, wantResolved := ref.observe(&ev)
			if fast {
				quiet++
				if len(wantOpened)+len(wantResolved) > 0 {
					t.Fatalf("%s: position %d is quiet, but the whole body opens %v and resolves %v", name, ev.Seq, wantOpened, wantResolved)
				}
			}
			if fmt.Sprint(opened, resolved) != fmt.Sprint(wantOpened, wantResolved) {
				t.Fatalf("%s: position %d opened %v and resolved %v, want %v and %v", name, ev.Seq, opened, resolved, wantOpened, wantResolved)
			}
		}
		if (quiet > 0) != (name == "every") {
			t.Fatalf("%s: %d quiet positions; only FROM EVERY count windows have any", name, quiet)
		}
	}
}
