// Package matcher implements incremental pattern detection over a single
// window's event subsequence. It is the "operator logic" of the paper
// (§3.3, Fig. 8): processing an event yields feedback — a partial match
// (consumption group) was created, extended, completed or abandoned — that
// the surrounding engine translates into dependency-tree updates.
//
// The matcher is deterministic and its state is deep-cloneable, which the
// SPECTRE runtime exploits when it copies speculative window versions.
//
// Semantics notes (documented here because the paper leaves them to the
// event specification language):
//
//   - Skip-till-next-match: events that match nothing are ignored and do
//     not influence the run. Only influencing events (bound events and
//     negation triggers) matter for consumption consistency.
//   - Kleene-plus is advance-first: when the run already satisfies the
//     minimum of a Kleene step and the event also matches the next
//     element, the run advances. This guarantees progress when bands
//     overlap; the paper's Q2 uses disjoint bands where the rule never
//     fires.
//   - A Kleene-plus element in final position completes on its first
//     binding (minimum-match semantics).
//   - A completing event never also starts a new run.
package matcher

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
)

// FeedbackKind enumerates the operator-logic feedback of the paper's
// Figure 8.
type FeedbackKind int

const (
	// RunStarted reports a new partial match: a consumption group must be
	// created (paper: consumptionGroupCreated).
	RunStarted FeedbackKind = iota + 1
	// EventBound reports that the event joined an existing partial match;
	// when Consumable is set it must be added to the consumption group.
	EventBound
	// RunCompleted reports a total match: a complex event is produced and
	// the consumption group completes.
	RunCompleted
	// RunAbandoned reports that the partial match can no longer complete
	// (negation fired, window ended, or a constituent was consumed):
	// the consumption group is abandoned.
	RunAbandoned
)

// String implements fmt.Stringer.
func (k FeedbackKind) String() string {
	switch k {
	case RunStarted:
		return "run-started"
	case EventBound:
		return "event-bound"
	case RunCompleted:
		return "run-completed"
	case RunAbandoned:
		return "run-abandoned"
	default:
		return fmt.Sprintf("FeedbackKind(%d)", int(k))
	}
}

// Match is a completed pattern instance.
type Match struct {
	// Constituents are the bound events in ascending sequence order.
	Constituents []*event.Event
	// Consumed are the constituents bound to consume-flagged steps, sorted
	// by sequence number.
	Consumed []*event.Event
	// CompletedAt is the event that completed the match.
	CompletedAt *event.Event
}

// Feedback is one operator-logic notification.
type Feedback struct {
	Kind FeedbackKind
	// Run identifies the partial match the feedback concerns.
	Run int
	// Event is the processed event (nil for window-end abandons).
	Event *event.Event
	// Consumable marks EventBound/RunStarted feedback whose event belongs
	// to a consume-flagged step.
	Consumable bool
	// PrevDelta/Delta are the run's completion state δ before and after
	// the event (δ = minimum events still required; 0 = complete). They
	// feed the Markov transition statistics.
	PrevDelta, Delta int
	// Match is set for RunCompleted.
	Match *Match
	// Carry lists events pre-bound in a freshly (re)started run — the
	// retained leader of a restart-after-leader pattern when its step is
	// consume-flagged. They belong in the new consumption group.
	Carry []*event.Event
}

// compiled element: a positive element plus the negation guards active
// while it is pending.
type pelem struct {
	kind   pattern.ElemKind
	step   pattern.Step
	set    []pattern.Step
	flat   []int // flat step indices (1 for step, len(set) for sets)
	guards []guard
	// sufMin is the minimum number of events needed by the elements after
	// this one.
	sufMin int
}

type guard struct {
	step pattern.Step
	flat int
}

// Compiled is an immutable compiled pattern shared by all states.
type Compiled struct {
	name      string
	elems     []pelem
	selection pattern.SelectionPolicy
	minLen    int
	// steps maps every flat index — guards, plain steps and set members —
	// to its compiled step, so a binding's step is one index away.
	steps []*pattern.Step
}

// Compile validates and compiles a pattern.
func Compile(p *pattern.Pattern) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	flat := p.FlatSteps()
	c := &Compiled{
		name:      p.Name,
		selection: p.Selection,
		steps:     make([]*pattern.Step, len(flat)),
		minLen:    p.MinLength(),
	}
	// Map (elem, member) to flat index.
	flatIdx := make(map[[2]int]int, len(flat))
	for i, fs := range flat {
		flatIdx[[2]int{fs.Elem, fs.Member}] = i
	}
	var pendingGuards []guard
	for ei := range p.Elements {
		el := &p.Elements[ei]
		if el.Kind == pattern.ElemStep && el.Step.Negated {
			pendingGuards = append(pendingGuards, guard{
				step: el.Step,
				flat: flatIdx[[2]int{ei, -1}],
			})
			continue
		}
		pe := pelem{kind: el.Kind}
		switch el.Kind {
		case pattern.ElemStep:
			pe.step = el.Step
			pe.flat = []int{flatIdx[[2]int{ei, -1}]}
		case pattern.ElemSet:
			pe.set = el.Set
			pe.flat = make([]int, len(el.Set))
			for mi := range el.Set {
				pe.flat[mi] = flatIdx[[2]int{ei, mi}]
			}
		}
		pe.guards = pendingGuards
		pendingGuards = nil
		c.elems = append(c.elems, pe)
	}
	// Negations trailing the last positive element could never fire (the
	// match has already completed), so they are rejected.
	if len(pendingGuards) > 0 {
		return nil, fmt.Errorf("matcher: pattern %q has trailing negated step %q with no following step",
			p.Name, pendingGuards[0].step.Name)
	}
	// The table points into c.elems, so it is filled once c.elems has
	// stopped growing.
	for ei := range c.elems {
		el := &c.elems[ei]
		for gi := range el.guards {
			c.steps[el.guards[gi].flat] = &el.guards[gi].step
		}
		switch el.kind {
		case pattern.ElemStep:
			c.steps[el.flat[0]] = &el.step
		case pattern.ElemSet:
			for mi, fi := range el.flat {
				c.steps[fi] = &el.set[mi]
			}
		}
	}
	// Suffix minimum lengths.
	suf := 0
	for i := len(c.elems) - 1; i >= 0; i-- {
		c.elems[i].sufMin = suf
		switch c.elems[i].kind {
		case pattern.ElemStep:
			suf++
		case pattern.ElemSet:
			suf += len(c.elems[i].set)
		}
	}
	return c, nil
}

// MinLength returns the pattern's minimum match length (δ_max).
func (c *Compiled) MinLength() int { return c.minLen }

// Name returns the pattern name.
func (c *Compiled) Name() string { return c.name }

// span locates one flat step's bindings inside a run's backing slice.
type span struct {
	start, n int32
}

// run is one partial match. Bindings are interned in a single backing
// slice in bind order with per-flat-index spans, so cloning a run is two
// memcpys instead of one allocation per step. The layout invariant —
// each flat index's bindings are contiguous — holds because only the
// pending element accumulates bindings, always at the tail.
type run struct {
	id       int
	elem     int // current pending element index
	kcount   int // events bound to the pending Kleene element
	setMask  uint64
	lastFlat int32          // flat index of the most recent binding, -1 if none
	events   []*event.Event // all bound events, bind order
	spans    []span         // indexed by flat step index
}

var _ pattern.Binder = (*run)(nil)

// Bound implements pattern.Binder.
func (r *run) Bound(step int) []*event.Event {
	if step < 0 || step >= len(r.spans) {
		return nil
	}
	sp := r.spans[step]
	if sp.n == 0 {
		return nil
	}
	return r.events[sp.start : sp.start+sp.n]
}

// bind appends ev as a binding of flat step index fi.
func (r *run) bind(fi int, ev *event.Event) {
	sp := &r.spans[fi]
	if sp.n == 0 {
		sp.start = int32(len(r.events))
	}
	r.events = append(r.events, ev)
	sp.n++
	r.lastFlat = int32(fi)
}

// unbind drops every binding. It nils the bound prefix of the backing, so
// no entry past a run's bindings ever points at an event: a run kept for
// reuse pins no arena chunk once unbound.
func (r *run) unbind() {
	clear(r.events)
	r.events = r.events[:0]
	clear(r.spans)
}

// usesAny reports whether the run has bound any event in seqs (sorted).
func (r *run) usesAny(seqs []uint64) bool {
	for _, ev := range r.events {
		i := sort.Search(len(seqs), func(i int) bool { return seqs[i] >= ev.Seq })
		if i < len(seqs) && seqs[i] == ev.Seq {
			return true
		}
	}
	return false
}

// State is the mutable matcher state of one window version.
type State struct {
	c       *Compiled
	runs    []*run
	free    []*run // recycled runs; the per-event hot path never allocates
	idxBuf  []int  // scratch for batched run removal
	nextID  int
	stopped bool // StopAfterMatch fired
}

// NewState returns a fresh state for one window.
func (c *Compiled) NewState() *State {
	return &State{c: c}
}

// newRun takes a run from the freelist (or allocates one) and resets it.
func (s *State) newRun() *run {
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		r.elem, r.kcount, r.setMask, r.lastFlat = 0, 0, 0, -1
		// A run that never bound an event — a failed start, the common
		// case — still has all-zero spans.
		if len(r.events) > 0 {
			r.unbind()
		}
		return r
	}
	return &run{lastFlat: -1, spans: make([]span, len(s.c.steps))}
}

// recycle returns a run to the freelist.
func (s *State) recycle(r *run) {
	s.free = append(s.free, r)
}

// Reset returns the state to what NewState returns — no open run, run
// ids from zero, detection not stopped — and keeps its buffers: open runs
// move to the freelist. Every run is unbound, so a state kept for reuse
// holds no event.
func (s *State) Reset() {
	for _, r := range s.runs {
		s.recycle(r)
	}
	clear(s.runs)
	s.runs = s.runs[:0]
	for _, r := range s.free {
		if len(r.events) > 0 {
			r.unbind()
		}
	}
	s.nextID, s.stopped = 0, false
}

// Clone deep-copies the state. Each cloned run is two slice copies, so
// forking a speculative window version costs O(open bindings), not
// O(pattern steps × allocations).
func (s *State) Clone() *State {
	cl := &State{c: s.c, nextID: s.nextID, stopped: s.stopped}
	cl.runs = make([]*run, len(s.runs))
	for i, r := range s.runs {
		nr := &run{
			id: r.id, elem: r.elem, kcount: r.kcount,
			setMask: r.setMask, lastFlat: r.lastFlat,
			events: append(make([]*event.Event, 0, len(r.events)), r.events...),
			spans:  append(make([]span, 0, len(r.spans)), r.spans...),
		}
		cl.runs[i] = nr
	}
	return cl
}

// OpenRuns reports the number of open partial matches.
func (s *State) OpenRuns() int { return len(s.runs) }

// Stopped reports whether detection has ended for this window
// (StopAfterMatch fired).
func (s *State) Stopped() bool { return s.stopped }

// RunInfo describes an open run.
type RunInfo struct{ ID, Delta int }

// Runs appends every open run's id and δ to buf and returns it
// (allocation-free when buf has capacity).
func (s *State) Runs(buf []RunInfo) []RunInfo {
	for _, r := range s.runs {
		buf = append(buf, RunInfo{ID: r.id, Delta: s.delta(r)})
	}
	return buf
}

// RunDelta returns the δ of run id, or -1 when the run is not open.
func (s *State) RunDelta(id int) int {
	for _, r := range s.runs {
		if r.id == id {
			return s.delta(r)
		}
	}
	return -1
}

// delta computes the run's completion state δ.
func (s *State) delta(r *run) int {
	if r.elem >= len(s.c.elems) {
		return 0
	}
	el := &s.c.elems[r.elem]
	var remaining int
	switch el.kind {
	case pattern.ElemStep:
		if el.step.Quant == pattern.OneOrMore && r.kcount > 0 {
			remaining = 0
		} else {
			remaining = 1
		}
	case pattern.ElemSet:
		remaining = len(el.set) - bits.OnesCount64(r.setMask)
	}
	return remaining + el.sufMin
}

// Process feeds one event to the matcher, appending feedback to fb and
// returning it. Events must be fed in stream order.
func (s *State) Process(ev *event.Event, fb []Feedback) []Feedback {
	// Phase 1: negation guards and advancement of open runs.
	// Runs are scanned in creation order; removals are batched.
	removed := s.idxBuf[:0]
	for ri, r := range s.runs {
		prevDelta := s.delta(r)
		el := &s.c.elems[r.elem]

		// Negation guards active while this element is pending.
		aborted := false
		for gi := range el.guards {
			if el.guards[gi].step.Matches(ev, r) {
				fb = append(fb, Feedback{
					Kind: RunAbandoned, Run: r.id, Event: ev,
					PrevDelta: prevDelta, Delta: prevDelta,
				})
				removed = append(removed, ri)
				aborted = true
				break
			}
		}
		if aborted {
			continue
		}

		bound, completed := s.advance(r, ev)
		if !bound {
			continue
		}
		newDelta := s.delta(r)
		if completed {
			m := s.buildMatch(r, ev)
			fb = append(fb, Feedback{
				Kind: RunCompleted, Run: r.id, Event: ev,
				PrevDelta: prevDelta, Delta: 0, Match: m,
			})
			switch s.c.selection.OnCompletion {
			case pattern.RestartAfterLeader:
				if s.leaderConsumed(r, m) {
					removed = append(removed, ri)
				} else {
					s.resetAfterLeader(r)
					fb = append(fb, s.restartFeedback(r, ev))
				}
			case pattern.RestartFresh:
				removed = append(removed, ri)
			default: // StopAfterMatch
				removed = append(removed, ri)
				s.stopped = true
			}
			continue
		}
		step := s.boundStep(r, ev)
		fb = append(fb, Feedback{
			Kind: EventBound, Run: r.id, Event: ev,
			Consumable: step != nil && step.Consume,
			PrevDelta:  prevDelta, Delta: newDelta,
		})
	}
	if len(removed) > 0 {
		s.removeRuns(removed)
	}
	s.idxBuf = removed[:0]
	if s.stopped {
		// StopAfterMatch ends detection for the whole window: any other
		// open partial matches are abandoned so their consumption groups
		// resolve.
		fb = s.WindowEnd(fb)
	}

	// Phase 2: start a new run when the event matches the first element
	// and the selection policy permits another run. A completing event
	// never also starts a new run (the completion feedback above already
	// consumed it semantically).
	if s.stopped {
		return fb
	}
	if max := s.c.selection.MaxConcurrentRuns; max > 0 && len(s.runs) >= max {
		return fb
	}
	if s.eventJustCompleted(fb, ev) {
		return fb
	}
	first := &s.c.elems[0]
	r := s.newRun()
	r.id = s.nextID
	if boundOK, completed := s.tryStart(r, first, ev); !boundOK {
		s.recycle(r)
	} else {
		s.nextID++
		s.runs = append(s.runs, r)
		step := s.boundStep(r, ev)
		fb = append(fb, Feedback{
			Kind: RunStarted, Run: r.id, Event: ev,
			Consumable: step != nil && step.Consume,
			PrevDelta:  s.c.minLen, Delta: s.delta(r),
		})
		if completed {
			m := s.buildMatch(r, ev)
			fb = append(fb, Feedback{
				Kind: RunCompleted, Run: r.id, Event: ev,
				PrevDelta: s.delta(r), Delta: 0, Match: m,
			})
			switch s.c.selection.OnCompletion {
			case pattern.RestartAfterLeader:
				if s.leaderConsumed(r, m) {
					s.removeRun(r.id)
				} else {
					s.resetAfterLeader(r)
					fb = append(fb, s.restartFeedback(r, ev))
				}
			case pattern.RestartFresh:
				s.removeRun(r.id)
			default:
				s.removeRun(r.id)
				s.stopped = true
				fb = s.WindowEnd(fb)
			}
		}
	}
	return fb
}

// restartFeedback announces the re-opened partial match after a
// restart-after-leader completion: a new consumption group begins,
// pre-seeded with the retained leader when its step is consume-flagged.
func (s *State) restartFeedback(r *run, ev *event.Event) Feedback {
	lead := &s.c.elems[0].step
	var carry []*event.Event
	if lead.Consume {
		carry = append([]*event.Event(nil), r.Bound(s.c.elems[0].flat[0])...)
	}
	return Feedback{
		Kind: RunStarted, Run: r.id, Event: ev, Carry: carry,
		PrevDelta: s.c.minLen, Delta: s.delta(r),
	}
}

// eventJustCompleted reports whether ev carried a RunCompleted feedback in
// this processing round.
func (s *State) eventJustCompleted(fb []Feedback, ev *event.Event) bool {
	for i := len(fb) - 1; i >= 0; i-- {
		if fb[i].Event != ev {
			break
		}
		if fb[i].Kind == RunCompleted {
			return true
		}
	}
	return false
}

// tryStart attempts to bind ev as the first event of a fresh run.
func (s *State) tryStart(r *run, first *pelem, ev *event.Event) (bound, completed bool) {
	switch first.kind {
	case pattern.ElemStep:
		if !first.step.Matches(ev, r) {
			return false, false
		}
		r.bind(first.flat[0], ev)
		if first.step.Quant == pattern.OneOrMore {
			r.kcount = 1
			// Minimum-match: a final Kleene element completes immediately.
			if r.elem == len(s.c.elems)-1 {
				r.elem = len(s.c.elems)
				return true, true
			}
			return true, false
		}
		r.elem++
		return true, r.elem == len(s.c.elems)
	case pattern.ElemSet:
		for mi := range first.set {
			if first.set[mi].Matches(ev, r) {
				r.setMask = 1 << uint(mi)
				r.bind(first.flat[mi], ev)
				if bits.OnesCount64(r.setMask) == len(first.set) {
					r.elem++
					r.setMask = 0
					return true, r.elem == len(s.c.elems)
				}
				return true, false
			}
		}
	}
	return false, false
}

// advance tries to bind ev into the open run r. It returns whether the
// event was bound and whether the run completed.
func (s *State) advance(r *run, ev *event.Event) (bound, completed bool) {
	el := &s.c.elems[r.elem]
	switch el.kind {
	case pattern.ElemStep:
		if el.step.Quant == pattern.OneOrMore && r.kcount > 0 {
			// Advance-first: prefer moving to the next element.
			if r.elem+1 < len(s.c.elems) && s.bindInto(r, r.elem+1, ev) {
				return true, r.elem == len(s.c.elems)
			}
			if el.step.Matches(ev, r) {
				r.bind(el.flat[0], ev)
				return true, false
			}
			return false, false
		}
		if el.step.Matches(ev, r) {
			r.bind(el.flat[0], ev)
			if el.step.Quant == pattern.OneOrMore {
				r.kcount = 1
				if r.elem == len(s.c.elems)-1 {
					r.elem = len(s.c.elems)
					return true, true
				}
				return true, false
			}
			r.elem++
			r.kcount = 0
			return true, r.elem == len(s.c.elems)
		}
		return false, false
	case pattern.ElemSet:
		for mi := range el.set {
			if r.setMask&(1<<uint(mi)) != 0 {
				continue
			}
			if el.set[mi].Matches(ev, r) {
				r.setMask |= 1 << uint(mi)
				r.bind(el.flat[mi], ev)
				if bits.OnesCount64(r.setMask) == len(el.set) {
					r.elem++
					r.setMask = 0
					r.kcount = 0
					return true, r.elem == len(s.c.elems)
				}
				return true, false
			}
		}
		return false, false
	}
	return false, false
}

// bindInto binds ev into element ei (used by advance-first). On success the
// run's position moves to ei (or past it).
func (s *State) bindInto(r *run, ei int, ev *event.Event) bool {
	el := &s.c.elems[ei]
	// Negation guards of the next element also apply during advance-first;
	// a guard match is handled by the caller's guard pass on the *current*
	// element only, so be conservative: an event matching a guard of the
	// next element does not advance.
	switch el.kind {
	case pattern.ElemStep:
		if !el.step.Matches(ev, r) {
			return false
		}
		r.elem = ei
		r.kcount = 0
		r.bind(el.flat[0], ev)
		if el.step.Quant == pattern.OneOrMore {
			r.kcount = 1
			if ei == len(s.c.elems)-1 {
				r.elem = len(s.c.elems)
				return true
			}
			return true
		}
		r.elem = ei + 1
		return true
	case pattern.ElemSet:
		for mi := range el.set {
			if el.set[mi].Matches(ev, r) {
				r.elem = ei
				r.kcount = 0
				r.setMask = 1 << uint(mi)
				r.bind(el.flat[mi], ev)
				if bits.OnesCount64(r.setMask) == len(el.set) {
					r.elem = ei + 1
					r.setMask = 0
				}
				return true
			}
		}
		return false
	}
	return false
}

// boundStep returns the step ev was just bound to in r (the last binding).
func (s *State) boundStep(r *run, ev *event.Event) *pattern.Step {
	if r.lastFlat < 0 || len(r.events) == 0 || r.events[len(r.events)-1] != ev {
		return nil
	}
	return s.c.steps[r.lastFlat]
}

// buildMatch assembles the Match for a completed run: two allocations
// whatever the match length, the Match and one backing that Constituents
// and Consumed split. Each slice's capacity ends where its length does,
// so an append to one cannot write into the other.
func (s *State) buildMatch(r *run, completedAt *event.Event) *Match {
	n, nc := len(r.events), 0
	for fi, sp := range r.spans {
		if s.c.steps[fi].Consume {
			nc += int(sp.n)
		}
	}
	all := make([]*event.Event, n, n+nc)
	copy(all, r.events)
	m := &Match{CompletedAt: completedAt, Constituents: all[:n:n]}
	if nc > 0 {
		m.Consumed = all[n : n : n+nc]
		for fi, sp := range r.spans {
			if sp.n > 0 && s.c.steps[fi].Consume {
				m.Consumed = append(m.Consumed, r.events[sp.start:sp.start+sp.n]...)
			}
		}
	}
	// Sequence numbers are unique, so the order is total.
	slices.SortFunc(m.Constituents, bySeq)
	slices.SortFunc(m.Consumed, bySeq)
	return m
}

func bySeq(a, b *event.Event) int { return cmp.Compare(a.Seq, b.Seq) }

// leaderConsumed reports whether the run's leading-element binding was
// consumed by m (restart-after-leader cannot keep a consumed leader).
func (s *State) leaderConsumed(r *run, m *Match) bool {
	lead := r.Bound(s.c.elems[0].flat[0])
	if len(lead) == 0 {
		return true
	}
	for _, c := range m.Consumed {
		if c == lead[0] {
			return true
		}
	}
	return false
}

// resetAfterLeader resets the run to the state right after its leading
// element matched, keeping the leader binding. The backing slice is
// truncated in place — the leader is always the run's first binding
// (restart-after-leader requires a single-event leading step).
func (s *State) resetAfterLeader(r *run) {
	leadFlat := s.c.elems[0].flat[0]
	lead := r.events[r.spans[leadFlat].start]
	r.unbind()
	r.events = append(r.events, lead)
	r.spans[leadFlat] = span{start: 0, n: 1}
	r.lastFlat = int32(leadFlat)
	r.elem = 1
	r.kcount = 0
	r.setMask = 0
}

// WindowEnd abandons all open runs (the window closed before completion).
func (s *State) WindowEnd(fb []Feedback) []Feedback {
	for _, r := range s.runs {
		fb = append(fb, Feedback{
			Kind: RunAbandoned, Run: r.id,
			PrevDelta: s.delta(r), Delta: s.delta(r),
		})
		s.recycle(r)
	}
	clear(s.runs)
	s.runs = s.runs[:0]
	return fb
}

// AbandonRunsUsing abandons every open run that has bound an event whose
// sequence number is in seqs (ascending). It implements same-window
// consumption: a consumed event invalidates partial matches that use it.
func (s *State) AbandonRunsUsing(seqs []uint64, fb []Feedback) []Feedback {
	if len(seqs) == 0 || len(s.runs) == 0 {
		return fb
	}
	removed := s.idxBuf[:0]
	for ri, r := range s.runs {
		if r.usesAny(seqs) {
			fb = append(fb, Feedback{
				Kind: RunAbandoned, Run: r.id,
				PrevDelta: s.delta(r), Delta: s.delta(r),
			})
			removed = append(removed, ri)
		}
	}
	if len(removed) > 0 {
		s.removeRuns(removed)
	}
	s.idxBuf = removed[:0]
	return fb
}

func (s *State) removeRun(id int) {
	for ri, r := range s.runs {
		if r.id == id {
			copy(s.runs[ri:], s.runs[ri+1:])
			s.runs[len(s.runs)-1] = nil // no duplicate reference in the tail
			s.runs = s.runs[:len(s.runs)-1]
			s.recycle(r)
			return
		}
	}
}

// removeRuns removes the runs at the given ascending indices, recycling
// them through the freelist.
func (s *State) removeRuns(idx []int) {
	out := s.runs[:0]
	j := 0
	for i, r := range s.runs {
		if j < len(idx) && idx[j] == i {
			j++
			s.recycle(r)
			continue
		}
		out = append(out, r)
	}
	// Clear the tail so the slice holds no duplicate references.
	for i := len(out); i < len(s.runs); i++ {
		s.runs[i] = nil
	}
	s.runs = out
}
