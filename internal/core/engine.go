package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"github.com/spectrecep/spectre/internal/arena"
	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/faultinject"
	"github.com/spectrecep/spectre/internal/markov"
	"github.com/spectrecep/spectre/internal/matcher"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/plan"
	"github.com/spectrecep/spectre/internal/shed"
	"github.com/spectrecep/spectre/internal/stats"
	"github.com/spectrecep/spectre/internal/stream"
	"github.com/spectrecep/spectre/internal/window"
)

// lagMark is one root-emission latency probe: when a cut reaches
// boundary seq, the events of the mark's ingest batch have been fully
// validated and emitted.
type lagMark struct {
	seq uint64
	at  time.Time
}

// lagMarkCap bounds the pending lag probes per shard; a backlog beyond
// it drops the newest marks (the oldest ones measure the worst lag,
// which is the signal that matters).
const lagMarkCap = 256

// ErrAlreadyRan is returned when Run is called twice on one engine.
var ErrAlreadyRan = errors.New("core: an Engine can only Run once")

// program is the immutable, compiled form of a query: everything shards of
// the same query share. It is safe for concurrent read access.
type program struct {
	cfg       Config
	query     *pattern.Query
	compiled  *matcher.Compiled
	durWindow bool
	// plan is the cost-based evaluation plan (nil with PlanDisabled).
	// query above is the plan's rewritten deep copy when non-nil.
	plan *plan.Plan
	// typeFilter: every step is typed, so the matcher-level type skip is
	// legal (plan.RelevantType).
	typeFilter bool
}

// compile validates, plans and compiles q under cfg. The planner runs
// after validation (it relies on the normalized form) and rewrites a
// deep copy, so the caller's query value is never mutated by planning.
func compile(q *pattern.Query, cfg Config) (*program, error) {
	if cfg.Err != nil {
		return nil, cfg.Err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg.setDefaults()
	var pl *plan.Plan
	if !cfg.PlanDisabled {
		pl = plan.New(q, plan.Options{Reg: cfg.Reg})
		q = pl.Query()
	}
	compiled, err := matcher.Compile(&q.Pattern)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &program{
		cfg:        cfg,
		query:      q,
		compiled:   compiled,
		durWindow:  q.Window.EndKind == pattern.EndDuration,
		plan:       pl,
		typeFilter: pl != nil && pl.MatcherFilterActive(),
	}, nil
}

// slot is one operator-instance scheduling slot of a shard. The splitter
// publishes the assigned window version through wv; whichever worker
// claims the slot processes the next batch with the slot's scratch state.
// claims counts the claims taken and released, so it is odd while a
// worker holds the slot, and the splitter can tell from a count it read
// earlier that a claim it saw held has ended since.
type slot struct {
	wv     atomic.Pointer[deptree.WindowVersion]
	claims atomic.Uint64
	w      *worker
}

// claim takes the slot if no worker holds it.
func (sl *slot) claim() bool {
	c := sl.claims.Load()
	return c%2 == 0 && sl.claims.CompareAndSwap(c, c+1)
}

// release ends a claim on the slot. A splitter that reads the new count
// sees everything the claim did, its feedback included.
func (sl *slot) release() { sl.claims.Add(1) }

// limboBatch holds the versions that left the tree in one splitter
// cycle, with every slot's claim count as read after they were
// unassigned.
type limboBatch struct {
	versions []*deptree.WindowVersion
	claims   []uint64
}

// shardState is the complete per-(query, shard) run state of the SPECTRE
// runtime: the event arena, window manager, dependency tree, feedback
// queue, predictor and the scheduling slots. A shardState is driven
// cooperatively by the workers of a Pool: whichever worker claims the
// splitter runs one cycle, whichever claims a slot runs one batch.
type shardState struct {
	prog *program

	ar     *arena.Arena
	tree   *deptree.Tree
	winMgr *window.Manager
	pred   markov.Predictor
	model  *markov.Model // pred when it learns; nil under a fixed predictor

	fq    feedbackQueue
	slots []slot // k = Config.Instances
	// assigned mirrors the slots for the splitter's bookkeeping (Fig. 7).
	assigned []*deptree.WindowVersion
	freeBuf  []int // schedule() scratch (splitter only)

	cgSeq      atomic.Uint64
	versionSeq uint64 // splitter only
	schedMark  uint64 // splitter only; per-cycle token

	// filteredIn counts events the intake prefilter dropped for this
	// shard (incremented by the feeding side, folded into snapshots).
	filteredIn atomic.Uint64
	// Splitter-side counters, folded into snapshots: one atomic add per
	// window version instead of one metrics-lock closure.
	windowsOpened   atomic.Uint64
	versionsCreated atomic.Uint64
	versionsDropped atomic.Uint64
	// maxTreeSize publishes the tree's version high-water mark once per
	// splitter cycle, so a live query reports it.
	maxTreeSize atomic.Int64
	// shedIn counts events the load shedder dropped for this shard
	// (incremented by the feeding side, folded into snapshots).
	shedIn atomic.Uint64
	// shed is the shard's load shedder (nil unless Config.Shed). The
	// feeding side calls Offer; the splitter feeds match contributions
	// back through NoteMatch when roots drain.
	shed *shed.Shedder

	// Root-emission lag tracking (splitter only, except the published
	// bits): ingest timestamps one mark per batch; at each cut, marks at
	// or below its boundary become lag samples.
	lagMarks   []lagMark
	lagP50     stats.QuantileEWMA
	lagP99     stats.QuantileEWMA
	lagP50Bits atomic.Uint64 // Float64bits for snapshots off the splitter
	lagP99Bits atomic.Uint64

	inputDone atomic.Bool
	cancelled atomic.Bool // abort requested; the next splitter cycle finishes
	parked    atomic.Bool // durable pause requested; stop without stream-end semantics
	finished  atomic.Bool // run fully processed; done is closed
	splitBusy atomic.Bool // cooperative-splitter claim
	done      chan struct{}

	// Journal state (Config.Durable, DESIGN.md §11; Config.Upstream,
	// §12). persist is nil without a durable store. emitted, cut,
	// lastCut, gridAt, suppressRemaining and journalBuf are
	// splitter-only; onCut, replayTarget and recoveredNextSeq are set
	// before the shard is attached and read-only afterwards (the cut
	// consumer, the Recover barrier, Handle.Recovered).
	persist *persister
	// emitted is the cumulative delivered-match count — the emission
	// watermark committed before each delivery.
	emitted uint64
	// onCut consumes the shard's cuts (cut.go): Config.Upstream.OnCut, the
	// persister's for a durable shard, or nil. cut is the record cutAt
	// hands it, reused cut after cut; lastCut is its boundary. gridAt is
	// the grid position ingest cuts at once an event passes it with the
	// tree empty, and past every position while a window is open.
	onCut   func(*durable.CutRecord)
	cut     durable.CutRecord
	lastCut uint64
	gridAt  uint64
	// suppressRemaining counts regenerated matches the previous process
	// already delivered; replay skips delivering exactly that many.
	suppressRemaining uint64
	// replayTarget is the arena length at which the journal suffix is
	// fully replayed (0 when there is nothing to replay).
	replayTarget uint64
	// recoveredNextSeq is the raw-substream position producers should
	// re-feed from after recovery; the journal holds every event below it.
	recoveredNextSeq uint64
	journalBuf       []event.Event

	queue *shardQueue
	emit  func(event.Complex)

	metrics metricsBox

	topkBuf []*deptree.WindowVersion
	msgBuf  []msg
	split   *worker // splitter-side worker for inline reprocessing

	// Version recycling (splitter only; DESIGN.md §4.6). departed are the
	// versions that left the tree this cycle, dropped or popped; limbo
	// holds earlier cycles' departures, oldest first, until no slot can
	// still hold them; freeVersions are the versions newVersion reuses.
	// Released limbo batches keep their buffers past len(limbo).
	departed     []*deptree.WindowVersion
	limbo        []limboBatch
	freeVersions []*deptree.WindowVersion
}

// newShard builds one shard of prog.
func newShard(prog *program) (*shardState, error) {
	// Each shard learns its own Markov model (its substream has its own
	// statistics) with the paper's α = 0.7, ℓ = 10. A user-supplied
	// predictor is shared by all shards, so safe for concurrent use, and
	// the shard gathers no statistics for it.
	pred, model := prog.cfg.Predictor, (*markov.Model)(nil)
	if pred == nil {
		m, err := markov.New(prog.compiled.MinLength(), markov.Config{})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		pred, model = m, m
	}
	k := prog.cfg.Instances
	s := &shardState{
		prog:     prog,
		ar:       arena.New(),
		winMgr:   window.NewManager(prog.query.Window),
		pred:     pred,
		model:    model,
		slots:    make([]slot, k),
		assigned: make([]*deptree.WindowVersion, k),
		done:     make(chan struct{}),
		gridAt:   idleCutEvery,
	}
	s.lagP50.Q = 0.5
	s.lagP99.Q = 0.99
	for i := range s.slots {
		s.slots[i].w = newWorker(s)
	}
	s.tree = deptree.NewTree(s.newVersion)
	s.tree.OnDrop = func(wv *deptree.WindowVersion) {
		s.versionsDropped.Add(1)
		s.departed = append(s.departed, wv)
	}
	s.split = &worker{s: s}
	return s, nil
}

// begin wires the shard's intake and output before it is driven.
func (s *shardState) begin(queue *shardQueue, emit func(event.Complex)) {
	if emit == nil {
		emit = func(event.Complex) {}
	}
	s.queue = queue
	s.emit = emit
}

// newVersion is the dependency tree's window-version factory: the paper's
// "modified copy" (Fig. 4), which starts at its window start. It costs
// O(1): it reuses a released version when there is one, and the
// processing state is (re)set when a slot first takes the version.
func (s *shardState) newVersion(win *window.Window, suppressed []*deptree.CG) *deptree.WindowVersion {
	s.versionSeq++
	var wv *deptree.WindowVersion
	if n := len(s.freeVersions); n > 0 {
		wv = s.freeVersions[n-1]
		s.freeVersions[n-1] = nil
		s.freeVersions = s.freeVersions[:n-1]
		wv.Recycle(s.versionSeq, win, suppressed)
	} else {
		wv = deptree.NewWindowVersion(s.versionSeq, win, suppressed)
	}
	wv.SetPos(win.StartSeq)
	s.versionsCreated.Add(1)
	return wv
}

// retire moves this cycle's departures to limbo with every slot's claim
// as read now. It runs after schedule, which unassigned them: a claim
// taken from here on cannot load them.
func (s *shardState) retire() {
	if len(s.departed) == 0 {
		return
	}
	n := len(s.limbo)
	if n < cap(s.limbo) {
		s.limbo = s.limbo[:n+1]
	} else {
		s.limbo = append(s.limbo, limboBatch{})
	}
	b := &s.limbo[n]
	b.versions, s.departed = s.departed, b.versions[:0]
	b.claims = b.claims[:0]
	for i := range s.slots {
		b.claims = append(b.claims, s.slots[i].claims.Load())
	}
}

// quiescent reports whether no slot can still hold a version of b: every
// slot was unclaimed when b was retired, or has released that claim
// since.
func (s *shardState) quiescent(b *limboBatch) bool {
	for i, c := range b.claims {
		if c%2 == 1 && s.slots[i].claims.Load() == c {
			return false
		}
	}
	return true
}

// readyLimbo counts the leading limbo batches that are quiescent. It is
// read before the cycle drains the feedback queue, so the drain holds
// every message a claim on those versions pushed.
func (s *shardState) readyLimbo() int {
	n := 0
	for n < len(s.limbo) && s.quiescent(&s.limbo[n]) {
		n++
	}
	return n
}

// releaseLimbo moves the first n limbo batches to the free list, once the
// cycle has applied the feedback that named them. A released version is
// poisoned: a stale reader that follows its window or suppression set
// panics instead of reading another window's.
func (s *shardState) releaseLimbo(n int) {
	if n == 0 {
		return
	}
	for i := range s.limbo[:n] {
		b := &s.limbo[i]
		for j, wv := range b.versions {
			if wv.Win == nil {
				panic("core: window version released twice")
			}
			wv.Win, wv.Suppressed = nil, nil
			s.freeVersions = append(s.freeVersions, wv)
			b.versions[j] = nil
		}
		b.versions = b.versions[:0]
	}
	// Rotate the released batches behind the rest, keeping their buffers.
	slices.Reverse(s.limbo[:n])
	slices.Reverse(s.limbo[n:])
	slices.Reverse(s.limbo)
	s.limbo = s.limbo[:len(s.limbo)-n]
}

// splitterStep runs one splitter cycle — ingest → apply feedback →
// advance/emit → schedule (paper §3.2.2) — if no other worker is inside
// it, and finishes the run once the stream is drained. It reports whether
// any progress was made. The claim keeps the splitter's single-threaded
// state safe.
func (s *shardState) splitterStep() bool {
	if s.finished.Load() {
		return false
	}
	if !s.splitBusy.CompareAndSwap(false, true) {
		return false
	}
	worked := s.splitCycle()
	if s.runComplete() {
		// The claim is never released: a worker that read finished as
		// false just before this must not get in and finish a second time.
		s.finishRun()
		return true
	}
	s.splitBusy.Store(false)
	return worked
}

// step is one pool-worker visit: the splitter cycle if unclaimed, then one
// batch on every slot.
func (s *shardState) step() bool {
	worked := s.splitterStep()
	for i := range s.slots {
		if s.slotStep(i) {
			worked = true
		}
	}
	return worked
}

// splitCycle is one splitter maintenance+scheduling cycle: ingest up to
// the lookahead horizon, apply feedback, advance roots, schedule.
func (s *shardState) splitCycle() bool {
	if s.stopped() {
		// Aborted or parked: emit and persist nothing more; the caller's
		// runComplete check finishes the run.
		return false
	}
	worked := false

	if !s.inputDone.Load() && s.ingest() > 0 {
		worked = true
	}

	ready := s.readyLimbo()
	s.msgBuf = s.fq.drain(s.msgBuf[:0])
	if len(s.msgBuf) > 0 {
		worked = true
	}
	for i := range s.msgBuf {
		s.apply(&s.msgBuf[i])
	}
	s.releaseLimbo(ready)

	if s.advanceRoots() {
		worked = true
	}
	s.maxTreeSize.Store(int64(s.tree.MaxSize()))

	s.schedule()
	s.retire()
	return worked
}

// runComplete reports whether the shard has fully processed its stream —
// or was stopped, in which case the remaining tree state is abandoned (or,
// parked, left to the WAL).
func (s *shardState) runComplete() bool {
	if s.stopped() {
		return true
	}
	return s.inputDone.Load() && s.tree.Empty() && s.fq.empty()
}

// stopped reports whether the run was cancelled or parked. Neither is end
// of stream: inputDone stays false, so no window is truncated at the
// current stream length, finished by a slot or popped on its account — a
// parked shard's cut would otherwise move past windows recovery never
// re-forms.
func (s *shardState) stopped() bool {
	return s.cancelled.Load() || s.parked.Load()
}

// cancel requests an abort: the next splitter cycle observes it, skips
// the remaining work and finishes the run. Pending and future intake is
// discarded. Idempotent.
func (s *shardState) cancel() {
	if s.cancelled.CompareAndSwap(false, true) {
		s.queue.discard()
	}
}

// park pauses a durable shard without stream-end semantics: unlike a
// closed handle (end of stream — in-flight windows are driven to
// completion at the current stream length and truncated there), parking
// stops the splitter after its current cycle and leaves the in-flight
// windows to the WAL. Recovery replays the journal and re-forms them, so
// a shutdown/restart pair is invisible in the delivered stream. Events
// still queued but not yet journaled are dropped — the producer re-feeds
// them from the recovered position. Idempotent.
func (s *shardState) park() {
	if s.parked.CompareAndSwap(false, true) {
		s.queue.discard()
	}
}

// finishRun clears the scheduling slots and publishes completion. Called
// exactly once, by whoever drives the final splitter cycle.
func (s *shardState) finishRun() {
	for i := range s.slots {
		s.slots[i].wv.Store(nil)
	}
	if s.persist != nil {
		// Drain, final-sync and close the WAL before publishing
		// completion: <-done then implies the durable state is final and
		// the shard log is reopenable.
		s.persist.shutdown()
	}
	s.finished.Store(true)
	close(s.done)
}

// rootNeedsIngest reports whether the root window is still waiting for
// events, in which case ingestion must continue regardless of the
// lookahead horizon (liveness).
func (s *shardState) rootNeedsIngest() bool {
	root := s.tree.Root()
	if root == nil {
		return true
	}
	end := root.WV.Win.EndSeq()
	return end == window.UnknownEnd || s.ar.Len() < end
}

// lookaheadFull reports whether ingestion must pause: the root window has
// all its events and the splitter has opened the horizon's worth of
// windows (4·k), counted from the root window. What is left stays in the
// shard queue, where it costs no window versions; every further window
// would attach a version at every leaf of the tree.
func (s *shardState) lookaheadFull() bool {
	return !s.rootNeedsIngest() && s.lookahead() >= s.prog.cfg.horizon
}

// lookahead is the number of windows opened counted from the root window
// (the root included); 0 with an empty tree.
func (s *shardState) lookahead() int {
	root := s.tree.Root()
	if root == nil {
		return 0
	}
	return int(s.winMgr.Opened() - root.WV.Win.ID)
}

// ingest appends up to IngestBatch pending events to the arena, forming
// windows, and stops early right after the event that fills the
// lookahead horizon. Events become visible to the operator slots one by
// one, as they arrive. At end of stream it finalizes the window manager.
func (s *shardState) ingest() int {
	n := 0
	for ; n < s.prog.cfg.IngestBatch && !s.lookaheadFull(); n++ {
		ev, ok, done := s.queue.next()
		if !ok {
			// A queue a stop discarded is closed too, but only Close ends
			// the stream.
			if done && !s.stopped() {
				s.winMgr.Finish(s.ar.Len())
				s.inputDone.Store(true)
			}
			break
		}
		if ev.Seq > s.gridAt {
			// The tree is empty: cut the gap up to this event.
			s.gridCuts(ev.Seq, s.winMgr.Opened())
			s.gridAt = s.nextGrid()
		}
		// Every event arrives stamped with its position (live input at
		// admission, journal replay with its original one); positions
		// the intake filter spent stay gaps.
		stored := s.ar.Get(s.ar.AppendAt(ev))
		if s.persist != nil && ev.Seq >= s.recoveredNextSeq {
			// Replayed events, below recoveredNextSeq, are in the WAL.
			s.journalBuf = append(s.journalBuf, *stored)
		}
		if opened, _ := s.winMgr.Observe(stored); len(opened) > 0 {
			for _, w := range opened {
				s.tree.NewWindow(w)
			}
			s.windowsOpened.Add(uint64(len(opened)))
			s.gridAt = math.MaxUint64
		}
	}
	if n > 0 {
		// One latency probe per ingest batch: when a future cut reaches
		// this batch, its events have been fully validated and emitted.
		if len(s.lagMarks) < lagMarkCap {
			s.lagMarks = append(s.lagMarks, lagMark{seq: s.ar.Len(), at: time.Now()})
		}
		s.metrics.add(func(m *Metrics) { m.EventsIngested += uint64(n) })
	}
	if s.persist != nil && len(s.journalBuf) > 0 {
		// One WAL batch per ingest batch, after the arena writes: the
		// persister copies the buffer, so it is reusable next cycle.
		s.persist.appendEvents(s.journalBuf)
		s.journalBuf = s.journalBuf[:0]
	}
	return n
}

// apply folds one feedback message into the dependency tree.
func (s *shardState) apply(m *msg) {
	switch m.kind {
	case msgCGCreated:
		s.tree.CGCreated(m.cg)
		s.metrics.add(func(mm *Metrics) { mm.CGsCreated++ })
	case msgCGResolved:
		out := m.cg.Outcome()
		s.tree.CGResolved(m.cg)
		s.metrics.add(func(mm *Metrics) {
			if out == deptree.CGCompleted {
				mm.CGsCompleted++
			} else {
				mm.CGsAbandoned++
			}
		})
	case msgRolledBack:
		s.tree.RebuildBelow(m.wv)
	case msgStats:
		s.model.Fold(m.counts)
		m.counts = nil
	}
}

// advanceRoots validates, drains and pops finished roots (in-order
// emission). It returns whether any progress was made.
func (s *shardState) advanceRoots() bool {
	changed := false
	for {
		root := s.tree.Root()
		if root == nil {
			return changed
		}
		wv := root.WV
		if !wv.Validated() {
			s.validate(wv)
			changed = true
		}
		if s.drainOutputs(wv) {
			changed = true
		}
		if !wv.Finished() {
			return changed
		}
		child := root.Child()
		if child != nil && !child.IsWV() {
			// The root's own consumption group is still unresolved; its
			// resolution message is in flight (window end and every reset
			// abandon the open groups, so it will arrive).
			return changed
		}
		s.drainOutputs(wv)
		s.tree.PopRoot()
		s.departed = append(s.departed, wv)
		s.cutAfterPop(wv.Win.EndSeq())
		changed = true
	}
}

// observeLag resolves the pending latency probes at or below boundary:
// everything ingested before that position has now cleared validation
// and emission, so now-minus-ingest is a root-emission lag sample.
// Splitter only.
func (s *shardState) observeLag(boundary uint64) {
	n := 0
	for n < len(s.lagMarks) && s.lagMarks[n].seq <= boundary {
		n++
	}
	if n == 0 {
		return
	}
	now := time.Now()
	for i := 0; i < n; i++ {
		lag := now.Sub(s.lagMarks[i].at).Seconds()
		s.lagP50.Observe(lag)
		s.lagP99.Observe(lag)
	}
	s.lagMarks = s.lagMarks[:copy(s.lagMarks, s.lagMarks[n:])]
	s.lagP50Bits.Store(math.Float64bits(s.lagP50.Value()))
	s.lagP99Bits.Store(math.Float64bits(s.lagP99.Value()))
}

// validate is the final gate (DESIGN.md §4.2): when a version becomes
// root, every event it used must be finally unconsumed and every event it
// speculatively skipped must be finally consumed. On violation the version
// is reprocessed deterministically. Either way the version leaves this
// function validated, so everything it emits afterwards is final.
func (s *shardState) validate(wv *deptree.WindowVersion) {
	wv.Mu.Lock()
	defer wv.Mu.Unlock()
	if wv.Validated() {
		return
	}
	ok := true
	for _, u := range wv.Used {
		if s.ar.Consumed(u) {
			ok = false
			break
		}
	}
	if ok {
		for _, sk := range wv.Skipped {
			if !s.ar.Consumed(sk) {
				ok = false
				break
			}
		}
	}
	if !ok {
		s.metrics.add(func(m *Metrics) { m.GateReprocessed++ })
		s.reprocessInline(wv)
	}
	// Only a learning model takes statistics; the slots that count them
	// hold tables exactly then.
	wv.StatsEligible = s.model != nil
	wv.MarkValidated()
}

// reprocessInline deterministically reprocesses wv (Mu held by caller):
// its dependents are rebuilt, its state reset, and the whole available
// window span is processed with suppression from the final consumed set
// only. Tree updates — the reset's group resolutions included — are
// applied synchronously.
func (s *shardState) reprocessInline(wv *deptree.WindowVersion) {
	s.tree.RebuildBelow(wv)
	w := s.split
	w.msgs = w.msgs[:0]
	w.restart(wv)
	for {
		progressed := w.processSpan(wv, 1<<20)
		for i := range w.msgs {
			s.apply(&w.msgs[i])
		}
		w.msgs = w.msgs[:0]
		if !progressed || wv.Finished() {
			return
		}
	}
}

// drainOutputs emits the validated root's buffered complex events and
// finalizes their consumption. Emission happens outside the version lock.
func (s *shardState) drainOutputs(wv *deptree.WindowVersion) bool {
	if !wv.Validated() {
		return false
	}
	wv.Mu.Lock()
	if len(wv.Buffered) == 0 {
		wv.Mu.Unlock()
		return false
	}
	out := make([]event.Complex, len(wv.Buffered))
	copy(out, wv.Buffered)
	wv.Buffered = wv.Buffered[:0]
	wv.Mu.Unlock()

	consumedCount := 0
	for i := range out {
		for _, seq := range out[i].Consumed {
			if s.ar.MarkConsumed(seq) {
				consumedCount++
			}
		}
	}
	s.metrics.add(func(m *Metrics) {
		m.Matches += uint64(len(out))
		m.EventsConsumed += uint64(consumedCount)
	})
	if s.shed != nil {
		// Feed the match back to the utility estimator: constituents are
		// arena sequence numbers, and the arena still holds them — the cut
		// that releases them follows the root's pop.
		for i := range out {
			for _, seq := range out[i].Constituents {
				s.shed.NoteMatch(s.ar.Get(seq).Type)
			}
		}
	}
	// Commit-before-deliver (exactly-once, DESIGN.md §11): advance the
	// emission watermark over this batch and make it durable before any
	// match of the batch reaches the sink. A crash after the commit but
	// before (or during) delivery re-delivers nothing: recovery
	// regenerates the batch and suppresses the first Watermark−CutWatermark
	// matches. The commit (and the delivery it gates) runs on the
	// persister goroutine — the splitter never waits for the fsync.
	s.emitted += uint64(len(out))
	if p := s.persist; p != nil {
		deliver := out
		suppressed := 0
		for len(deliver) > 0 && s.suppressRemaining > 0 {
			// Replay regenerated a match the previous process already
			// delivered; consumption above still counts, delivery does
			// not.
			s.suppressRemaining--
			suppressed++
			deliver = deliver[1:]
		}
		if suppressed > 0 {
			s.metrics.add(func(m *Metrics) { m.SuppressedMatches += uint64(suppressed) })
		}
		p.commitAndDeliver(s.emitted, deliver, s.emit)
		return true
	}
	if faultinject.Killed() {
		// Fault-injection builds only (constant false otherwise): the
		// simulated process died, so this batch's sink callbacks never
		// run. The durable path samples the flag on the persister
		// goroutine instead, between commit and delivery.
		return true
	}
	for i := range out {
		s.emit(out[i])
	}
	return true
}

// schedule walks the tree for the top-k window versions under the
// predictor and assigns the difference to the k slots (paper Fig. 7:
// already-scheduled versions stay put).
func (s *shardState) schedule() {
	k := len(s.slots)
	busy := 0
	for _, cur := range s.assigned {
		if cur != nil {
			busy++
		}
	}

	arenaLen := s.ar.Len()
	avgSize := s.winMgr.AvgSize()
	inputDone := s.inputDone.Load()

	probOf := func(cg *deptree.CG) float64 {
		switch cg.Outcome() {
		case deptree.CGCompleted:
			return 1
		case deptree.CGAbandoned:
			return 0
		}
		owner := cg.Owner
		n := int(avgSize) - int(owner.Pos()-owner.Win.StartSeq)
		return s.pred.CompletionProbability(cg.Delta(), n)
	}
	eligible := func(wv *deptree.WindowVersion) bool {
		if wv.Finished() || wv.Dropped() {
			return false
		}
		pos := wv.Pos()
		end := wv.Win.EndSeq()
		limit := arenaLen
		if end < limit {
			limit = end
		}
		if pos < limit {
			return true
		}
		// A version parked exactly at its resolved window end has all
		// its input but still needs one scheduling round to run its
		// window-end logic. Normally processSpan finishes such a version
		// in the same batch that reaches the boundary, but a version
		// whose slot was withdrawn between batches (it fell out of the
		// top-k) can be stranded there; without this clause the root
		// chain would deadlock.
		if end != window.UnknownEnd && pos >= end {
			return true
		}
		// A version that consumed all available input still needs one
		// last scheduling round at stream end to run its window-end
		// logic.
		return inputDone && pos >= arenaLen
	}

	s.topkBuf = s.tree.TopK(k, probOf, eligible, s.topkBuf[:0])
	s.schedMark++

	for _, wv := range s.topkBuf {
		wv.SchedMark = s.schedMark
	}
	// First pass: free slots whose assignment fell out of the top-k (or
	// was dropped/finished).
	free := s.freeBuf[:0]
	for i, cur := range s.assigned {
		if cur == nil {
			free = append(free, i)
			continue
		}
		if cur.SchedMark != s.schedMark || cur.Dropped() || cur.Finished() {
			cur.SetScheduledOn(-1)
			s.slots[i].wv.Store(nil)
			s.assigned[i] = nil
			free = append(free, i)
		}
	}
	// Second pass: schedule the not-yet-scheduled top-k versions.
	scheduled := 0
	for _, wv := range s.topkBuf {
		if wv.ScheduledOn() >= 0 {
			continue
		}
		if scheduled == len(free) {
			break
		}
		i := free[scheduled]
		s.assigned[i] = wv
		wv.SetScheduledOn(i)
		s.slots[i].wv.Store(wv)
		scheduled++
	}
	s.freeBuf = free[:0]
	// One metrics acquisition per cycle: the cycle counter rides along
	// with the slot-occupancy counters.
	s.metrics.add(func(m *Metrics) {
		m.Cycles++
		m.SchedulesIssued += uint64(scheduled)
		m.SlotCyclesActive += uint64(k)
		m.SlotCyclesBusy += uint64(busy)
	})
}

// Engine is the SPECTRE runtime for a single query over a single stream:
// a one-shard Handle on a private Runtime whose pool has one worker per
// role of the paper's Fig. 8 — the splitter plus the k slots. The
// query's PARTITION BY clause is ignored: an engine sees one substream.
// Multi-query, key-partitioned deployments Submit to a shared Runtime
// instead.
type Engine struct {
	prog *program
	h    atomic.Pointer[Handle] // set by Run; nil before
}

// New builds an engine for the query.
func New(q *pattern.Query, cfg Config) (*Engine, error) {
	if cfg.Durable != nil {
		return nil, errors.New("core: durability requires the Runtime path (Submit)")
	}
	// The blocking source is the engine's backpressure; shedding would
	// break the sequential-equivalence contract of Run.
	cfg.Shed = false
	prog, err := compile(q, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{prog: prog}, nil
}

// Run ingests the source, processes it with k operator instances and
// invokes emit for every complex event, in canonical order (window order;
// detection order within a window — exactly the sequential-engine order).
// emit must not call back into the engine. Run returns after the stream is
// fully processed, or with ctx.Err() as soon as ctx is done (within one
// splitter cycle; already-emitted output stands, the rest is discarded).
// An engine runs once.
func (e *Engine) Run(ctx context.Context, src stream.Source, emit func(event.Complex)) error {
	if e.h.Load() != nil {
		return ErrAlreadyRan
	}
	// A context that is already done rejects the call without consuming
	// the engine's single run.
	if err := ctx.Err(); err != nil {
		return err
	}
	rt := NewRuntime(RuntimeConfig{Workers: e.prog.cfg.Instances + 1})
	defer rt.Close()
	h, err := rt.start(e.prog, nil, 1, emit, nil)
	if err != nil {
		return err
	}
	e.h.Store(h)
	// Runtime.Run alone would drain what it admitted before the
	// cancellation; aborting the handle discards it instead.
	stop := context.AfterFunc(ctx, h.Abort)
	defer stop()
	return rt.Run(ctx, src)
}

// MetricsSnapshot returns a copy of the runtime counters (zero before
// Run).
func (e *Engine) MetricsSnapshot() Metrics {
	h := e.h.Load()
	if h == nil {
		return Metrics{}
	}
	return h.Metrics()
}

// Plan returns the engine's evaluation plan, or nil when planning is
// disabled.
func (e *Engine) Plan() *plan.Plan { return e.prog.plan }

// metricsSnapshot folds the shard-level atomic counters into the boxed
// metrics copy.
func (s *shardState) metricsSnapshot() Metrics {
	m := s.metrics.snapshot()
	m.WindowsOpened = s.windowsOpened.Load()
	m.VersionsCreated = s.versionsCreated.Load()
	m.VersionsDropped = s.versionsDropped.Load()
	m.MaxTreeSize = int(s.maxTreeSize.Load())
	m.FilteredEvents = s.filteredIn.Load()
	m.ShedEvents = s.shedIn.Load()
	m.EmitLagP50 = math.Float64frombits(s.lagP50Bits.Load())
	m.EmitLagP99 = math.Float64frombits(s.lagP99Bits.Load())
	if p := s.persist; p != nil {
		m.DurableAppends = p.appends.Load()
		m.DurableSyncs = p.syncs.Load()
		m.DurableErrors = p.errs.Load()
	}
	return m
}
