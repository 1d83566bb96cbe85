// Package deptree implements SPECTRE's dependency tree (paper §3.1,
// Figures 3 and 4): the structure that captures how speculative window
// versions depend on the outcomes of consumption groups, plus survival
// probabilities and top-k selection (§3.2, Figure 6).
//
// The tree is owned exclusively by the splitter goroutine. The CG and
// WindowVersion types carry the small amount of state that operator
// instances share with the splitter; those fields are explicitly
// synchronized (atomics, and consumption-group sets published as growing
// prefixes of append-only backings) and documented below.
package deptree

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/matcher"
	"github.com/spectrecep/spectre/internal/window"
)

// CGOutcome is the resolution state of a consumption group.
type CGOutcome int32

const (
	// CGOpen means the underlying partial match is still undecided.
	CGOpen CGOutcome = iota
	// CGCompleted means the pattern instance completed; the group's events
	// are consumed.
	CGCompleted
	// CGAbandoned means the pattern instance can no longer complete; no
	// event is consumed.
	CGAbandoned
)

// String implements fmt.Stringer.
func (o CGOutcome) String() string {
	switch o {
	case CGOpen:
		return "open"
	case CGCompleted:
		return "completed"
	case CGAbandoned:
		return "abandoned"
	default:
		return "invalid"
	}
}

// CGSnapshot is an immutable view of a consumption group's event set.
type CGSnapshot struct {
	// Version is the size of the set. The set only grows, so two
	// snapshots with equal versions hold the same events; dependent
	// window versions use it to detect membership changes between
	// consistency checks (paper Fig. 8, lines 31-45).
	Version uint64
	// Seqs are the would-be-consumed event sequence numbers, ascending.
	Seqs []uint64
}

// Contains reports whether seq is in the snapshot.
func (s CGSnapshot) Contains(seq uint64) bool {
	_, ok := slices.BinarySearch(s.Seqs, seq)
	return ok
}

// cgSet is an append-only backing of a group's event set: the first n
// entries of all are published and never written again.
type cgSet struct {
	all []uint64 // fixed length, the backing's capacity
	n   atomic.Uint64
}

// CG is a consumption group: the events of one partial match that will be
// consumed together if the match completes (paper §3.1). A CG is owned by
// exactly one window version (whose matcher run it mirrors); its event set
// is written only by the instance processing that version and read by the
// splitter and by dependent versions' consistency checks.
type CG struct {
	// ID is unique per engine run.
	ID uint64
	// Owner is the window version whose partial match this group tracks.
	Owner *WindowVersion
	// RunID is the owner-matcher run this group mirrors.
	RunID int

	set     atomic.Pointer[cgSet] // the published backing
	delta   atomic.Int64          // current completion state δ of the partial match
	outcome atomic.Int32          // CGOutcome

	// Writer-owned: the backing appends go into (the published one unless
	// growth or an out-of-order insert gave the group a fresh one), how
	// many of its entries are written, and how many are published.
	next      *cgSet
	size, pub int

	// nodes are the tree vertices referencing this group (more than one
	// when a sibling group's creation copied the structure). Owned by the
	// splitter.
	nodes []*Node

	// first is the group's first backing, with its four entries, built
	// into the group so that creating one is a single allocation.
	first    cgSet
	firstAll [4]uint64
}

// NewCG creates an open consumption group.
func NewCG(id uint64, owner *WindowVersion, runID int, delta int) *CG {
	cg := &CG{ID: id, Owner: owner, RunID: runID}
	cg.first.all = cg.firstAll[:]
	cg.next = &cg.first
	cg.set.Store(cg.next)
	cg.delta.Store(int64(delta))
	return cg
}

// Snapshot returns the published event set: a prefix of the backing
// that no writer touches again. It does not allocate.
func (cg *CG) Snapshot() CGSnapshot {
	b := cg.set.Load()
	n := b.n.Load()
	return CGSnapshot{Version: n, Seqs: b.all[:n:n]}
}

// Contains reports whether seq is currently in the group.
func (cg *CG) Contains(seq uint64) bool { return cg.Snapshot().Contains(seq) }

// Append records seq in the group without publishing it. Single writer:
// the instance processing the owning window version. Events are bound in
// stream order, so the common case writes one entry past the tail in
// place. An entry below the published prefix is never written: an
// out-of-order seq that lands there moves the set to a fresh backing of
// the same size, a full backing to one of twice the size.
func (cg *CG) Append(seq uint64) {
	b, n := cg.next, cg.size
	i := n
	if n > 0 && b.all[n-1] >= seq {
		var found bool
		if i, found = slices.BinarySearch(b.all[:n], seq); found {
			return
		}
	}
	if n == len(b.all) || i < cg.pub {
		size := len(b.all)
		if n == size {
			size *= 2
		}
		fresh := &cgSet{all: make([]uint64, size)}
		copy(fresh.all, b.all[:n])
		b, cg.next, cg.pub = fresh, fresh, 0
	}
	copy(b.all[i+1:n+1], b.all[i:n])
	b.all[i] = seq
	cg.size++
}

// Publish makes every appended event visible. It stores the backing's
// published length before it swaps in a fresh backing, so a reader never
// sees a shorter set than before, and it allocates nothing.
func (cg *CG) Publish() {
	if cg.size == cg.pub {
		return
	}
	b := cg.next
	b.n.Store(uint64(cg.size))
	cg.pub = cg.size
	if cg.set.Load() != b {
		cg.set.Store(b)
	}
}

// Add appends seq and publishes immediately (Append + Publish).
func (cg *CG) Add(seq uint64) {
	cg.Append(seq)
	cg.Publish()
}

// SetDelta publishes the partial match's current completion state δ.
func (cg *CG) SetDelta(d int) { cg.delta.Store(int64(d)) }

// Delta returns the published completion state δ.
func (cg *CG) Delta() int { return int(cg.delta.Load()) }

// Outcome returns the group's resolution state.
func (cg *CG) Outcome() CGOutcome { return CGOutcome(cg.outcome.Load()) }

// Resolve publishes the group's outcome. Idempotent; only the first call
// takes effect.
func (cg *CG) Resolve(o CGOutcome) bool {
	return cg.outcome.CompareAndSwap(int32(CGOpen), int32(o))
}

// WindowVersion is one speculative version of a window (paper §3.1): the
// window's events processed under a specific assumption set — the
// suppressed consumption groups on its root path's completion edges.
//
// Locking: Mu guards the processing state (State, Pos, Used, Skipped,
// Buffered, run bookkeeping). The instance currently processing the
// version holds Mu for the duration of a batch; the splitter takes Mu only
// for rollbacks/validation of unscheduled versions. The flags (dropped,
// validated, scheduled) are atomics so both sides can consult them without
// the lock.
//
// A runtime may recycle a version once no one can reach it any more
// (Recycle); the version then carries its buffers and its matcher state
// into its next life.
type WindowVersion struct {
	// ID is unique per engine run (version id, not window id).
	ID uint64
	// Win is the underlying window; boundaries are fixed by the splitter.
	Win *window.Window
	// Suppressed are the consumption groups whose completion edge lies on
	// this version's root path, in no particular order; their events must
	// not be processed. Immutable after creation, and shared: versions on
	// one path alias the same slice.
	Suppressed []*CG

	// node is the tree vertex of this version (node.WV is nil until the
	// tree attaches it). Owned by the splitter.
	node Node

	// SchedMark is the splitter's per-cycle scheduling token (splitter
	// use only, unsynchronized).
	SchedMark uint64

	dropped   atomic.Bool
	validated atomic.Bool
	finished  atomic.Bool
	scheduled atomic.Int32 // operator-instance index + 1; 0 = unscheduled
	pos       atomic.Uint64

	// Mu guards everything below.
	Mu sync.Mutex
	// State is the matcher state; nil until first processed (lazily
	// created by the runtime through ResetToStart).
	State *matcher.State
	// kept is the matcher state of the version's previous life, which
	// ResetToStart reuses (nil unless the version was recycled).
	kept *matcher.State
	// Used are the influencing processed events (ascending): events bound
	// to a run or triggering a negation. Only these matter for
	// consumption consistency (skip-till-next-match ignores the rest).
	Used []uint64
	// Skipped are events suppressed speculatively because a suppressed
	// group contained them (ascending). Own-match consumption is tracked
	// in LocalConsumed instead.
	Skipped []uint64
	// LocalConsumed are events consumed by this version's own matches
	// (ascending); they must be skipped by later detection in the same
	// window but are final only once the version validates.
	LocalConsumed []uint64
	// Buffered are complex events produced speculatively, awaiting
	// validation (paper §3.3: "kept buffered until the window version
	// either becomes valid ... or is dropped").
	Buffered []event.Complex
	// RunCGs maps open matcher run ids to their consumption groups (nil
	// until the first ResetToStart).
	RunCGs map[int]*CG
	// LastChecked maps suppressed groups to the snapshot version seen by
	// the last consistency check (parallel to Suppressed; nil until the
	// first ResetToStart).
	LastChecked []uint64
	// Rollbacks counts how many times this version was rolled back.
	Rollbacks int
	// StatsEligible marks versions whose transitions feed the Markov
	// model (validated/independent versions only).
	StatsEligible bool
}

// NewWindowVersion creates an unscheduled version of win with the given
// suppression set. The version keeps suppressed as is (the caller must
// not mutate it afterwards) and allocates no processing state: most
// versions are dropped before any slot takes them.
func NewWindowVersion(id uint64, win *window.Window, suppressed []*CG) *WindowVersion {
	return &WindowVersion{ID: id, Win: win, Suppressed: suppressed}
}

// Recycle turns a version no one can reach any more — out of the tree,
// unassigned, no message naming it in flight — into an unscheduled
// version of win, as NewWindowVersion would return it. It keeps its
// buffers and its matcher state, which the first ResetToStart resets;
// nothing of its previous life stays reachable through it.
func (wv *WindowVersion) Recycle(id uint64, win *window.Window, suppressed []*CG) {
	wv.ID, wv.Win, wv.Suppressed = id, win, suppressed
	wv.node = Node{}
	wv.SchedMark = 0
	wv.dropped.Store(false)
	wv.validated.Store(false)
	wv.finished.Store(false)
	wv.scheduled.Store(0)
	wv.pos.Store(0)
	if wv.State != nil {
		wv.kept, wv.State = wv.State, nil
	}
	wv.Used = wv.Used[:0]
	wv.Skipped = wv.Skipped[:0]
	wv.LocalConsumed = wv.LocalConsumed[:0]
	clear(wv.Buffered[:cap(wv.Buffered)])
	wv.Buffered = wv.Buffered[:0]
	clear(wv.RunCGs)
	wv.LastChecked = wv.LastChecked[:0] // ResetToStart sizes it to suppressed
	wv.Rollbacks = 0
	wv.StatsEligible = false
}

// Pos returns the next sequence number to process. It is published
// atomically so the splitter can estimate progress without the lock.
func (wv *WindowVersion) Pos() uint64 { return wv.pos.Load() }

// SetPos publishes the processing position (holder of Mu only).
func (wv *WindowVersion) SetPos(pos uint64) { wv.pos.Store(pos) }

// ResetToStart resets the version's processing state to the window
// start — the first start of a version and the restart shared by
// rollbacks and the final validation gate. The matcher state is the
// version's own (or the one its previous life kept), reset to a fresh
// one's, or a new state of c when it has none. The caller must own the
// version.
func (wv *WindowVersion) ResetToStart(c *matcher.Compiled) {
	switch {
	case wv.State != nil:
		wv.State.Reset()
	case wv.kept != nil:
		wv.State, wv.kept = wv.kept, nil
		wv.State.Reset()
	default:
		wv.State = c.NewState()
	}
	wv.SetPos(wv.Win.StartSeq)
	wv.Used = wv.Used[:0]
	wv.Skipped = wv.Skipped[:0]
	wv.LocalConsumed = wv.LocalConsumed[:0]
	wv.Buffered = wv.Buffered[:0]
	if wv.RunCGs == nil {
		wv.RunCGs = make(map[int]*CG)
	} else {
		clear(wv.RunCGs)
	}
	if n := len(wv.Suppressed); cap(wv.LastChecked) < n {
		wv.LastChecked = make([]uint64, n)
	} else {
		wv.LastChecked = wv.LastChecked[:n]
		clear(wv.LastChecked)
	}
	wv.ClearFinished()
}

// Finished reports whether the version processed its whole window.
func (wv *WindowVersion) Finished() bool { return wv.finished.Load() }

// MarkFinished flags the version as fully processed.
func (wv *WindowVersion) MarkFinished() { wv.finished.Store(true) }

// ClearFinished resets the finished flag (rollback).
func (wv *WindowVersion) ClearFinished() { wv.finished.Store(false) }

// Dropped reports whether the version has been dropped from the tree.
func (wv *WindowVersion) Dropped() bool { return wv.dropped.Load() }

// MarkDropped flags the version as dropped.
func (wv *WindowVersion) MarkDropped() { wv.dropped.Store(true) }

// Validated reports whether the version's root path is fully resolved in
// its favour and its output has been (or is being) finalized.
func (wv *WindowVersion) Validated() bool { return wv.validated.Load() }

// MarkValidated flags the version as validated.
func (wv *WindowVersion) MarkValidated() { wv.validated.Store(true) }

// ScheduledOn returns the operator instance currently assigned this
// version (-1 when unscheduled).
func (wv *WindowVersion) ScheduledOn() int { return int(wv.scheduled.Load()) - 1 }

// SetScheduledOn records the assigned instance (-1 to clear).
func (wv *WindowVersion) SetScheduledOn(instance int) { wv.scheduled.Store(int32(instance + 1)) }
