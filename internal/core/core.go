// Package core implements the SPECTRE runtime (paper §3): a splitter
// goroutine that ingests the event stream, forms windows, maintains the
// dependency tree and schedules the top-k speculative window versions onto
// k operator-instance goroutines that process them in parallel
// (Figures 7 and 8).
//
// Responsibilities are divided exactly as in the paper's shared-memory
// architecture (Figure 2):
//
//   - The event arena is the shard's shared memory and its queue:
//     admission writes each kept event into it once, at its stamped
//     position, and the splitter reads the unread tail. The splitter
//     carries the final consumption marks in it (one bit per position
//     in the event's own chunk) and owns the window manager, the
//     dependency tree, the Markov model and in-order emission.
//   - Operator instances process their assigned window version in batches
//     under the version's mutex, perform the periodic consistency checks
//     of Fig. 8 (lines 31-45) and roll back on violations. Under the
//     Markov model they count completion-state transitions in a table of
//     the model's bucketed states and hand it over with the batch's
//     feedback; the splitter folds it into the model.
//   - Instances report consumption-group lifecycle events ("the function
//     calls of the operator instances on the dependency tree are
//     buffered") through a FIFO feedback queue that the splitter drains
//     once per maintenance/scheduling cycle.
//
// Beyond the paper, the runtime adds a final validation gate: when a
// window version becomes the tree root (all speculation on its path
// resolved), the splitter verifies that the version processed exactly the
// finally-consumed event set; on violation the version is reprocessed
// deterministically before anything is emitted. This makes the delivered
// stream equal to sequential processing unconditionally — speculation is
// purely a performance mechanism (see DESIGN.md §4.2).
package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/spectrecep/spectre/internal/arena"
	"github.com/spectrecep/spectre/internal/deptree"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/markov"
	"github.com/spectrecep/spectre/internal/pattern"
)

// ErrOverloaded is the sentinel matched (via errors.Is) by every
// *OverloadError: a non-blocking admission attempt found the shard's
// unread tail full. Callers shed load or retry; blocking Feed never
// returns it.
var ErrOverloaded = errors.New("core: shard intake is full")

// OverloadError reports a rejected non-blocking admission (TryFeed): the
// target shard's unread tail — the kept events admitted to its arena
// that its splitter has not ingested — was at capacity. It matches
// ErrOverloaded with errors.Is, so load-shedding callers need not depend
// on the struct.
type OverloadError struct {
	Query   string // query name, when the handle is named ("" otherwise)
	Shard   int    // shard index the event routed to
	Pending int    // unread events of that shard at rejection time
	Cap     int    // the bound on the shard's unread tail (QueueCap)
}

func (e *OverloadError) Error() string {
	if e.Query != "" {
		return fmt.Sprintf("core: query %q shard %d intake is full (%d/%d events unread)", e.Query, e.Shard, e.Pending, e.Cap)
	}
	return fmt.Sprintf("core: shard %d intake is full (%d/%d events unread)", e.Shard, e.Pending, e.Cap)
}

// Is reports ErrOverloaded equivalence for errors.Is.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Config parameterizes an Engine. The zero value selects the defaults
// documented on each field.
type Config struct {
	// Instances is k, the number of operator instances (default 4).
	Instances int
	// Predictor overrides the completion-probability model. Nil selects
	// the paper's Markov model (α = 0.7, ℓ = 10); any other predictor
	// gathers no statistics.
	Predictor markov.Predictor
	// ConsistencyCheckEvery is the consistency-check frequency in
	// processed events (paper Fig. 8 `consistencyCheckFreq`; default 64).
	ConsistencyCheckEvery int
	// BatchSize is the number of events an operator instance processes
	// per lock acquisition (default 256).
	BatchSize int
	// IngestBatch is the most events the splitter ingests per cycle
	// (default 1024). Ingestion also stops, event by event, at the
	// lookahead horizon of 4·Instances windows, unless the root window
	// still lacks events.
	IngestBatch int
	// horizon overrides the lookahead horizon in windows (0: 4·Instances);
	// white-box tests sweep it.
	horizon int
	// Partition overrides the query's PARTITION BY specification. It is
	// interpreted by the public Runtime layer (core itself never routes);
	// a single Engine ignores it.
	Partition *pattern.PartitionSpec
	// Shards overrides the shard count for partitioned Runtime queries;
	// 0 defers to the partition spec, then to the runtime default.
	Shards int
	// QueueCap bounds each shard's unread tail: the kept events admitted
	// to its arena that its splitter has not ingested yet (default 24576).
	// A full tail blocks Feed and rejects TryFeed with an
	// *OverloadError — unless Shed is on, in which case low-utility
	// events are dropped before the tail ever fills.
	QueueCap int
	// Shed enables utility-driven load shedding at admission
	// (internal/shed, DESIGN.md §10): when a shard's unread tail crosses
	// a watermark, the lowest-utility events are dropped instead of
	// blocking Feed or failing TryFeed. Off by default — shedding trades
	// completeness for bounded latency, which only the caller may decide.
	Shed bool
	// PlanDisabled skips the cost-based planner (internal/plan): the
	// query executes verbatim as lowered by the builder. The planner is
	// on by default; its rewrites are output-invariant.
	PlanDisabled bool
	// Reg optionally resolves event-type names in plan explanations
	// (plan.Explain / the metrics endpoint). Never read on the hot path.
	Reg *event.Registry
	// Durable persists per-shard query state (ingest journal, cuts,
	// emission watermarks) through a write-ahead log so the query
	// survives a crash (DESIGN.md §11).
	// Persistence runs on a per-shard persister goroutine off the hot
	// path; only the pre-delivery watermark commit synchronizes with the
	// splitter. Requires Reg (records carry the type/field name tables)
	// and the Runtime Submit path. Nil disables durability.
	Durable durable.Store
	// Upstream runs the shard on a journal its feeder keeps (every cluster
	// worker shard runs so: the coordinator keeps the events and the
	// latest cut). Nil runs the shard on its own stream. Incompatible
	// with Durable.
	Upstream *Upstream
	// Err carries the first invalid-option error; constructors check it
	// before using any other field. Options record violations here (the
	// option-function signature has no error return).
	Err error
}

// Upstream is the contract of a shard whose journal is kept upstream of
// it: the feeder keeps every event from the latest cut's boundary on and
// restarts the shard from that cut (DESIGN.md §12).
//
// The feeder stamps every event's Seq with its position in the shard's
// stream, so the feed layer neither filters nor stamps: positions are
// trusted verbatim, and the ones between them are arena gaps like any
// filtered position. Positions must be strictly increasing per shard.
type Upstream struct {
	// From is the cut the shard starts at; nil starts at the stream's
	// beginning. It restores the consumption marks, the next window id
	// and the emission watermark, and the feeder feeds the events from
	// its Boundary on (Handle.Recovered reports that position). A shard
	// started from a cut is exactly a shard fed the whole stream, minus
	// the matches up to the cut's Watermark.
	From *durable.CutRecord
	// OnCut receives every cut of the shard's stream — one per root pop
	// and a few between windows (cut.go) — on the splitter, after
	// the emissions it follows: no match emitted after the call detects
	// below its Boundary. The record and its Consumed slice are reused by
	// the next call; OnCut must copy what it keeps.
	OnCut func(*durable.CutRecord)
}

// SetError records the first option-validation error. Later errors are
// dropped: the first bad option is the one the caller should hear about.
func (c *Config) SetError(err error) {
	if c.Err == nil {
		c.Err = err
	}
}

func (c *Config) setDefaults() {
	if c.Instances <= 0 {
		c.Instances = 4
	}
	if c.ConsistencyCheckEvery <= 0 {
		c.ConsistencyCheckEvery = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.IngestBatch <= 0 {
		c.IngestBatch = 1024
	}
	if c.QueueCap <= 0 {
		c.QueueCap = defaultQueueCap
	}
	if c.horizon <= 0 {
		c.horizon = horizonPerSlot * c.Instances
	}
}

// defaultQueueCap bounds a shard's unread tail: the kept events admitted
// to its arena but not yet ingested by its splitter. A full tail blocks
// Feed, so backpressure propagates from a slow shard to Handle.Feed and,
// through it, to whatever drives the stream (for the TCP server: the
// connection's read loop, and thus the client's send window; for an
// Engine: the goroutine pulling its source). The tail lives in arena
// chunks, and each unread event pins at most one, so the default is a
// chunk and a half: a shard that opens no window, whose cuts trail its
// cursor by less than idleCutEvery positions, then holds at most three
// chunks — the one being written and the two before it.
const defaultQueueCap = 3 * arena.ChunkSize / 2

// horizonPerSlot is the lookahead horizon per operator instance: the
// splitter keeps at most 4·k windows open past a complete root window
// (DESIGN.md §4.3, §8).
const horizonPerSlot = 4

// Metrics exposes runtime counters. All fields are monotone totals
// gathered during Run; read them with Engine.MetricsSnapshot.
type Metrics struct {
	EventsIngested uint64
	// FilteredEvents counts events dropped by the planner's type-indexed
	// intake prefilter before touching the arena.
	// Kept strictly separate from EventsIngested: fed = ingested +
	// filtered on the intake-filtered path.
	FilteredEvents uint64
	// ShedEvents counts events dropped by the load shedder (WithShedding)
	// because the shard's unread tail crossed its watermark. Disjoint from
	// FilteredEvents: fed = ingested + filtered + shed.
	ShedEvents      uint64
	EventsProcessed uint64 // per-version processing, including speculation
	Cycles          uint64 // splitter maintenance+scheduling cycles (Fig. 10(c))
	WindowsOpened   uint64
	VersionsCreated uint64
	VersionsDropped uint64
	CGsCreated      uint64
	CGsCompleted    uint64
	CGsAbandoned    uint64
	Matches         uint64 // complex events emitted
	EventsConsumed  uint64
	Rollbacks       uint64
	GateReprocessed uint64 // final-gate deterministic reprocessing (≈0)
	MaxTreeSize     int    // high-water mark of window versions (Fig. 10(f))
	SchedulesIssued uint64 // top-k assignments handed to instances
	// Deprecated: always 0; matcher-state checkpoints no longer exist.
	Checkpoints uint64
	// Deprecated: always 0; every fresh version starts at its window start.
	VersionsSeeded uint64
	// Deprecated: always 0; every rollback restarts at the window start.
	PartialRolls uint64

	// Slot occupancy, counted by every scheduling cycle.
	SlotCyclesActive uint64 // Σ over cycles of the slot count k
	SlotCyclesBusy   uint64 // Σ over cycles of slots holding an assignment

	// Durability counters (WithDurability, DESIGN.md §11). All zero when
	// no durable store is configured.
	DurableAppends uint64 // WAL records handed to the store
	DurableSyncs   uint64 // explicit WAL fsyncs (watermark commits)
	// Deprecated: always 0; the WAL no longer carries checkpoints.
	DurableCkptDropped uint64
	DurableErrors      uint64 // WAL write errors; first one breaks durability
	ReplayedEvents     uint64 // journal events replayed on recovery
	SuppressedMatches  uint64 // already-delivered matches suppressed on recovery

	// Root-emission latency gauges: streaming quantile estimates of the
	// time from an event's ingestion to the root window version covering
	// it being finalized, in seconds. Zero until the first root pops;
	// Merge takes the worst shard (a per-query SLO is only as good as
	// its slowest shard).
	EmitLagP50 float64
	EmitLagP99 float64
}

// SlotUtilization reports the cycle-weighted fraction of slots that held
// an assignment when a scheduling cycle began. 1.0 means every slot was
// busy every cycle.
func (m *Metrics) SlotUtilization() float64 {
	if m.SlotCyclesActive == 0 {
		return 0
	}
	return float64(m.SlotCyclesBusy) / float64(m.SlotCyclesActive)
}

// Merge folds o into m: counters add, high-water marks take the maximum.
// Used to aggregate per-shard metrics into per-handle or per-runtime
// totals.
func (m *Metrics) Merge(o *Metrics) {
	m.EventsIngested += o.EventsIngested
	m.FilteredEvents += o.FilteredEvents
	m.ShedEvents += o.ShedEvents
	m.EventsProcessed += o.EventsProcessed
	m.Cycles += o.Cycles
	m.WindowsOpened += o.WindowsOpened
	m.VersionsCreated += o.VersionsCreated
	m.VersionsDropped += o.VersionsDropped
	m.CGsCreated += o.CGsCreated
	m.CGsCompleted += o.CGsCompleted
	m.CGsAbandoned += o.CGsAbandoned
	m.Matches += o.Matches
	m.EventsConsumed += o.EventsConsumed
	m.Rollbacks += o.Rollbacks
	m.GateReprocessed += o.GateReprocessed
	if o.MaxTreeSize > m.MaxTreeSize {
		m.MaxTreeSize = o.MaxTreeSize
	}
	m.SchedulesIssued += o.SchedulesIssued
	m.SlotCyclesActive += o.SlotCyclesActive
	m.SlotCyclesBusy += o.SlotCyclesBusy
	m.DurableAppends += o.DurableAppends
	m.DurableSyncs += o.DurableSyncs
	m.DurableErrors += o.DurableErrors
	m.ReplayedEvents += o.ReplayedEvents
	m.SuppressedMatches += o.SuppressedMatches
	if o.EmitLagP50 > m.EmitLagP50 {
		m.EmitLagP50 = o.EmitLagP50
	}
	if o.EmitLagP99 > m.EmitLagP99 {
		m.EmitLagP99 = o.EmitLagP99
	}
}

// metricsBox guards the metrics counters shared by the splitter and the
// operator instances.
type metricsBox struct {
	mu sync.Mutex
	m  Metrics
}

func (b *metricsBox) add(f func(*Metrics)) {
	b.mu.Lock()
	f(&b.m)
	b.mu.Unlock()
}

func (b *metricsBox) snapshot() Metrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m
}

// msgKind enumerates instance→splitter feedback messages.
type msgKind int

const (
	// msgCGCreated: a new consumption group must be inserted into the
	// dependency tree (paper consumptionGroupCreated).
	msgCGCreated msgKind = iota + 1
	// msgCGResolved: the group's outcome is published on the CG; the tree
	// must splice (consumptionGroupCompleted/Abandoned).
	msgCGResolved
	// msgRolledBack: the version was rolled back; its dependent subtree
	// must be rebuilt.
	msgRolledBack
	// msgStats carries a worker's table of Markov transition counts.
	msgStats
)

type msg struct {
	kind   msgKind
	wv     *deptree.WindowVersion
	cg     *deptree.CG
	counts *markov.Counts
}

// feedbackQueue is the shared MPSC queue between operator instances and
// the splitter. Instances append whole batches while holding their window
// version's mutex, which makes the queue FIFO per window version even when
// a version migrates between instances.
type feedbackQueue struct {
	mu  sync.Mutex
	buf []msg
}

func (q *feedbackQueue) push(batch []msg) {
	if len(batch) == 0 {
		return
	}
	q.mu.Lock()
	q.buf = append(q.buf, batch...)
	q.mu.Unlock()
}

// drain moves all queued messages into dst (reusing its capacity).
func (q *feedbackQueue) drain(dst []msg) []msg {
	q.mu.Lock()
	dst = append(dst, q.buf...)
	for i := range q.buf {
		q.buf[i] = msg{}
	}
	q.buf = q.buf[:0]
	q.mu.Unlock()
	return dst
}

func (q *feedbackQueue) empty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) == 0
}
