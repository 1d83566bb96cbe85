// Package spectre is a Go implementation of SPECTRE (SPECulaTive Runtime
// Environment), the window-based parallel complex event processing
// framework with consumption-policy support from
//
//	Mayer, Slo, Tariq, Rothermel, Gräber, Ramachandran:
//	"SPECTRE: Supporting Consumption Policies in Window-Based Parallel
//	Complex Event Processing", ACM Middleware 2017.
//
// Consumption policies remove events from further pattern detection once
// they participate in a detected complex event. In window-based data
// parallelism this creates dependencies between overlapping windows.
// SPECTRE resolves them speculatively: it maintains multiple versions of
// each dependent window (one per assumed outcome of each undecided
// consumption group), predicts the groups' completion probabilities with
// an online-learned Markov model, and schedules the k most probable window
// versions onto k parallel operator instances. The delivered output equals
// sequential processing exactly — no false positives, no false negatives.
//
// # Quick start
//
//	reg := spectre.NewRegistry()
//	query, err := spectre.ParseQuery(`
//	    PATTERN (A B)
//	    DEFINE A AS A.symbol = 'A', B AS B.symbol = 'B'
//	    WITHIN 1 min FROM A
//	    CONSUME (B)
//	    ON MATCH RESTART LEADER
//	`, reg)
//	// handle err
//	eng, err := spectre.NewEngine(query, spectre.WithInstances(8))
//	// handle err
//	err = eng.Run(ctx, spectre.FromSlice(events), spectre.SinkFunc(func(ce spectre.ComplexEvent) {
//	    fmt.Println(ce)
//	}))
//
// # Constructing queries
//
// Queries enter the system through two equivalent frontends that compile
// through one lowering path (the query package's Builder):
//
//   - ParseQuery compiles the textual DSL above — the extended
//     MATCH-RECOGNIZE notation of the paper's Figure 9. The authoritative
//     grammar lives in the query package docs.
//   - The query package's fluent builder constructs the same queries in
//     Go, with typed field accessors and arbitrary Go predicates — the
//     natural fit for programmatic query generation.
//
// The builder form of the quick-start query:
//
//	b := query.New(reg)
//	q, err := b.Name("influence").
//	    Pattern(query.Step("A").Types("A"), query.Step("B").Types("B")).
//	    Within(query.Duration(time.Minute)).From("A").
//	    Consume("B").
//	    OnMatch(query.RestartLeader).
//	    Build()
//
// Both report failures as the query package's structured *Error (every
// problem at once; parse errors carry line:column positions and a caret
// excerpt). The Pattern/Step/WindowSpec aliases deprecated in the
// previous release have been removed: the builder is the single way to
// assemble queries programmatically.
//
// # The v2 streaming API
//
// Every streaming entry point takes a context.Context and a Sink:
//
//   - Run/Submit/Feed/FeedBatch unblock with ctx.Err() as soon as the
//     context is done — a cancelled run stops within one ingest cycle,
//     a cancelled Feed stops waiting on a shard's full unread tail.
//   - A Sink replaces the bare emit callback: OnMatch receives matches,
//     OnError asynchronous errors (e.g. a cancelled submission context),
//     OnDrain fires exactly once when the query has fully drained. Wrap a
//     plain function with SinkFunc when that is all you need.
//   - Handle.TryFeed never blocks: a shard's full unread tail rejects the
//     event with an *OverloadError (errors.Is ErrOverloaded), the
//     admission signal overload-aware producers shed load on.
//   - Handle.FeedBatch admits whole batches, taking a shard's admission
//     lock once per run of events routed to it — the cheap path for
//     high-throughput producers. Every feed method writes an event once,
//     straight into its shard's arena, which the splitter reads.
//   - Runtime.Shutdown(ctx) drains every query gracefully and aborts
//     whatever misses the deadline.
//
// An Engine serves one query over one stream — a one-shard submission on
// a private runtime. Long-lived, multi-tenant deployments use Runtime
// directly: it hosts many concurrent queries,
// partitions each input stream by a key attribute (`PARTITION BY` in the
// query text, or WithPartitionBy/WithPartitionByType) and multiplexes
// every (query, shard) SPECTRE pipeline onto one shared worker pool —
// see Runtime, Handle and examples/partitioned.
//
// # Scheduling
//
// Every shard runs exactly k operator slots (WithInstances), fixed at
// submission as in the paper. Each splitter cycle hands them the k window
// versions with the highest survival probability under the completion
// model (the paper's Fig. 7 top-k walk; WithFixedProbability swaps in the
// Fig. 11 constant-probability baseline). Speculation is bounded by a
// lookahead horizon of 4·k windows: once the oldest unfinished window has
// all its events, the splitter opens windows only up to the horizon,
// counted from that window, and leaves the rest of the stream unread in
// the shard's arena.
// Neither choice changes the delivered output, only performance;
// Metrics.SlotUtilization reports how busy the k slots were.
//
// # Overload survival
//
// A Runtime submission can opt into graceful degradation under
// sustained overload (DESIGN.md §10): WithShedding drops the
// lowest-utility events at admission once a shard's unread tail crosses a
// watermark — bounding its latency without ever blocking Feed — with the
// utility learned from the query plan's predicate pass rates and each
// type's contribution to emitted matches (Metrics.ShedEvents counts the
// drops). Metrics.EmitLagP50/P99 expose the root-emission lag: the time
// from an event's ingestion to the emission of everything before it.
//
// # Durability and crash recovery
//
// A Runtime built with WithDurability(dir) persists every named query's
// state through a per-shard write-ahead log under dir — the admitted
// ingest journal, root-pop cuts, and an emission watermark fsynced
// before each match batch is delivered. After a crash,
// a new process re-creates the runtime on the same directory, re-submits
// the same queries and calls Runtime.Recover(ctx):
//
//	rt, err := spectre.NewRuntime(reg, spectre.WithDurability("/var/lib/spectre"))
//	// handle err
//	h, err := rt.Submit(ctx, query, sink) // same query name as before the crash
//	// handle err
//	err = rt.Recover(ctx) // the journal suffix is back in the arena
//	// resume feeding from h.Recovered()[shard] per shard
//
// Submit appends each shard's journal suffix to its arena ahead of live
// input, and the splitter replays it, re-forming the windows, as it
// ingests; Recover therefore returns at once.
//
// Each shard restores its last cut, replays the journal suffix from
// there, and suppresses matches the previous process already
// delivered (the persisted watermark), so the delivered stream is
// exactly-once over the journalled substream. Handle.Recovered reports
// where producers must resume. DESIGN.md §11 specifies the WAL format,
// the recovery algorithm and the degraded modes.
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package spectre

import (
	"context"
	"errors"
	"fmt"

	"github.com/spectrecep/spectre/internal/core"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/markov"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/plan"
	"github.com/spectrecep/spectre/internal/seqengine"
	"github.com/spectrecep/spectre/internal/stream"
	"github.com/spectrecep/spectre/internal/trex"
)

// Core data types, re-exported from the internal model.
type (
	// Event is a primitive input event.
	Event = event.Event
	// ComplexEvent is a detected pattern instance.
	ComplexEvent = event.Complex
	// EventType is an interned event type (e.g. a stock symbol).
	EventType = event.Type
	// Registry interns event-type and payload-field names.
	Registry = event.Registry
	// Query is a compiled query: pattern + window specification. Obtain
	// one from ParseQuery or the query package's Builder.
	Query = pattern.Query
	// Source yields events in stream order.
	Source = stream.Source
	// Metrics are the runtime counters of an Engine run.
	Metrics = core.Metrics
	// QueryPlan is the cost-based evaluation plan of a compiled query:
	// the intake type filter, the selectivity-ordered predicate programs
	// and the planner-chosen deployment. Obtain one from Engine.Plan or
	// Handle.Plan; render it with Explain (text) or Info (JSON).
	QueryPlan = plan.Plan
	// PlanInfo is the JSON-serializable snapshot of a QueryPlan.
	PlanInfo = plan.Info
)

// NewRegistry returns an empty type/field registry. Use one registry per
// deployment: the query, the data source and the engine must share it.
func NewRegistry() *Registry { return event.NewRegistry() }

// ParseQuery compiles a textual query in the extended MATCH-RECOGNIZE
// notation of the paper's Figure 9 (PATTERN / DEFINE / WITHIN ... FROM /
// CONSUME; the full grammar is documented in the query package). The
// parser lowers every clause through the query package's Builder, so
// parsed queries and programmatically built ones are interchangeable.
// Errors are the query package's structured *Error with line:column
// positions and a caret excerpt of the offending line.
func ParseQuery(src string, reg *Registry) (*Query, error) {
	return parser.Parse(src, reg)
}

// FromSlice adapts a slice of events into a Source.
func FromSlice(events []Event) Source { return stream.FromSlice(events) }

// FromChan adapts a channel of events into a Source; close the channel to
// end the stream. The returned source is context-aware: a cancelled run
// does not stay blocked on a quiet channel.
func FromChan(ch <-chan Event) Source { return stream.FromChan(ch) }

// Option configures an Engine (and, via Runtime.Submit, a submitted
// query). Invalid arguments — zero, negative or absurdly large counts —
// are reported as an error by the constructor or Submit call the option
// is passed to, never silently replaced with a default.
type Option func(*core.Config)

// maxOptionValue caps count-valued options: values beyond it are
// configuration mistakes (a shard or instance count in the millions buys
// nothing but memory), so they fail validation instead of thrashing.
const maxOptionValue = 1 << 20

// validCount reports whether n is a sane value for the named count
// option, recording the validation error on c otherwise.
func validCount(c *core.Config, option string, n int) bool {
	if n <= 0 || n > maxOptionValue {
		c.SetError(fmt.Errorf("spectre: %s(%d): value must be in [1, %d]", option, n, maxOptionValue))
		return false
	}
	return true
}

// WithInstances sets k, the number of parallel operator instances per
// shard (default 4). k is fixed for the query's lifetime: every splitter
// cycle fills the k slots with the k most probable window versions, and
// the splitter looks ahead at most 4·k windows past the oldest
// unfinished window that has all its events.
func WithInstances(k int) Option {
	return func(c *core.Config) {
		if validCount(c, "WithInstances", k) {
			c.Instances = k
		}
	}
}

// WithRegistry pins the registry a submission's events (and durable WAL
// records) are interpreted against, instead of the runtime's own.
// Deployments that intern each connection's stream into a private
// registry — spectre-server parses every client's query into one — need
// it so a durable query's WAL carries the name tables its events
// actually use. The query must have been parsed or built against the
// same registry.
func WithRegistry(reg *Registry) Option {
	return func(c *core.Config) {
		if reg == nil {
			c.SetError(fmt.Errorf("spectre: WithRegistry(nil)"))
			return
		}
		c.Reg = reg
	}
}

// WithFixedProbability uses a constant completion probability p in [0, 1]
// for every open consumption group (the baseline of the paper's Figure
// 11) instead of the paper's Markov model (α = 0.7, ℓ = 10). Resolved
// groups keep their certain outcome. No completion statistics are
// gathered under it: the operator instances count no Markov transitions.
func WithFixedProbability(p float64) Option {
	return func(c *core.Config) {
		if !(p >= 0 && p <= 1) { // negated form rejects NaN too
			c.SetError(fmt.Errorf("spectre: WithFixedProbability(%g): probability must be in [0, 1]", p))
			return
		}
		c.Predictor = markov.Fixed{P: p}
	}
}

// WithQueueCap bounds each shard's unread tail in a Runtime submission:
// the kept events admitted to the shard's arena that its splitter has
// not read yet (default 24576, a chunk and a half of the arena). A full
// tail blocks Feed/FeedBatch and rejects TryFeed with an *OverloadError,
// so the cap is the admission-control knob: smaller caps surface
// overload sooner, larger caps absorb bursts.
// On an Engine it bounds how far Run reads ahead of the splitter.
func WithQueueCap(n int) Option {
	return func(c *core.Config) {
		if n <= 0 {
			c.SetError(fmt.Errorf("spectre: WithQueueCap(%d): value must be positive", n))
			return
		}
		c.QueueCap = n
	}
}

// WithShedding enables utility-driven load shedding at admission in a
// Runtime submission (DESIGN.md §10). When a shard's unread tail crosses
// a watermark (half the WithQueueCap bound), the events least likely to
// contribute to a match are dropped first — probabilistically, by a
// utility estimate combining the query plan's predicate pass rates with
// each type's observed contribution to emitted matches — instead of
// blocking Feed/FeedBatch or failing TryFeed. Above the high watermark
// (90% of the cap) everything is dropped, so the tail, and with it the
// queueing latency, stays bounded and no Feed caller ever blocks
// indefinitely. Kept events are never reordered, and a shed event
// spends no stream position (as if it had never been fed), so `WITHIN n
// EVENTS` windows and emitted positions are those of the kept events:
// output equals the sequential processing of exactly the admitted
// subsequence. Metrics gains ShedEvents; the default is off (shedding
// trades completeness for bounded latency, which only the caller may
// decide). A standalone Engine ignores it.
func WithShedding() Option {
	return func(c *core.Config) { c.Shed = true }
}

// WithoutPlanner disables the cost-based query planner, which is on by
// default. The planner derives, per query, a closed set of acceptable
// event types and hoists purely type- and field-based guards into an
// intake prefilter that drops irrelevant events before they are sharded
// or buffered; splits each step's conjunctive predicate into binding-free
// and binding-dependent parts and reorders them by observed selectivity;
// and, when WithShards and the query text pin no shard count, picks it
// from the query's estimated per-event cost. Plans never change the delivered output — only where work is
// avoided. Inspect the chosen plan with Engine.Plan/Handle.Plan
// (QueryPlan.Explain renders it; spectre-server serves it as JSON per
// query at /debug/spectre/metrics). DESIGN.md §9 documents the legality
// rules.
//
// Without it every event reaches every shard's splitter, predicates run
// in declaration order and an unpinned shard count defaults to
// GOMAXPROCS; use this to measure the planner or to rule it out while
// debugging.
func WithoutPlanner() Option {
	return func(c *core.Config) { c.PlanDisabled = true }
}

// Engine is the parallel SPECTRE runtime for one query. An Engine runs a
// single stream; construct a new one per run.
type Engine struct {
	inner *core.Engine
}

// NewEngine builds a SPECTRE engine for the query. Invalid options and
// query-validation failures are reported as a *QueryError.
func NewEngine(q *Query, opts ...Option) (*Engine, error) {
	var cfg core.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	inner, err := core.New(q, cfg)
	if err != nil {
		return nil, queryErr(q, err)
	}
	if p := inner.Plan(); p != nil {
		p.SetDeployment(1, false)
	}
	return &Engine{inner: inner}, nil
}

// Plan returns the engine's evaluation plan, or nil when the planner is
// disabled (WithoutPlanner).
func (e *Engine) Plan() *QueryPlan { return e.inner.Plan() }

// Run processes the source and calls sink.OnMatch for every detected
// complex event, in canonical order (window order; detection order within
// a window). The output is exactly what sequential processing would
// produce. When ctx is done, Run stops within one ingest cycle — already
// delivered matches stand, the rest is discarded — reports the context
// error to sink.OnError and returns it. On normal completion sink.OnDrain
// fires before Run returns nil. sink may be nil to discard matches; sink
// methods must not call back into the engine.
func (e *Engine) Run(ctx context.Context, src Source, sink Sink) error {
	var emit func(event.Complex)
	if sink != nil {
		emit = sink.OnMatch
	}
	err := e.inner.Run(ctx, src, emit)
	if sink != nil {
		switch {
		case err == nil:
			sink.OnDrain()
		case errors.Is(err, ErrAlreadyRan):
			// Synchronous misuse, not a stream error: the return value
			// is the only report.
		default:
			sink.OnError(err)
		}
	}
	return err
}

// Metrics returns a snapshot of the runtime counters (throughput inputs,
// speculation statistics, dependency-tree high-water mark, ...).
func (e *Engine) Metrics() Metrics {
	return e.inner.MetricsSnapshot()
}

// SequentialStats summarizes a sequential run (the reference semantics).
type SequentialStats = seqengine.Stats

// RunSequential processes events with the sequential reference engine:
// windows processed to completion one after the other. It defines the
// semantics the parallel engine reproduces, and its
// completed-to-created consumption-group ratio is the "ground truth"
// completion probability of the paper's Figures 10(d)/(e).
func RunSequential(q *Query, events []Event) ([]ComplexEvent, SequentialStats, error) {
	eng, err := seqengine.New(q)
	if err != nil {
		return nil, SequentialStats{}, err
	}
	return eng.Run(events)
}

// BaselineStats summarizes a baseline-engine run.
type BaselineStats = trex.Stats

// RunBaseline processes events with the T-REX-style single-threaded
// baseline engine (general-purpose interpreted automata in
// multi-selection mode, maintaining every partial sequence; the
// comparison system of the paper's §4.2.3). Its detection semantics are
// arrival-ordered with immediate consumption, so match sets can differ
// from the window-ordered reference on overlapping windows.
func RunBaseline(q *Query, events []Event) ([]ComplexEvent, BaselineStats, error) {
	eng, err := trex.NewGeneral(q)
	if err != nil {
		return nil, BaselineStats{}, err
	}
	return eng.Run(events)
}
