package spectre

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/spectrecep/spectre/internal/core"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/plan"
	"github.com/spectrecep/spectre/internal/shard"
)

// PartitionSpec describes key-partitioned execution (the PARTITION BY
// clause), re-exported from the query model.
type PartitionSpec = pattern.PartitionSpec

// RuntimeOption configures a Runtime. Invalid arguments are reported by
// NewRuntime, never silently replaced with a default.
type RuntimeOption func(*core.RuntimeConfig)

// WithWorkers sizes the runtime's shared worker pool (default GOMAXPROCS).
func WithWorkers(n int) RuntimeOption {
	return func(c *core.RuntimeConfig) {
		if n <= 0 || n > maxOptionValue {
			c.SetError(fmt.Errorf("spectre: WithWorkers(%d): value must be in [1, %d]", n, maxOptionValue))
			return
		}
		c.Workers = n
	}
}

// WithDurability makes every query submitted to the runtime durable: a
// per-shard write-ahead log under dir persists the ingest journal,
// cuts and emission watermarks, off the hot path. After a
// crash, re-submitting the same (named) queries against the same
// directory rebuilds their state: Submit puts each shard's journal
// suffix back in its arena, the splitter replays it ahead of live input,
// and Handle.Recovered reports the positions producers should re-feed
// from. Matches delivered before the crash are suppressed
// on replay — the delivered stream stays exactly-once on the kept
// substream (DESIGN.md §11).
func WithDurability(dir string) RuntimeOption {
	return func(c *core.RuntimeConfig) {
		if dir == "" {
			c.SetError(fmt.Errorf("spectre: WithDurability: state directory must not be empty"))
			return
		}
		st, err := durable.NewFileStore(dir)
		if err != nil {
			c.SetError(fmt.Errorf("spectre: WithDurability(%q): %w", dir, err))
			return
		}
		c.Durable = st
	}
}

// WithShards overrides the shard count of a partitioned query submitted to
// a Runtime (default: the query's PARTITION BY ... SHARDS value, then
// GOMAXPROCS).
func WithShards(n int) Option {
	return func(c *core.Config) {
		if validCount(c, "WithShards", n) {
			c.Shards = n
		}
	}
}

// WithPartitionBy partitions the query's input stream by the named payload
// field, overriding any PARTITION BY clause in the query text. Runtime
// submissions only; a standalone Engine ignores it.
func WithPartitionBy(field string) Option {
	return func(c *core.Config) {
		c.Partition = &pattern.PartitionSpec{Field: -1, FieldName: field}
	}
}

// WithPartitionByType partitions the query's input stream by event type
// (e.g. per stock symbol), overriding any PARTITION BY clause in the query
// text. Runtime submissions only; a standalone Engine ignores it.
func WithPartitionByType() Option {
	return func(c *core.Config) {
		c.Partition = &pattern.PartitionSpec{ByType: true, Field: -1}
	}
}

// Runtime is the long-lived, multi-query SPECTRE service. Unlike Engine —
// one query, one stream, one run — a Runtime hosts many concurrent
// queries, partitions each query's input by a key attribute (PARTITION BY
// in the query text, or WithPartitionBy/WithPartitionByType) into
// independent shards, and multiplexes every (query, shard) SPECTRE
// pipeline onto one shared worker pool sized to the machine.
//
//	rt, err := spectre.NewRuntime(reg)
//	// handle err
//	h, err := rt.Submit(ctx, query, spectre.SinkFunc(func(ce spectre.ComplexEvent) { ... }))
//	// handle err
//	for _, batch := range batches {
//	    _ = h.FeedBatch(ctx, batch)
//	}
//	h.Drain()
//	rt.Shutdown(ctx)
type Runtime struct {
	rt    *core.Runtime
	reg   *Registry
	store durable.Store // owned by this Runtime when WithDurability built it; nil otherwise
}

// NewRuntime starts a runtime. The registry must be the one shared by the
// queries and event sources fed to it. Invalid options (e.g.
// WithWorkers(0)) are reported as an error.
func NewRuntime(reg *Registry, opts ...RuntimeOption) (*Runtime, error) {
	var cfg core.RuntimeConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Err != nil {
		if cfg.Durable != nil {
			_ = cfg.Durable.Close()
		}
		return nil, cfg.Err
	}
	return &Runtime{rt: core.NewRuntime(cfg), reg: reg, store: cfg.Durable}, nil
}

// Handle is one query submitted to a Runtime. Feed/TryFeed/FeedBatch are
// single-producer: events of one handle must be fed from one goroutine
// (or externally serialized) so the stream order is well-defined.
type Handle struct {
	h       *core.Handle
	mu      sync.Mutex // serializes every sink invocation; guards the fields below
	sink    Sink
	drained bool        // OnDrain delivered; suppresses any later OnError
	stop    func() bool // cancels the submission-context watcher
}

// resolvePartition turns a submission's partition spec (the option's, else
// the query text's) into a shard count and a router, for Runtime.Submit
// and Cluster.Submit alike. The count is WithShards, else the spec's, else
// defaultShards (defaulted reports that last case). An unpartitioned query
// runs on one shard with a nil router.
func resolvePartition(q *Query, cfg *core.Config, reg *Registry, defaultShards int) (nShards int, route func(*event.Event) int, defaulted bool, err error) {
	spec := cfg.Partition
	if spec == nil {
		spec = q.Partition
	}
	if spec == nil {
		if cfg.Shards > 1 {
			return 0, nil, false, fmt.Errorf("%d shards requested but the query has no partition key (use PARTITION BY or WithPartitionBy)", cfg.Shards)
		}
		return 1, nil, false, nil
	}
	resolved := *spec
	if !resolved.ByType && resolved.Field < 0 {
		if resolved.FieldName == "" {
			return 0, nil, false, fmt.Errorf("partition spec names no key")
		}
		resolved.Field = reg.FieldIndex(resolved.FieldName)
	}
	nShards = cfg.Shards
	if nShards <= 0 {
		nShards = resolved.Shards
	}
	if nShards <= 0 {
		nShards, defaulted = defaultShards, true
	}
	key, err := shard.FromSpec(&resolved)
	if err != nil {
		return 0, nil, false, err
	}
	return nShards, shard.NewRouter(nShards, key).Route, defaulted, nil
}

// Submit compiles and starts q on the runtime. The sink receives the
// query's output (serialized per handle; within a shard the match order
// is canonical — exactly a standalone Engine's order over that
// partition's substream); it may be nil to discard matches. Options are
// the Engine options plus WithShards/WithPartitionBy/WithPartitionByType.
//
// ctx governs the submission's lifetime: if it is cancelled while the
// query is live, the handle aborts — pending events are discarded, the
// sink hears OnError(ctx.Err()) and then OnDrain. Compile and validation
// failures are returned synchronously as a *QueryError.
func (rt *Runtime) Submit(ctx context.Context, q *Query, sink Sink, opts ...Option) (*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cfg core.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Err != nil {
		return nil, queryErr(q, cfg.Err)
	}
	if cfg.Reg == nil {
		cfg.Reg = rt.reg
	}

	// Plan-driven deployment: when neither WithShards nor the query pins a
	// count, the shard count follows the query's estimated per-event cost
	// (GOMAXPROCS without the planner).
	defaultShards := runtime.GOMAXPROCS(0)
	if !cfg.PlanDisabled {
		defaultShards = plan.EstimateQuery(q).RecommendedShards
	}
	nShards, route, defaulted, err := resolvePartition(q, &cfg, rt.reg, defaultShards)
	if err != nil {
		return nil, queryErr(q, err)
	}
	autoShards := defaulted && !cfg.PlanDisabled

	h := &Handle{sink: sink}
	var emit func(event.Complex)
	if sink != nil {
		emit = func(ce event.Complex) {
			h.mu.Lock()
			sink.OnMatch(ce)
			h.mu.Unlock()
		}
	}
	ch, err := rt.rt.Submit(q, cfg, route, nShards, emit, h.notifyDrain)
	if err != nil {
		if errors.Is(err, ErrRuntimeClosed) {
			return nil, err
		}
		return nil, queryErr(q, err)
	}
	h.h = ch
	if p := ch.Plan(); p != nil {
		p.SetDeployment(nShards, autoShards)
	}
	if ctx.Done() != nil {
		h.mu.Lock()
		alreadyDrained := h.drained
		h.stop = context.AfterFunc(ctx, func() {
			h.mu.Lock()
			if h.drained {
				// The query drained before the cancellation landed: the
				// sink already heard its terminal OnDrain, nothing to do.
				h.mu.Unlock()
				return
			}
			if sink != nil {
				sink.OnError(ctx.Err())
			}
			h.mu.Unlock()
			// Abort and drive the drain ourselves, so the sink hears
			// OnError and then OnDrain even if the caller never Waits.
			ch.Abort()
			ch.Wait()
		})
		h.mu.Unlock()
		if alreadyDrained {
			h.stop()
		}
	}
	return h, nil
}

// notifyDrain forwards the core drain notification to the sink (exactly
// once, serialized with OnMatch/OnError, and terminal: later
// cancellations are suppressed) and disarms the submission-context
// watcher.
func (h *Handle) notifyDrain() {
	h.mu.Lock()
	h.drained = true
	stop := h.stop
	if h.sink != nil {
		h.sink.OnDrain()
	}
	h.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Run feeds src to every currently submitted query (each routes events
// through its own partitioner), closes the handles and waits until all of
// them drain. A done ctx stops mid-stream (the handles still drain what
// they admitted) and is reported as ctx.Err(). It is the batch
// convenience on top of Feed/Close/Wait.
func (rt *Runtime) Run(ctx context.Context, src Source) error {
	return rt.rt.Run(ctx, src)
}

// Close drains every handle gracefully and stops the worker pool, with no
// deadline. The runtime is unusable afterwards. Equivalent to
// Shutdown(context.Background()).
func (rt *Runtime) Close() error { return rt.closeStore(rt.rt.Close()) }

// Shutdown closes every handle (end of stream) and waits for the admitted
// backlog to drain. If ctx expires first, the remaining queries are
// aborted — pending events discarded, their sinks notified — and
// ctx.Err() is returned. Either way the worker pool stops and the runtime
// is unusable afterwards.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	return rt.closeStore(rt.rt.Shutdown(ctx))
}

// closeStore releases the WithDurability store after the core runtime has
// stopped (every shard log is closed by then). The runtime owns that
// store; a store injected at the core layer is its creator's to close.
func (rt *Runtime) closeStore(err error) error {
	if rt.store == nil {
		return err
	}
	if cerr := rt.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Recover marks the point where every durable query submitted so far has
// its recovered ingest journal back: call it after re-submitting the
// queries of a crashed process (same names, same state directory) and
// before feeding new input, which producers resume from the positions
// reported by Handle.Recovered. Submit already appended each shard's
// journal suffix to its arena, ahead of any live input, and the splitter
// replays it — re-forming the pre-crash windows — as it ingests, so
// Recover returns at once.
func (rt *Runtime) Recover(ctx context.Context) error { return rt.rt.Recover(ctx) }

// Name returns the query's name.
func (h *Handle) Name() string { return h.h.Name() }

// Shards returns how many shards the query runs on.
func (h *Handle) Shards() int { return h.h.Shards() }

// Feed routes one event to its shard, blocking while the shard's unread
// tail is full (backpressure). Events must arrive in stream order per handle. It
// returns ErrHandleClosed after Close, or ctx.Err() when ctx is done
// before the event is admitted.
func (h *Handle) Feed(ctx context.Context, ev Event) error { return h.h.Feed(ctx, ev) }

// TryFeed routes one event to its shard without ever blocking: the
// shard's full unread tail rejects it with an *OverloadError (errors.Is
// ErrOverloaded). This is the admission signal for overload-aware
// producers — shed, sample or retry instead of stalling.
func (h *Handle) TryFeed(ev Event) error { return h.h.TryFeed(ev) }

// FeedBatch routes a batch of in-order events, taking a shard's
// admission lock once per run of events routed to it instead of once per
// event — the cheap path for high-throughput producers. It blocks like
// Feed on a full unread tail and unblocks with ctx.Err() on
// cancellation; on error, the events before the interruption are
// admitted (each shard always receives an in-order prefix of its
// substream).
func (h *Handle) FeedBatch(ctx context.Context, evs []Event) error { return h.h.FeedBatch(ctx, evs) }

// Close marks end of stream; pending events are still processed.
func (h *Handle) Close() { h.h.Close() }

// Wait blocks until every shard of the query has drained (Close first).
func (h *Handle) Wait() { h.h.Wait() }

// Drain closes the handle and waits for completion.
func (h *Handle) Drain() {
	h.Close()
	h.Wait()
}

// Park detaches a durable query without ending its stream and waits for
// the detach to complete: in-flight windows stay in the WAL (a Drain
// would run them to completion at today's stream length instead), and a
// later Submit of the same query name against the same state directory
// resumes them — the producer re-feeds from Handle.Recovered. This is
// how a server releases a disconnected client's durable query so a
// reconnect can take over. On a non-durable handle it behaves like
// Drain.
func (h *Handle) Park() {
	h.h.Park()
	h.h.Wait()
}

// Recovered reports, per shard, the next event position the durable log
// had journalled when the query was submitted — the offset producers
// must resume this shard's substream from for gap-free, duplicate-free
// recovery (events before it are replayed from the journal). Nil when
// the query is not durable.
func (h *Handle) Recovered() []uint64 { return h.h.Recovered() }

// Plan returns the submitted query's evaluation plan, or nil when the
// planner is disabled (WithoutPlanner).
func (h *Handle) Plan() *QueryPlan { return h.h.Plan() }

// Metrics aggregates the runtime counters across the query's shards.
func (h *Handle) Metrics() Metrics { return h.h.Metrics() }

// ShardMetrics returns the per-shard runtime counters.
func (h *Handle) ShardMetrics() []Metrics { return h.h.ShardMetrics() }
