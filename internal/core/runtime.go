package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/plan"
	"github.com/spectrecep/spectre/internal/shed"
	"github.com/spectrecep/spectre/internal/stream"
)

// Runtime errors.
var (
	// ErrRuntimeClosed is returned by Submit/Run after Close.
	ErrRuntimeClosed = errors.New("core: runtime is closed")
	// ErrHandleClosed is returned by Feed after the handle closed.
	ErrHandleClosed = errors.New("core: query handle is closed")
	// ErrShuttingDown is returned by a Submit that raced Shutdown/Close:
	// the runtime is tearing down and will never drive the new shards.
	// It matches ErrRuntimeClosed via errors.Is.
	ErrShuttingDown = fmt.Errorf("core: runtime is shutting down: %w", ErrRuntimeClosed)
)

// RuntimeConfig parameterizes a Runtime.
type RuntimeConfig struct {
	// Workers sizes the shared worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Durable is the runtime's default durable store: every submission
	// whose Config.Durable is nil inherits it. The runtime never closes
	// the store — ownership stays with whoever created it.
	Durable durable.Store
	// Err carries the first invalid-option error; NewRuntime callers
	// check it before starting the pool.
	Err error
}

// SetError records the first option-validation error.
func (c *RuntimeConfig) SetError(err error) {
	if c.Err == nil {
		c.Err = err
	}
}

// Runtime is the long-lived, multi-query SPECTRE service: it hosts many
// concurrent queries, each split into one or more key-partitioned shards
// (an independent dependency tree + splitter per (query, shard)), and
// multiplexes all shards onto one shared worker pool sized to the machine
// instead of k goroutines per engine.
type Runtime struct {
	pool    *Pool
	durable durable.Store // default store inherited by submissions
	mu      sync.Mutex
	closed  bool
	handles []*Handle
}

// NewRuntime starts a runtime with its own worker pool.
func NewRuntime(cfg RuntimeConfig) *Runtime {
	return &Runtime{pool: NewPool(cfg.Workers), durable: cfg.Durable}
}

// Handle is one submitted query: the routing function, its shards and the
// per-handle emit callback. Feed routes events to shards; Close marks end
// of stream; Wait blocks until every shard drained.
type Handle struct {
	rt      *Runtime
	name    string
	route   func(*event.Event) int
	shards  []*shardState
	queues  []*shardQueue
	scatter [][]event.Event // FeedBatch per-shard scratch (single producer)
	emitMu  sync.Mutex
	closed  atomic.Bool
	drained sync.Once
	onDrain func()

	// Admission state (see admit). plan filters at intake when filter is
	// set; next[i] is shard i's next position, advanced by kept and
	// filtered events alike and, like scatter, owned by the single
	// producer. preStamped handles trust the feeder's positions instead.
	plan       *plan.Plan
	filter     bool
	preStamped bool
	next       []uint64
}

// Submit compiles q and starts nShards independent shard states on the
// shared pool. route maps an event to a shard index (ignored — and may be
// nil — when nShards is 1); emit receives every complex event of the
// query, serialized per handle (shard order within a shard is canonical,
// interleaving across shards is arrival-order); onDrain, if non-nil, fires
// exactly once when the handle has fully drained (or aborted). The handle
// is live immediately: Feed before, during and after other queries' runs.
func (rt *Runtime) Submit(q *pattern.Query, cfg Config, route func(*event.Event) int, nShards int, emit func(event.Complex), onDrain func()) (*Handle, error) {
	if cfg.Err != nil {
		return nil, cfg.Err
	}
	if nShards <= 0 {
		nShards = 1
	}
	if nShards > 1 && route == nil {
		return nil, fmt.Errorf("core: %d shards need a routing function", nShards)
	}
	switch {
	case cfg.Upstream != nil && cfg.Durable != nil:
		return nil, errors.New("core: a shard journaled upstream (Config.Upstream) keeps no WAL (Config.Durable)")
	case cfg.Upstream != nil && nShards > 1:
		return nil, errors.New("core: a journal kept upstream (Config.Upstream) is one shard's")
	case cfg.Upstream == nil && cfg.Durable == nil:
		cfg.Durable = rt.durable
	}
	prog, err := compile(q, cfg)
	if err != nil {
		return nil, err
	}
	if prog.cfg.Durable != nil {
		if q.Name == "" {
			return nil, errors.New("core: durable queries must be named (the name keys the WAL shard)")
		}
		if prog.cfg.Reg == nil {
			return nil, errors.New("core: durability requires Config.Reg (WAL records carry the registry's name tables)")
		}
	}
	return rt.start(prog, route, nShards, emit, onDrain)
}

// start builds the handle of a compiled query — shards, queues, WAL
// attachment — and attaches its shards to the pool.
func (rt *Runtime) start(prog *program, route func(*event.Event) int, nShards int, emit func(event.Complex), onDrain func()) (*Handle, error) {
	name := prog.query.Name
	h := &Handle{
		rt:         rt,
		name:       name,
		route:      route,
		onDrain:    onDrain,
		plan:       prog.plan,
		filter:     prog.plan != nil && prog.plan.IntakeActive() && prog.cfg.Upstream == nil,
		preStamped: prog.cfg.Upstream != nil,
		next:       make([]uint64, nShards),
	}
	if emit == nil {
		emit = func(event.Complex) {}
	}
	// release undoes a partially built handle: any persisters already
	// running (their WAL shard locks must be freed for a retry).
	release := func() {
		for _, s := range h.shards {
			if s.persist != nil {
				s.persist.shutdown()
			}
		}
	}
	for i := 0; i < nShards; i++ {
		s, err := newShard(prog)
		if err != nil {
			release()
			return nil, err
		}
		if prog.cfg.Shed {
			scfg := shed.Config{QueueCap: prog.cfg.QueueCap}
			if prog.plan != nil {
				scfg.Prior = prog.plan.UtilityPrior
			}
			s.shed = shed.New(scfg)
		}
		var rec *durable.ShardState
		if up := prog.cfg.Upstream; up != nil {
			s.onCut = up.OnCut
			if up.From != nil {
				// The journal is upstream: start from its cut with nothing
				// to replay here; the feeder re-feeds from its boundary.
				s.primeRecovered(&durable.ShardState{Cut: up.From, Watermark: up.From.Watermark, NextSeq: up.From.Boundary})
			}
		}
		if prog.cfg.Durable != nil {
			// Open (and recover) the shard's WAL before it runs; the
			// recovered journal suffix is preloaded ahead of live input.
			rec, err = attachDurability(s, name, i)
			if err != nil {
				release()
				return nil, err
			}
			if rec != nil {
				h.next[i] = rec.NextSeq
			}
		}
		queue := newShardQueue(prog.cfg.QueueCap)
		if rec != nil && len(rec.Events) > 0 {
			queue.load(rec.Events)
		}
		s.begin(queue, func(ce event.Complex) {
			h.emitMu.Lock()
			emit(ce)
			h.emitMu.Unlock()
		})
		h.shards = append(h.shards, s)
		h.queues = append(h.queues, queue)
	}
	h.scatter = make([][]event.Event, nShards)

	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		release()
		return nil, ErrShuttingDown
	}
	rt.handles = append(rt.handles, h)
	// Attach under rt.mu: a concurrent Shutdown either sees the handle
	// (and drains it) or closed the runtime before this point (and the
	// submission was rejected above). Attaching after the unlock would
	// let Shutdown slip between the two — the shards would never be
	// driven and Wait would hang on an orphaned handle.
	rt.pool.Attach(h.shards...)
	rt.mu.Unlock()
	return h, nil
}

// Recover blocks until every recovering shard of every submitted handle
// has replayed its persisted journal suffix — the point where each
// query's in-memory state has caught back up with the WAL and producers
// may resume feeding live input (from the positions Handle.Recovered
// reports). Queries submitted against an empty store return immediately.
// Replay proceeds regardless of whether Recover is called; the barrier
// only exists so callers can sequence "recovered" side effects (resume
// frames, producer rewind) after the replay.
func (rt *Runtime) Recover(ctx context.Context) error {
	rt.mu.Lock()
	handles := append([]*Handle(nil), rt.handles...)
	rt.mu.Unlock()
	for _, h := range handles {
		for _, s := range h.shards {
			for s.replayTarget > 0 && s.ar.Len() < s.replayTarget &&
				!s.finished.Load() && !s.cancelled.Load() {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(200 * time.Microsecond):
				}
			}
		}
	}
	return nil
}

// Run feeds src to every currently submitted handle (each handle routes
// the events through its own partitioner), then closes the handles and
// waits until all of them drain. A done ctx stops mid-stream: the handles
// are still closed and drained of what they admitted, and ctx.Err() is
// returned. It is the batch convenience on top of Feed/Close/Wait.
func (rt *Runtime) Run(ctx context.Context, src stream.Source) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrRuntimeClosed
	}
	handles := append([]*Handle(nil), rt.handles...)
	rt.mu.Unlock()

	cs, ctxAware := src.(stream.ContextSource)
	for ctx.Err() == nil {
		var (
			ev event.Event
			ok bool
		)
		// Context-aware sources (channels, network reads) unblock on
		// cancellation instead of waiting for an event that never comes.
		if ctxAware {
			ev, ok = cs.NextCtx(ctx)
		} else {
			ev, ok = src.Next()
		}
		if !ok {
			break
		}
		for _, h := range handles {
			if !h.closed.Load() {
				h.feed(ctx, ev)
			}
		}
	}
	for _, h := range handles {
		h.Close()
	}
	for _, h := range handles {
		h.Wait()
	}
	return ctx.Err()
}

// Close drains every handle gracefully (end-of-stream, wait for all
// shards) and stops the worker pool. The runtime is unusable afterwards.
func (rt *Runtime) Close() error { return rt.Shutdown(context.Background()) }

// Shutdown closes every handle (end of stream) and waits for all shards
// to drain their admitted backlog. If ctx expires first, the remaining
// handles are aborted — pending events are discarded, splitters finish
// within one cycle — and ctx.Err() is returned. Either way the worker
// pool is stopped and the runtime is unusable afterwards.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	handles := append([]*Handle(nil), rt.handles...)
	rt.mu.Unlock()

	for _, h := range handles {
		if h.durable() {
			// A durable query is parked, not ended: shutdown is an
			// operational event, not the end of its stream. In-flight
			// windows stay in the WAL and recovery resumes them; closing
			// instead would truncate them at today's stream length. An
			// explicit Handle.Close/Drain remains genuine end of stream.
			h.park()
		} else {
			h.Close()
		}
	}
	err := ctx.Err()
	if err == nil {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, h := range handles {
				h.Wait()
			}
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err != nil {
		// Drain deadline missed: abort what is left. Cancelled splitters
		// finish on their next pool cycle, so the second wait is short.
		for _, h := range handles {
			h.Abort()
		}
		for _, h := range handles {
			h.Wait()
		}
	}
	rt.pool.Close()
	return err
}

// Name returns the submitted query's name.
func (h *Handle) Name() string { return h.name }

// Recovered reports, per shard, the raw-substream position a producer
// should re-feed from after crash recovery (0 for a fresh shard) or, for
// a shard journaled upstream, the boundary of the cut it started from;
// shed events hold no position. It returns nil when the handle has
// neither a durable store nor an upstream journal.
func (h *Handle) Recovered() []uint64 {
	if h.shards[0].persist == nil && h.shards[0].prog.cfg.Upstream == nil {
		return nil
	}
	out := make([]uint64, len(h.shards))
	for i, s := range h.shards {
		out[i] = s.recoveredNextSeq
	}
	return out
}

// Shards returns the number of shards the query runs on.
func (h *Handle) Shards() int { return len(h.shards) }

// Feed routes one event to its shard, blocking while that shard's queue
// is full. It returns ErrHandleClosed after Close, or ctx.Err() when ctx
// is done first (the event is not admitted).
func (h *Handle) Feed(ctx context.Context, ev event.Event) error {
	if h.closed.Load() {
		return ErrHandleClosed
	}
	return h.feed(ctx, ev)
}

func (h *Handle) feed(ctx context.Context, ev event.Event) error {
	i := h.shardOf(&ev)
	t := h.openTally(i)
	// Shedding keeps the queue depth strictly below the high watermark
	// (everything above it is dropped), so a shedding Feed never blocks.
	if h.admit(i, &ev, &t) {
		if err := h.queues[i].push(ctx, ev); err != nil {
			return err
		}
	}
	h.commit(i, &t)
	return nil
}

// TryFeed routes one event to its shard without ever blocking. A full
// shard queue rejects the event with an *OverloadError (errors.Is
// ErrOverloaded) — the admission signal load-shedding callers need.
func (h *Handle) TryFeed(ev event.Event) error {
	if h.closed.Load() {
		return ErrHandleClosed
	}
	i := h.shardOf(&ev)
	t := h.openTally(i)
	if h.admit(i, &ev, &t) {
		if pending, ok := h.queues[i].tryPush(ev); !ok {
			if pending < 0 {
				return ErrHandleClosed
			}
			return &OverloadError{Query: h.name, Shard: i, Pending: pending, Cap: h.queues[i].cap}
		}
	}
	h.commit(i, &t)
	return nil
}

// FeedBatch routes a batch of in-order events, enqueueing one slice per
// shard: per-event queue synchronization is paid once per (batch, shard)
// instead of once per event. Like Feed it blocks on full shard queues and
// unblocks with ctx.Err() on cancellation; a batch interrupted mid-way
// reports the error with events of earlier shards already admitted (the
// per-shard prefix property callers rely on still holds: every shard
// receives an in-order prefix of its substream).
func (h *Handle) FeedBatch(ctx context.Context, evs []event.Event) error {
	if h.closed.Load() {
		return ErrHandleClosed
	}
	if len(h.queues) == 1 {
		return h.pushBatch(ctx, 0, evs)
	}
	for i := range h.scatter {
		h.scatter[i] = h.scatter[i][:0]
	}
	for i := range evs {
		shard := h.shardOf(&evs[i])
		h.scatter[shard] = append(h.scatter[shard], evs[i])
	}
	for i, chunk := range h.scatter {
		if err := h.pushBatch(ctx, i, chunk); err != nil {
			return err
		}
	}
	return nil
}

// pushBatch admits evs to shard i while the queue appends them, in one
// critical section, and commits the shard's tally once they are queued.
func (h *Handle) pushBatch(ctx context.Context, i int, evs []event.Event) error {
	t := h.openTally(i)
	if err := h.queues[i].pushBatch(ctx, evs, func(ev *event.Event) bool { return h.admit(i, ev, &t) }); err != nil {
		return err
	}
	h.commit(i, &t)
	return nil
}

// shardOf maps ev to its shard index.
func (h *Handle) shardOf(ev *event.Event) int {
	if h.route == nil {
		return 0
	}
	if i := h.route(ev); i >= 0 && i < len(h.queues) {
		return i
	}
	return 0
}

// tally is one shard's provisional admission state: admit advances it
// event by event, and commit publishes it only once the kept events are
// queued, so an event that fails to queue spends nothing.
type tally struct {
	next     uint64 // the shard's next position
	depth    int    // queue depth the shedder sees (shedding shards only)
	filtered uint64
	shed     uint64
}

// openTally starts a tally of shard i's admission state.
func (h *Handle) openTally(i int) tally {
	t := tally{next: h.next[i]}
	if h.shards[i].shed != nil {
		t.depth = h.queues[i].depth()
	}
	return t
}

// admit decides whether ev, routed to shard i, is queued — the one
// admission routine of Feed, TryFeed, FeedBatch and Runtime.Run:
//
//  1. the intake filter drops an event the query can never use; the
//     event spends its position, which becomes an arena gap;
//  2. the shedder drops an event under overload; a shed event — like a
//     TryFeed rejection — spends no position: it never existed;
//  3. a kept event is stamped with the shard's next position.
//
// Window spans and emitted positions therefore equal those of a
// sequential run over the kept events.
func (h *Handle) admit(i int, ev *event.Event, t *tally) bool {
	if h.filter && !h.plan.Admit(ev) {
		t.next++
		t.filtered++
		return false
	}
	if s := h.shards[i].shed; s != nil && !s.Offer(ev.Type, t.depth) {
		t.shed++
		return false
	}
	if !h.preStamped {
		ev.Seq = t.next
	}
	t.next++
	t.depth++
	return true
}

// commit publishes shard i's admission state once its kept events are
// queued.
func (h *Handle) commit(i int, t *tally) {
	h.next[i] = t.next
	if t.filtered > 0 {
		h.plan.CountFiltered(t.filtered)
		h.shards[i].filteredIn.Add(t.filtered)
	}
	if t.shed > 0 {
		h.shards[i].shedIn.Add(t.shed)
	}
}

// Close marks end of stream for every shard. Pending events are still
// processed; use Wait to block until the query drains. Idempotent.
func (h *Handle) Close() {
	if !h.closed.CompareAndSwap(false, true) {
		return
	}
	for _, q := range h.queues {
		q.close()
	}
}

// durable reports whether the handle persists through a WAL.
func (h *Handle) durable() bool { return h.shards[0].persist != nil }

// Park detaches a durable query without ending its stream: feeds are
// refused, queued-but-uningested events are discarded (the producer
// re-feeds them from Recovered after the next submit), in-flight windows
// stay in the WAL, and the shard's persister releases its WAL lock once
// drained — so the same query name can be resubmitted against the same
// store and resume exactly where it parked. Use Wait to block until the
// detach completes. On a non-durable handle Park degrades to Close:
// there is no state to resume, ending the stream is the only detach.
func (h *Handle) Park() {
	if !h.durable() {
		h.Close()
		return
	}
	h.park()
}

// park pauses every durable shard without stream-end semantics (see
// shardState.park) and refuses further feeds.
func (h *Handle) park() {
	h.closed.Store(true)
	for _, s := range h.shards {
		s.park()
	}
}

// Abort closes the handle and cancels its shards: pending events are
// discarded and the splitters finish within one pool cycle without
// emitting further output. Used when a submission context is cancelled
// and by Shutdown on drain timeout. Idempotent; safe concurrently with
// Close/Wait/Feed.
func (h *Handle) Abort() {
	h.closed.Store(true)
	for _, s := range h.shards {
		s.cancel()
	}
}

// Wait blocks until every shard has fully processed its stream. Callers
// must Close first (directly or via Runtime.Run/Close), otherwise Wait
// blocks forever. Once drained, the runtime forgets the handle (its
// arenas and trees become collectable as soon as the caller drops it) and
// the handle's drain callback fires (exactly once, on the first waiter).
func (h *Handle) Wait() {
	for _, s := range h.shards {
		<-s.done
	}
	h.rt.forget(h)
	h.drained.Do(func() {
		if h.onDrain != nil {
			h.onDrain()
		}
	})
}

// forget drops a fully drained handle from the runtime's bookkeeping so
// long-lived servers do not accumulate dead queries.
func (rt *Runtime) forget(h *Handle) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, cur := range rt.handles {
		if cur == h {
			rt.handles = append(rt.handles[:i], rt.handles[i+1:]...)
			return
		}
	}
}

// Drain closes the handle and waits for completion.
func (h *Handle) Drain() {
	h.Close()
	h.Wait()
}

// Metrics aggregates the runtime counters across the handle's shards.
func (h *Handle) Metrics() Metrics {
	var total Metrics
	for _, s := range h.shards {
		m := s.metricsSnapshot()
		total.Merge(&m)
	}
	return total
}

// ShardMetrics returns the per-shard counters.
func (h *Handle) ShardMetrics() []Metrics {
	out := make([]Metrics, len(h.shards))
	for i, s := range h.shards {
		out[i] = s.metricsSnapshot()
	}
	return out
}

// Plan returns the handle's evaluation plan, or nil when planning is
// disabled.
func (h *Handle) Plan() *plan.Plan { return h.shards[0].prog.plan }
