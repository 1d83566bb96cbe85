package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/plan"
	"github.com/spectrecep/spectre/internal/shard"
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
	route   *shard.Router
	shards  []*shardState
	emitMu  sync.Mutex
	closed  atomic.Bool
	drained sync.Once
	onDrain func()

	// Admission state (see admit). plan filters at intake when filter is
	// set; next[i] is shard i's next position, advanced by kept and
	// filtered events alike under shard i's admission lock.
	// preStamped handles trust the feeder's positions instead.
	plan       *plan.Plan
	filter     bool
	preStamped bool
	next       []uint64
}

// Submit compiles q and starts nShards independent shard states on the
// shared pool. route maps an event to a shard index (ignored — and may be
// nil — when nShards is 1; an index out of range reads as shard 0); emit
// receives every complex event of the query, serialized per handle
// (shard order within a shard is canonical, interleaving across shards
// is arrival-order); onDrain, if non-nil, fires exactly once when the
// handle has fully drained (or aborted). The handle is live immediately:
// Feed before, during and after other queries' runs.
func (rt *Runtime) Submit(q *pattern.Query, cfg Config, route *shard.Router, nShards int, emit func(event.Complex), onDrain func()) (*Handle, error) {
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

// start builds the handle of a compiled query — shards and WAL
// attachment — and attaches its shards to the pool.
func (rt *Runtime) start(prog *program, route *shard.Router, nShards int, emit func(event.Complex), onDrain func()) (*Handle, error) {
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
		// The state the shard restarts from: an upstream cut (the feeder
		// re-feeds from its boundary) or what its WAL loads to.
		var rec *durable.ShardState
		if up := prog.cfg.Upstream; up != nil {
			s.onCut = up.OnCut
			if up.From != nil {
				rec = &durable.ShardState{Cut: up.From, Watermark: up.From.Watermark, NextSeq: up.From.Boundary}
			}
		}
		if prog.cfg.Durable != nil {
			if rec, err = attachDurability(s, name, i); err != nil {
				release()
				return nil, err
			}
		}
		if rec != nil {
			s.primeRecovered(rec)
			h.next[i] = rec.NextSeq
		}
		if s.persist != nil {
			go s.persist.run()
		}
		s.begin(func(ce event.Complex) {
			h.emitMu.Lock()
			emit(ce)
			h.emitMu.Unlock()
		})
		h.shards = append(h.shards, s)
	}

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

// Feed routes one event to its shard, blocking while that shard's
// unread tail is full. It returns ErrHandleClosed after Close, or
// ctx.Err() when ctx is done first (the event is not admitted).
// The arena, and for a durable shard the WAL batch, keep ev.Fields: the
// caller must not reuse the array (ROADMAP item 27(a)).
func (h *Handle) Feed(ctx context.Context, ev event.Event) error {
	if h.closed.Load() {
		return ErrHandleClosed
	}
	return h.feed(ctx, ev)
}

func (h *Handle) feed(ctx context.Context, ev event.Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	i := h.shardOf(&ev)
	var t tally
	err := h.lockShard(i)
	if err == nil {
		err = h.admit(ctx, i, h.stage(i, &ev), &t, true)
		h.unlockShard(i, &t)
	}
	return err
}

// TryFeed routes one event to its shard without ever blocking. A full
// unread tail rejects the event with an *OverloadError (errors.Is
// ErrOverloaded) — the admission signal load-shedding callers need.
// Like Feed, it keeps an admitted event's Fields array.
func (h *Handle) TryFeed(ev event.Event) error {
	if h.closed.Load() {
		return ErrHandleClosed
	}
	i := h.shardOf(&ev)
	var t tally
	err := h.lockShard(i)
	if err == nil {
		err = h.admit(context.Background(), i, h.stage(i, &ev), &t, false)
		h.unlockShard(i, &t)
	}
	return err
}

// FeedBatch routes a batch of in-order events, taking a shard's
// admission lock once per run of consecutive events routed to it — once
// per batch on a single shard. Like Feed it blocks on a full unread tail
// and unblocks with ctx.Err() on cancellation; a batch interrupted
// mid-way reports the error with the events before the interruption
// admitted (every shard receives an in-order prefix of its substream).
// Like Feed, it keeps each admitted event's Fields array.
func (h *Handle) FeedBatch(ctx context.Context, evs []event.Event) error {
	if h.closed.Load() {
		return ErrHandleClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var (
		t   tally
		err error
	)
	cur := -1
	for j := range evs {
		if i := h.shardOf(&evs[j]); i != cur {
			if cur >= 0 {
				h.unlockShard(cur, &t)
				cur = -1
			}
			if err = h.lockShard(i); err != nil {
				break
			}
			cur = i
		}
		if err = h.admit(ctx, cur, &evs[j], &t, true); err != nil {
			break
		}
	}
	if cur >= 0 {
		h.unlockShard(cur, &t)
	}
	return err
}

// shardOf maps ev to its shard index.
func (h *Handle) shardOf(ev *event.Event) int {
	if h.route == nil {
		return 0
	}
	if i := h.route.Route(ev); i < len(h.shards) {
		return i
	}
	return 0
}

// stage copies a single event into shard i's staging slot, under its
// admission lock, and returns the copy for admit. The intake filter
// hands the event to predicate funcs, so a pointer to the caller's copy
// would move it to the heap on every Feed; the slot already lives there.
// The next holder of the lock may overwrite the slot, so admit reads it
// only before it can wait.
func (h *Handle) stage(i int, ev *event.Event) *event.Event {
	s := h.shards[i]
	s.stage = *ev
	return &s.stage
}

// tally counts the events one hold of a shard's admission lock dropped;
// unlockShard publishes them.
type tally struct {
	filtered uint64
	shed     uint64
}

// lockShard takes shard i's admission lock for a run of events, unless
// the shard stopped taking input.
func (h *Handle) lockShard(i int) error {
	s := h.shards[i]
	s.admitMu.Lock()
	if s.intakeClosed.Load() {
		s.admitMu.Unlock()
		return ErrHandleClosed
	}
	return nil
}

// unlockShard publishes the run's appends and drop counts and releases
// shard i. The splitter sees no event of the run before this Publish.
func (h *Handle) unlockShard(i int, t *tally) {
	s := h.shards[i]
	s.ar.Publish()
	if t.filtered > 0 {
		h.plan.CountFiltered(t.filtered)
		s.filteredIn.Add(t.filtered)
	}
	if t.shed > 0 {
		s.shedIn.Add(t.shed)
	}
	*t = tally{}
	s.admitMu.Unlock()
}

// admit decides whether ev, routed to shard i, enters the shard — the
// one admission routine of Feed, TryFeed, FeedBatch and Runtime.Run,
// run under the shard's admission lock:
//
//  1. the intake filter drops an event the query can never use; the
//     event spends its position, which becomes an arena gap;
//  2. the shedder drops an event under overload; a shed event — like a
//     TryFeed rejection — spends no position: it never existed;
//  3. a kept event waits while the unread tail is full, or, unless
//     wait is set (TryFeed), is rejected with an *OverloadError; a
//     waiting producer first publishes the run's appends, which the
//     splitter must see to make room;
//  4. it is written into the arena at the shard's next position, which
//     it is stamped with there: the one copy between the caller's event
//     (never modified) and the slots. unlockShard publishes it, or,
//     on a shedding shard, admit does at once.
//
// Window spans and emitted positions therefore equal those of a
// sequential run over the kept events.
func (h *Handle) admit(ctx context.Context, i int, ev *event.Event, t *tally, wait bool) error {
	s := h.shards[i]
	if h.filter && !h.plan.Admit(ev) {
		h.next[i]++
		t.filtered++
		return nil
	}
	unread := s.unread()
	if s.shed != nil && !s.shed.Offer(ev.Type, int(unread)) {
		t.shed++
		return nil
	}
	// Copied before waitRoom lets another producer in: ev may be the
	// shard's staging slot.
	stamped := *ev
	if capacity := uint64(s.prog.cfg.QueueCap); unread >= capacity {
		if !wait {
			return &OverloadError{Query: h.name, Shard: i, Pending: int(unread), Cap: int(capacity)}
		}
		s.ar.Publish()
		if err := s.waitRoom(ctx); err != nil {
			return err
		}
	}
	if !h.preStamped {
		stamped.Seq = h.next[i]
	}
	h.next[i]++
	s.ar.AppendAt(stamped)
	s.appended++
	if s.shed != nil {
		// The shedder reads the unread tail as the splitter's lag, so a
		// shedding shard publishes every append: events held back for
		// the run's end would read as lag the splitter cannot drain.
		s.ar.Publish()
	}
	return nil
}

// unread is the shard's unread tail: the kept events admitted but not
// yet ingested, read under the admission lock. Positions the intake
// filter spent do not count — they hold no event, and a chunk of gaps
// alone is never materialized — so each unread event pins at most one
// arena chunk. Shedding reads it as its depth and QueueCap bounds it.
func (s *shardState) unread() uint64 { return s.appended - s.taken.Load() }

// waitRoom blocks, with the admission lock held, until the unread tail
// has room. It fails with ErrHandleClosed once the intake closed, or
// with ctx.Err() once ctx is done. Only a blocked producer with a
// cancellable ctx pays for the cancellation hook, and the splitter wakes
// it only while waiters counts it: the count is raised before the tail
// is read again, so an ingest either sees it or left the room this read
// finds.
func (s *shardState) waitRoom(ctx context.Context) error {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			s.admitMu.Lock()
			s.room.Broadcast()
			s.admitMu.Unlock()
		})
		defer stop()
	}
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	for !s.intakeClosed.Load() && s.unread() >= uint64(s.prog.cfg.QueueCap) {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.room.Wait()
	}
	if s.intakeClosed.Load() {
		return ErrHandleClosed
	}
	return nil
}

// Close marks end of stream for every shard. Admitted events are still
// processed; use Wait to block until the query drains. Idempotent.
func (h *Handle) Close() {
	if !h.closed.CompareAndSwap(false, true) {
		return
	}
	for _, s := range h.shards {
		s.closeIntake()
	}
}

// durable reports whether the handle persists through a WAL.
func (h *Handle) durable() bool { return h.shards[0].persist != nil }

// Park detaches a durable query without ending its stream: feeds are
// refused, admitted-but-uningested events are dropped (the producer
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

// Abort closes the handle and cancels its shards: the unread tails are
// dropped and the splitters finish within one pool cycle without
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
