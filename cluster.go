package spectre

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"

	"github.com/spectrecep/spectre/internal/cluster"
	"github.com/spectrecep/spectre/internal/core"
	"github.com/spectrecep/spectre/internal/event"
)

// ClusterError is the structured failure of a cluster operation — a join
// that exhausted its retry budget, a listen that could not bind, a submit
// that timed out waiting for workers. It carries the operation, the
// remote address and the attempt count, and unwraps to the underlying
// cause for errors.Is / errors.As.
type ClusterError = cluster.Error

// ErrClusterClosed is returned by cluster operations after Close: feeds
// on a closed handle, Wait on a query the coordinator failed at
// shutdown, Submit on a closed coordinator.
var ErrClusterClosed = cluster.ErrClosed

// ClusterOptions configures a coordinator started with ListenCluster:
// how many workers Submit waits for, plan pushdown, the flush interval
// for partial link batches (batches are a fixed 256 events) and the
// heartbeat. The zero value is usable: one worker, pushdown on, 2ms
// flush, 2s heartbeats.
type ClusterOptions = cluster.Options

// ClusterWorkerOptions configures a worker process started with
// JoinCluster: advertised capacity, heartbeat interval and the join
// retry budget.
type ClusterWorkerOptions = cluster.WorkerOptions

// Cluster is the submitting node of a distributed SPECTRE deployment
// (DESIGN.md §12): it accepts worker connections, places each submitted
// query's shards on them, streams routed events out and merges the
// emission streams back into the exact order a single-process Runtime
// would deliver. Byte-identical output, remote execution.
//
//	cl, err := spectre.ListenCluster("127.0.0.1:0", reg, spectre.ClusterOptions{MinWorkers: 2})
//	// handle err; workers run `spectre-server -worker -join <addr>`
//	h, err := cl.Submit(ctx, text, sink)
//	// handle err
//	for _, ev := range events {
//	    _ = h.Feed(ctx, ev)
//	}
//	_ = h.Drain(ctx)
type Cluster struct {
	c   *cluster.Coordinator
	reg *Registry
}

// ListenCluster starts a coordinator listening for workers on addr. The
// registry must be the one the submitted queries and fed events were
// built against; workers intern their own registries against the
// coordinator's type and field tables, so theirs need not match.
func ListenCluster(addr string, reg *Registry, opts ClusterOptions) (*Cluster, error) {
	c, err := cluster.Listen(addr, reg, opts)
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c, reg: reg}, nil
}

// Addr returns the address workers join.
func (cl *Cluster) Addr() net.Addr { return cl.c.Addr() }

// Workers reports how many workers are currently joined.
func (cl *Cluster) Workers() int { return cl.c.Workers() }

// ClusterLinkStats is a snapshot of one worker link's transport
// counters: shards owned, bytes and frames in each direction, events
// shipped and events saved by shared-stream page dedup.
type ClusterLinkStats = cluster.LinkStats

// LinkStats snapshots the transport counters of every joined worker
// link, ordered by worker id.
func (cl *Cluster) LinkStats() []ClusterLinkStats { return cl.c.Stats() }

// WaitWorkers blocks until n workers are joined or ctx is done.
func (cl *Cluster) WaitWorkers(ctx context.Context, n int) error {
	return cl.c.WaitWorkers(ctx, n)
}

// Close stops the coordinator: the listener closes, worker links drop,
// and every unfinished query fails with ErrClusterClosed.
func (cl *Cluster) Close() error { return cl.c.Close() }

// Submit distributes one query across the joined workers. The query
// text is compiled locally for validation and shard routing, then
// shipped to each shard's owner and compiled there. The sink receives
// the merged output in the same order a local Runtime submission of the
// same query would deliver it.
//
// Options are the Runtime partition options
// (WithShards/WithPartitionBy/WithPartitionByType). Only the query text
// travels to the workers, which compile it with default settings, so
// every other option is rejected with a *QueryError naming it.
func (cl *Cluster) Submit(ctx context.Context, text string, sink Sink, opts ...Option) (*ClusterHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := ParseQuery(text, cl.reg)
	if err != nil {
		return nil, err
	}
	var cfg core.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Err != nil {
		return nil, queryErr(q, cfg.Err)
	}
	if opt := nodeLocalOption(&cfg); opt != "" {
		return nil, queryErr(q, fmt.Errorf("%s does not apply to a distributed query: only WithShards, WithPartitionBy and WithPartitionByType travel to the workers", opt))
	}

	// No planner here: an unpinned shard count defaults to GOMAXPROCS,
	// not the cost model.
	nShards, route, _, err := resolvePartition(q, &cfg, cl.reg, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, queryErr(q, err)
	}

	h := &ClusterHandle{sink: sink, name: q.Name, shards: nShards}
	qh, err := cl.c.Submit(ctx, cluster.Submission{
		Name:    q.Name,
		Text:    text,
		NShards: nShards,
		Route:   route,
		Emit:    h.notifyMatch,
		OnDrain: h.notifyDrain,
	})
	if err != nil {
		if err == ErrClusterClosed {
			return nil, err
		}
		return nil, queryErr(q, err)
	}
	h.h = qh
	return h, nil
}

// nodeLocalOption names the first option cfg carries that a distributed
// submission cannot honour, or returns "" when only the partition options
// are set.
func nodeLocalOption(cfg *core.Config) string {
	switch {
	case cfg.Instances != 0:
		return "WithInstances"
	case cfg.QueueCap != 0:
		return "WithQueueCap"
	case cfg.Predictor != nil:
		return "WithFixedProbability"
	case cfg.PlanDisabled:
		return "WithoutPlanner"
	case cfg.Reg != nil:
		return "WithRegistry"
	case cfg.Shed:
		return "WithShedding"
	}
	return ""
}

// ClusterHandle is one query submitted to a Cluster. Like a Runtime
// Handle, feeds are single-producer and the sink is serialized.
type ClusterHandle struct {
	h      *cluster.QueryHandle
	name   string
	shards int
	mu     sync.Mutex // serializes every sink invocation
	sink   Sink
}

func (h *ClusterHandle) notifyMatch(ce event.Complex) {
	h.mu.Lock()
	if h.sink != nil {
		h.sink.OnMatch(ce)
	}
	h.mu.Unlock()
}

func (h *ClusterHandle) notifyDrain() {
	h.mu.Lock()
	if h.sink != nil {
		h.sink.OnDrain()
	}
	h.mu.Unlock()
}

// Name returns the query's name.
func (h *ClusterHandle) Name() string { return h.name }

// Shards returns how many shards the query runs on.
func (h *ClusterHandle) Shards() int { return h.shards }

// Feed routes one event to its shard's worker. The coordinator retains
// events until a worker write-ahead log provably covers them, so
// feeding never blocks on worker liveness; backpressure is the link's.
func (h *ClusterHandle) Feed(ctx context.Context, ev Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.h.Feed(ev)
}

// FeedBatch routes a batch of in-order events.
func (h *ClusterHandle) FeedBatch(ctx context.Context, evs []Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.h.FeedBatch(evs)
}

// Close marks end of stream; pending events are still processed.
func (h *ClusterHandle) Close() { h.h.Close() }

// Wait blocks until every shard of the query has drained (Close first),
// or ctx is done.
func (h *ClusterHandle) Wait(ctx context.Context) error { return h.h.Wait(ctx) }

// Drain closes the handle and waits for completion.
func (h *ClusterHandle) Drain(ctx context.Context) error {
	h.Close()
	return h.Wait(ctx)
}

// ClusterWorker is a worker process's side of a cluster membership: it
// executes shard assignments shipped by the coordinator, each as an
// independent durable single-shard pipeline, and hands its state back
// (write-ahead log export) when the coordinator rebalances a shard
// away.
type ClusterWorker = cluster.Worker

// JoinCluster dials the coordinator at addr and joins as a worker,
// retrying with jittered exponential backoff up to opts.JoinAttempts
// times. On exhaustion it returns a *ClusterError with the attempt
// count. The registry may be empty: workers learn the coordinator's
// type and field tables over the wire.
func JoinCluster(ctx context.Context, reg *Registry, addr string, opts ClusterWorkerOptions) (*ClusterWorker, error) {
	return cluster.Join(ctx, reg, addr, opts)
}

// ClusterWorkerStats is a snapshot of a worker's coordinator-link
// transport counters: bytes and frames in each direction, and events
// received through shared-page references.
type ClusterWorkerStats = cluster.WorkerStats
