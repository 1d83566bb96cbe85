// Command spectre-server runs a shared SPECTRE runtime fed over TCP. It
// accepts any number of client connections; each client submits its own
// query (a leading query frame, see spectre-client -query) and streams
// events for it in pages, which the server admits a page at a time. All
// queries run concurrently on one key-partitioned runtime multiplexed
// over a shared worker pool. Payload fields bind by name: a query that
// reads a field the client does not announce fails its connection.
//
// Usage:
//
//	spectre-server -addr :7071 -workers 16
//	spectre-server -addr :7071 -query query.mrq            # legacy clients
//	spectre-server -addr :7071 -max-conns 1 -query q.mrq   # one-shot
//
// Clients that send no query frame fall back to the -query file (the
// single-query deployment of the paper's evaluation setup). The
// server prints each detected complex event and a per-connection metrics
// summary; -max-conns N exits after N connections drain.
//
// On SIGINT/SIGTERM the server stops accepting, unwedges every connection
// stream, and drains the admitted backlog through Runtime.Shutdown with a
// -drain-timeout deadline; queries that miss it are aborted instead of
// dying mid-write.
//
// -pprof serves net/http/pprof (live CPU/heap/goroutine profiles of the
// running runtime) on a separate address, e.g. -pprof localhost:6060,
// plus /debug/spectre/metrics — a JSON snapshot of every live query's
// runtime counters (slot utilization, dependency-tree high-water mark,
// root-emission lag, the evaluation plan).
//
// Every shard runs -instances operator slots and looks ahead at most 4×
// that many windows. -sched selects the completion predictor the slots
// are filled by: "topk" (the paper's learned Markov model, default) or
// "fixed=<p>" (the Fig. 11 constant-probability baseline).
//
// -shed enables utility-driven load shedding at every hosted query's
// admission (bounded latency instead of blocked producers under
// overload).
//
// -state-dir makes every hosted query durable (DESIGN.md §11): the
// ingest journal, cuts and emission watermarks persist to
// per-shard WALs under the directory. A restarted server recovers each
// query's state when its client reconnects and re-submits (same query
// name, spectre-client -reconnect), answers the client's resume
// handshake with the journalled position, and suppresses matches that
// were already delivered before the crash. Broken connections park their
// queries (in-flight windows stay in the WAL) instead of ending them.
//
// Distributed execution (DESIGN.md §12) spans multiple processes:
//
//	spectre-server -cluster-listen :7072 -cluster-min-workers 2   # coordinator
//	spectre-server -worker -join host:7072                        # one per worker box
//
// -worker turns the process into a cluster shard worker: it joins the
// coordinator at -join (retrying with jittered backoff), executes the
// shard assignments shipped to it, and hands shard state back when the
// coordinator rebalances. -cluster-listen makes the server a
// coordinator: client queries submitted on -addr run distributed across
// the joined workers, with output merged back into the exact
// single-process order. Node-local flags (-sched, -shed, -state-dir,
// ...) do not apply to distributed queries.
//
// The coordinator minimizes link traffic by default (DESIGN.md §13):
// plan pushdown drops events the query provably cannot use before they
// are framed, the wire encodes event frames compactly (delta/varint,
// plan-driven field projection), and each link ships 256-event batches,
// with partial ones flushed every 2ms.
// -cluster-no-pushdown ships every routed event in full. Per-link transport
// counters (bytes, frames, events deduplicated) are printed in each
// connection summary and exported under "clusterLinks" in the -pprof
// /debug/spectre/metrics JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spectre-server:", err)
		os.Exit(1)
	}
}

type serverOpts struct {
	instances int
	shards    int
	quiet     bool
	fallback  string // query text for clients that send no query frame
	schedOpts []spectre.Option
	shed      bool // -shed: utility-driven load shedding
	durable   bool // -state-dir: WAL-backed query state + resume handshakes
}

// parseSchedFlag converts -sched into engine options, rejecting an
// unknown predictor at startup rather than per connection at Submit time.
func parseSchedFlag(sched string) ([]spectre.Option, error) {
	switch {
	case sched == "" || sched == "topk":
		return nil, nil
	case strings.HasPrefix(sched, "fixed="):
		p, err := strconv.ParseFloat(strings.TrimPrefix(sched, "fixed="), 64)
		if err != nil {
			return nil, fmt.Errorf("-sched %q: %w", sched, err)
		}
		if !(p >= 0 && p <= 1) { // rejects NaN too
			return nil, fmt.Errorf("-sched %q: probability must be in [0, 1]", sched)
		}
		return []spectre.Option{spectre.WithFixedProbability(p)}, nil
	}
	return nil, fmt.Errorf("-sched %q: want topk or fixed=<p>", sched)
}

// liveQueries tracks the connections' handles for the metrics endpoint.
type liveQueries struct {
	mu sync.Mutex
	m  map[int]*liveQuery
	// links, set in coordinator mode before the metrics endpoint serves,
	// snapshots the cluster worker links' transport counters.
	links func() []spectre.ClusterLinkStats
}

type liveQuery struct {
	Conn  int    `json:"conn"`
	Query string `json:"query"`
	h     *spectre.Handle
}

func (l *liveQueries) add(id int, name string, h *spectre.Handle) {
	l.mu.Lock()
	l.m[id] = &liveQuery{Conn: id, Query: name, h: h}
	l.mu.Unlock()
}

func (l *liveQueries) remove(id int) {
	l.mu.Lock()
	delete(l.m, id)
	l.mu.Unlock()
}

// queryMetrics is the JSON shape of one live query's counters: the full
// Metrics struct plus the derived utilization, shard count and the
// planner's evaluation plan (type filter, predicate order, deployment).
type queryMetrics struct {
	Conn            int     `json:"conn"`
	Query           string  `json:"query"`
	Shards          int     `json:"shards"`
	SlotUtilization float64 `json:"slotUtilization"`
	// Root-emission latency gauges in milliseconds (the raw Metrics
	// fields are seconds; milliseconds read better on dashboards).
	EmitLagP50Millis float64           `json:"emitLagP50Millis"`
	EmitLagP99Millis float64           `json:"emitLagP99Millis"`
	Plan             *spectre.PlanInfo `json:"plan,omitempty"`
	spectre.Metrics
}

// metricsSnapshot is the /debug/spectre/metrics JSON document: the live
// queries plus, in coordinator mode, the cluster worker links' transport
// counters (bytes/frames each way, events sent, page dedup savings).
type metricsSnapshot struct {
	Queries      []queryMetrics             `json:"queries"`
	ClusterLinks []spectre.ClusterLinkStats `json:"clusterLinks,omitempty"`
}

// serveMetrics writes the JSON snapshot of every live query. Registered
// on the DefaultServeMux, which -pprof serves.
func (l *liveQueries) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	live := make([]*liveQuery, 0, len(l.m))
	for _, q := range l.m {
		live = append(live, q)
	}
	l.mu.Unlock()
	out := make([]queryMetrics, 0, len(live))
	for _, q := range live {
		m := q.h.Metrics()
		var pi *spectre.PlanInfo
		if p := q.h.Plan(); p != nil {
			info := p.Info()
			pi = &info
		}
		out = append(out, queryMetrics{
			Conn:             q.Conn,
			Query:            q.Query,
			Shards:           q.h.Shards(),
			SlotUtilization:  m.SlotUtilization(),
			EmitLagP50Millis: m.EmitLagP50 * 1000,
			EmitLagP99Millis: m.EmitLagP99 * 1000,
			Plan:             pi,
			Metrics:          m,
		})
	}
	snap := metricsSnapshot{Queries: out}
	if l.links != nil {
		snap.ClusterLinks = l.links()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

func run() error {
	var (
		addr         = flag.String("addr", ":7071", "listen address")
		queryFile    = flag.String("query", "", "fallback query file for clients that send no query frame")
		instances    = flag.Int("instances", 4, "operator-instance slots per shard")
		shards       = flag.Int("shards", 0, "override shard count for partitioned queries (0 = query's SHARDS, then GOMAXPROCS)")
		workers      = flag.Int("workers", 0, "shared worker-pool size (0 = GOMAXPROCS)")
		maxConns     = flag.Int("max-conns", 0, "exit after this many connections (0 = serve forever)")
		quiet        = flag.Bool("quiet", false, "suppress per-event output (throughput measurements)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline after SIGINT/SIGTERM")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and /debug/spectre/metrics on this address (e.g. localhost:6060); empty disables")
		schedFlag    = flag.String("sched", "topk", "completion predictor that fills the slots: topk (learned Markov model) or fixed=<p> (constant probability p)")
		shedFlag     = flag.Bool("shed", false, "shed lowest-utility events when a shard's unread tail crosses its watermark instead of blocking")
		stateDir     = flag.String("state-dir", "", "durable query state: per-shard WALs under this directory; restarted servers recover submitted queries and answer client resume handshakes")
		workerMode   = flag.Bool("worker", false, "run as a cluster shard worker (requires -join; most other flags do not apply)")
		joinAddr     = flag.String("join", "", "coordinator address to join in -worker mode")
		capacityFlag = flag.Int("capacity", 0, "shard capacity advertised in -worker mode (0 = default)")
		clusterAddr  = flag.String("cluster-listen", "", "accept cluster workers on this address and run every client query distributed across them")
		clusterMin   = flag.Int("cluster-min-workers", 1, "block distributed submissions until this many workers have joined")
		clusterNoPD  = flag.Bool("cluster-no-pushdown", false, "disable coordinator-side plan pushdown: ship every routed event to its worker")
	)
	flag.Parse()

	// ctx ends on the first SIGINT/SIGTERM; a second signal kills the
	// process the default way (stop() restores default handling).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *workerMode {
		if *joinAddr == "" {
			return fmt.Errorf("-worker requires -join <coordinator address>")
		}
		return runWorker(ctx, *joinAddr, *capacityFlag)
	}
	if *joinAddr != "" {
		return fmt.Errorf("-join only applies in -worker mode")
	}

	schedOpts, err := parseSchedFlag(*schedFlag)
	if err != nil {
		return err
	}
	live := &liveQueries{m: make(map[int]*liveQuery)}
	http.HandleFunc("/debug/spectre/metrics", live.serveMetrics)

	// Coordinator mode: accept cluster workers on their own listener and
	// run every client query distributed across them. The worker links
	// and the connections share one registry (interning is concurrent-
	// safe) so the event ids clients send are the ids workers decode.
	var cluster *clusterFrontend
	if *clusterAddr != "" {
		creg := spectre.NewRegistry()
		cl, err := spectre.ListenCluster(*clusterAddr, creg, spectre.ClusterOptions{
			MinWorkers:      *clusterMin,
			DisablePushdown: *clusterNoPD,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "spectre-server: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		cluster = &clusterFrontend{cl: cl, reg: creg}
		live.links = cl.LinkStats
		fmt.Fprintf(os.Stderr, "spectre-server: cluster coordinator on %s (min %d workers)\n",
			cl.Addr(), *clusterMin)
	}

	if *pprofAddr != "" {
		// DefaultServeMux carries the /debug/pprof handlers via the
		// net/http/pprof import; live profiles of a serving runtime:
		//   go tool pprof http://localhost:6060/debug/pprof/profile
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer pln.Close()
		fmt.Fprintf(os.Stderr, "spectre-server: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "spectre-server: pprof:", err)
			}
		}()
	}

	opts := serverOpts{
		instances: *instances, shards: *shards, quiet: *quiet, schedOpts: schedOpts,
		shed: *shedFlag, durable: *stateDir != "",
	}
	if *queryFile != "" {
		src, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		opts.fallback = string(src)
	}

	// The runtime's own registry only backs programmatic partition options;
	// every connection parses its query into a private registry so that
	// type interning stays single-writer per stream.
	var rtOpts []spectre.RuntimeOption
	if *workers > 0 {
		rtOpts = append(rtOpts, spectre.WithWorkers(*workers))
	}
	if *stateDir != "" {
		rtOpts = append(rtOpts, spectre.WithDurability(*stateDir))
	}
	rt, err := spectre.NewRuntime(spectre.NewRegistry(), rtOpts...)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		rt.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "spectre-server: listening on %s (multi-query runtime, %d-slot shards)\n",
		*addr, *instances)

	// Shutdown path: the listener closes the moment the signal lands —
	// strictly before the drain below — so in-flight connections (worker
	// streams included) drain without racing freshly accepted ones.
	stopAccept := context.AfterFunc(ctx, func() { ln.Close() })
	defer stopAccept()

	var wg sync.WaitGroup
	served := 0
	var acceptErr error
	for (*maxConns <= 0 || served < *maxConns) && ctx.Err() == nil {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		if ctx.Err() != nil {
			// The signal landed while this accept was in flight: the
			// listener is closing; don't start a stream the drain below
			// would have to abort.
			conn.Close()
			break
		}
		served++
		id := served
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if cluster != nil {
				err = serveClusterConn(ctx, cluster, conn, id, opts)
			} else {
				err = serveConn(ctx, rt, conn, id, opts, live)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "spectre-server: conn %d: %v\n", id, err)
			}
		}()
	}
	ln.Close()
	wg.Wait()

	// Drain whatever the connections admitted, bounded by -drain-timeout.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := rt.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "spectre-server: drain timeout after %v: aborted remaining queries\n", *drainTimeout)
	} else if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "spectre-server: drained cleanly after signal")
	}
	return acceptErr
}

// runWorker is -worker mode: join the coordinator, execute shard
// assignments until the link drops or a signal lands, then detach.
func runWorker(ctx context.Context, join string, capacity int) error {
	name, _ := os.Hostname()
	w, err := spectre.JoinCluster(ctx, spectre.NewRegistry(), join, spectre.ClusterWorkerOptions{
		Name:     name,
		Capacity: capacity,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "spectre-server: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spectre-server: worker %d joined %s\n", w.ID(), join)
	done := make(chan error, 1)
	go func() { done <- w.Wait() }()
	report := func() {
		ws := w.Stats()
		fmt.Fprintf(os.Stderr,
			"spectre-server: worker %d link: %d B out / %d B in, %d frames out / %d in, %d events deduped\n",
			w.ID(), ws.BytesSent, ws.BytesRecv, ws.FramesSent, ws.FramesRecv, ws.EventsDeduped)
	}
	select {
	case <-ctx.Done():
		// Detach on signal: the coordinator sees the link drop and
		// reassigns our shards from its retained buffers.
		w.Close()
		<-done
		report()
		fmt.Fprintln(os.Stderr, "spectre-server: worker detached after signal")
		return nil
	case err := <-done:
		report()
		return err
	}
}

// clusterFrontend is the coordinator-mode submission path: the cluster
// plus the registry shared by its worker links and every client
// connection.
type clusterFrontend struct {
	cl  *spectre.Cluster
	reg *spectre.Registry
}

// session is one connection's submitted query: the field names it reads,
// and the three steps in which the local runtime and the cluster differ.
type session struct {
	reads  []string
	feed   func(ctx context.Context, evs []spectre.Event) error
	finish func(broken bool) error // drain, or park a query whose stream broke
	report func(sent int, elapsed time.Duration)
}

// serve is the one connection loop: read the query frame, submit the
// query, feed the stream page by page, then finish and report. A done
// ctx unwedges the connection read and finishes what was admitted
// instead of dying mid-stream.
func serve(ctx context.Context, conn net.Conn, reg *spectre.Registry, opts serverOpts,
	submit func(text string, resume bool) (*session, error)) error {
	defer conn.Close()
	stopWatch := transport.AbortReadsOnDone(ctx, conn)
	defer stopWatch()

	r := transport.NewReader(conn, reg)
	text, resume, ok, err := r.ReadQuery()
	if err != nil {
		if transport.IsClosedOrCanceled(err) && ctx.Err() != nil {
			return nil
		}
		return err
	}
	if !ok || text == "" {
		if opts.fallback == "" {
			return fmt.Errorf("client sent no query frame and no -query fallback is configured")
		}
		text = opts.fallback
	}
	s, err := submit(text, resume)
	if err != nil {
		return err
	}
	// Fields bind by name through the stream's announced table, so every
	// field the query reads must be in it: a missing one would read as 0.
	r.RequireFields(s.reads)
	start := time.Now()
	sent := 0
	var evs []spectre.Event
	var feedErr, readErr error
	for feedErr == nil && readErr == nil {
		if evs, readErr = r.ReadBatch(); readErr == nil {
			if feedErr = s.feed(ctx, evs); feedErr == nil {
				sent += len(evs)
			}
		}
	}
	if errors.Is(readErr, io.EOF) {
		readErr = nil
	}
	finishErr := s.finish(feedErr != nil || readErr != nil || ctx.Err() != nil)
	elapsed := time.Since(start)
	if feedErr != nil && !errors.Is(feedErr, context.Canceled) {
		return fmt.Errorf("feed error: %w", feedErr)
	}
	if readErr != nil && !(transport.IsClosedOrCanceled(readErr) && ctx.Err() != nil) {
		return fmt.Errorf("stream error: %w", readErr)
	}
	if finishErr != nil {
		return finishErr
	}
	s.report(sent, elapsed)
	return nil
}

// serveClusterConn handles one client in coordinator mode: its query
// runs distributed across the joined workers instead of on the local
// runtime. Resume handshakes are refused — the coordinator keeps no
// per-client journal; durability lives in the worker WALs and covers
// worker failure, not client reconnects.
func serveClusterConn(ctx context.Context, cluster *clusterFrontend, conn net.Conn, id int, opts serverOpts) error {
	return serve(ctx, conn, cluster.reg, opts, func(text string, resume bool) (*session, error) {
		if resume {
			return nil, fmt.Errorf("resume handshake: distributed queries do not support client resume")
		}
		// cluster.reg is shared: a scratch parse finds this query's fields.
		read := spectre.NewRegistry()
		if _, err := spectre.ParseQuery(text, read); err != nil {
			return nil, err
		}
		var subOpts []spectre.Option
		if opts.shards > 0 {
			subOpts = append(subOpts, spectre.WithShards(opts.shards))
		}
		var matches atomic.Int64
		h, err := cluster.cl.Submit(ctx, text, spectre.SinkFunc(func(ce spectre.ComplexEvent) {
			matches.Add(1)
			if !opts.quiet {
				fmt.Printf("[conn %d] %s\n", id, ce.String())
			}
		}), subOpts...)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "spectre-server: conn %d: query %s distributed on %d shard(s)\n",
			id, h.Name(), h.Shards())
		return &session{
			reads: read.FieldNames(),
			feed:  h.FeedBatch,
			finish: func(bool) error {
				if err := h.Drain(ctx); err != nil && ctx.Err() == nil {
					return fmt.Errorf("drain: %w", err)
				}
				return nil
			},
			report: func(sent int, elapsed time.Duration) {
				fmt.Fprintf(os.Stderr, "spectre-server: conn %d: %d events, %d matches in %v (%.0f events/sec, distributed)\n",
					id, sent, matches.Load(), elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
				for _, ls := range cluster.cl.LinkStats() {
					fmt.Fprintf(os.Stderr,
						"spectre-server: conn %d: link w%d (%s): %d B out / %d B in, %d frames out / %d in, %d events sent, %d deduped\n",
						id, ls.WorkerID, ls.Name,
						ls.BytesSent, ls.BytesRecv, ls.FramesSent, ls.FramesRecv,
						ls.EventsSent, ls.EventsDeduped)
				}
			},
		}, nil
	})
}

// serveConn handles one client on the shared runtime. Its query is
// parsed into a private registry, which the stream's names bind into.
func serveConn(ctx context.Context, rt *spectre.Runtime, conn net.Conn, id int, opts serverOpts, live *liveQueries) error {
	defer live.remove(id)
	reg := spectre.NewRegistry()
	return serve(ctx, conn, reg, opts, func(text string, resume bool) (*session, error) {
		query, err := spectre.ParseQuery(text, reg)
		if err != nil {
			return nil, err
		}
		// reg is fresh: until a WAL replay interns more, it names just the query's fields.
		reads := reg.FieldNames()
		subOpts := []spectre.Option{spectre.WithInstances(opts.instances)}
		if opts.durable {
			// The WAL's name tables must be this connection's private
			// registry — the one the query was parsed against and events
			// bind into — not the runtime's.
			subOpts = append(subOpts, spectre.WithRegistry(reg))
		}
		subOpts = append(subOpts, opts.schedOpts...)
		if opts.shards > 0 && query.Partition != nil {
			subOpts = append(subOpts, spectre.WithShards(opts.shards))
		}
		if opts.shed {
			subOpts = append(subOpts, spectre.WithShedding())
		}
		matches := 0
		h, err := rt.Submit(context.Background(), query, spectre.SinkFunc(func(ce spectre.ComplexEvent) {
			matches++
			if !opts.quiet {
				fmt.Printf("[conn %d] %s\n", id, ce.String())
			}
		}), subOpts...)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "spectre-server: conn %d: query %s on %d shard(s)\n",
			id, h.Name(), h.Shards())
		live.add(id, h.Name(), h)

		if opts.durable {
			// Submit already put the journal suffix at the head of the
			// unread tail, so the resume offset below is final.
			if err := rt.Recover(ctx); err != nil && ctx.Err() == nil {
				h.Park()
				return nil, err
			}
		}
		if resume {
			pos := uint64(0)
			if rec := h.Recovered(); len(rec) == 1 {
				pos = rec[0]
			} else if len(rec) > 1 {
				// Shard-local offsets cannot be folded into one stream
				// position; a partitioned durable query has no single
				// resume point for a global producer.
				h.Park()
				return nil, fmt.Errorf("resume handshake: query %s runs on %d shards; resume needs a single shard", h.Name(), len(rec))
			}
			rw := transport.NewWriter(conn, reg)
			if err := rw.WriteResume(pos); err == nil {
				err = rw.Flush()
			}
			if err != nil {
				h.Park()
				return nil, fmt.Errorf("resume handshake: %w", err)
			}
		}
		return &session{
			reads: reads,
			feed:  h.FeedBatch,
			finish: func(broken bool) error {
				if opts.durable && broken {
					// The stream broke (client died, server shutting
					// down) rather than ended: park the durable query so
					// its in-flight windows stay in the WAL and a
					// reconnect resumes them. A clean client EOF is a
					// genuine end of stream and drains.
					h.Park()
				} else {
					h.Drain()
				}
				return nil
			},
			report: func(_ int, elapsed time.Duration) {
				m := h.Metrics()
				fmt.Fprintf(os.Stderr,
					"spectre-server: conn %d: %d events, %d matches in %v (%.0f events/sec)\n"+
						"  shards=%d windows=%d versions=%d dropped=%d rollbacks=%d gate-reprocessed=%d max-tree=%d shed=%d emit-lag-p99=%.1fms\n",
					id, m.EventsIngested, matches, elapsed.Round(time.Millisecond),
					float64(m.EventsIngested)/elapsed.Seconds(), h.Shards(),
					m.WindowsOpened, m.VersionsCreated, m.VersionsDropped,
					m.Rollbacks, m.GateReprocessed, m.MaxTreeSize,
					m.ShedEvents, m.EmitLagP99*1000)
			},
		}, nil
	})
}
