package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/benchmark/oracle"
	"github.com/spectrecep/spectre/internal/cluster"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/shard"
)

const (
	clusterShards  = 4
	clusterWorkers = 2
)

// commsQueries are the three shared-stream queries CQ0..CQ2 of
// internal/bench/comms.go: every step carries a binding-free rising
// predicate, so plan pushdown can drop a falling quote before it is
// framed, and the windows differ so the queries stay distinct consumers
// of the shared pages.
func commsQueries() []string {
	qs := make([]string, 0, 3)
	for i, win := range []int{60, 120, 180} {
		qs = append(qs, fmt.Sprintf(`
			QUERY CQ%d
			PATTERN (A B C)
			DEFINE A AS (A.symbol IN ('BLUE00','BLUE01') AND A.close > A.open),
			       B AS B.close > B.open,
			       C AS C.close > C.open
			WITHIN %d EVENTS FROM A
			CONSUME ALL
		`, i, win))
	}
	return qs
}

// clusterShared runs three queries attached to one shared stream on a
// coordinator and two loopback workers, all inside this process. It uses
// internal/cluster directly because the public spectre.Cluster has no
// shared stream. The cluster is started once and reused by every pass.
type clusterShared struct {
	reg     *event.Registry
	events  []event.Event
	texts   []string
	queries []*spectre.Query // texts, parsed against reg
	router  *shard.Router
	want    [][]string // reference keys per (query, shard)
	nWant   int
	seqWall time.Duration
	coord   *cluster.Coordinator
	workers []*cluster.Worker
}

func prepareCluster(seed int64, n int) (*clusterShared, error) {
	w := &clusterShared{reg: event.NewRegistry(), texts: commsQueries()}
	w.events = quoteStream(w.reg, seed, n, nyseSymbols, nyseLeaders)
	w.router = shard.NewRouter(clusterShards, shard.ByType())
	subs := w.router.Split(w.events)
	start := time.Now()
	for _, text := range w.texts {
		q, err := spectre.ParseQuery(text, w.reg)
		if err != nil {
			return nil, err
		}
		w.queries = append(w.queries, q)
		for _, sub := range subs {
			out, _, err := spectre.RunSequential(q, sub)
			if err != nil {
				return nil, err
			}
			w.want = append(w.want, oracle.Keys(out))
			w.nWant += len(out)
		}
	}
	w.seqWall = time.Since(start)
	if err := w.start(cluster.Options{}); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// start brings up a coordinator and its workers on loopback.
func (w *clusterShared) start(opts cluster.Options) error {
	opts.MinWorkers = clusterWorkers
	opts.FlushInterval = time.Millisecond
	c, err := cluster.Listen("127.0.0.1:0", w.reg, opts)
	if err != nil {
		return err
	}
	w.coord = c
	for i := 0; i < clusterWorkers; i++ {
		// The context bounds the worker's whole life, not just the join.
		wk, err := cluster.Join(context.Background(), event.NewRegistry(), c.Addr().String(), cluster.WorkerOptions{})
		if err != nil {
			return err
		}
		w.workers = append(w.workers, wk)
	}
	return nil
}

// closing counts coordinators still shutting down. Coordinator.Close
// waits out a heartbeat tick (2 s); set-up is repeated many times a run,
// so the waits overlap and the run waits for all of them once, at its end.
var closing sync.WaitGroup

func (w *clusterShared) close() {
	for _, wk := range w.workers {
		wk.Close()
	}
	w.workers = nil
	if c := w.coord; c != nil {
		w.coord = nil
		closing.Add(1)
		go func() {
			defer closing.Done()
			c.Close()
		}()
	}
}

// linkTotals sums the coordinator's per-link transport counters.
func (w *clusterShared) linkTotals() cluster.LinkStats {
	var t cluster.LinkStats
	for _, ls := range w.coord.Stats() {
		t.BytesSent += ls.BytesSent
		t.BytesRecv += ls.BytesRecv
		t.FramesSent += ls.FramesSent
		t.FramesRecv += ls.FramesRecv
		t.EventsSent += ls.EventsSent
		t.EventsDeduped += ls.EventsDeduped
	}
	return t
}

func (w *clusterShared) pass(tr *tracer) (sample, error) {
	s := sample{events: len(w.events), layer: map[string]float64{}}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tr.nextPass()
	root := tr.begin("pass", -1)
	defer tr.end(root)

	st := w.coord.OpenStream()
	var mu sync.Mutex
	var got []event.Complex
	handles := make([]*cluster.QueryHandle, len(w.texts))
	sp := tr.begin("cluster.Submit", root)
	t := time.Now()
	for i, text := range w.texts {
		h, err := w.coord.Submit(ctx, cluster.Submission{
			Name: fmt.Sprintf("CQ%d", i), Text: text,
			NShards: clusterShards, Route: w.router.Route, Stream: st,
			Emit: func(m event.Complex) {
				mu.Lock()
				got = append(got, m)
				mu.Unlock()
				tr.instant("sink.OnMatch", root)
			},
		})
		if err != nil {
			return s, err
		}
		handles[i] = h
	}
	s.layer["spectre.submit_ms"] = ms(time.Since(t))
	tr.end(sp)
	// Page staging and pushdown only cover shards whose owners have
	// reported ready; events fed before that ship through the plain pump.
	time.Sleep(300 * time.Millisecond)

	runtime.GC()
	resetPeakRSS()
	before := w.linkTotals()
	cpu0, mal0 := cpuTime(), mallocCount()
	start := time.Now()
	var blocked time.Duration
	for lo := 0; lo < len(w.events); lo += feedBatch {
		hi := min(lo+feedBatch, len(w.events))
		sp := tr.begin("cluster.FeedBatch", root)
		t := time.Now()
		err := st.FeedBatch(w.events[lo:hi])
		blocked += time.Since(t)
		tr.end(sp)
		if err != nil {
			s.errs++
			break
		}
	}
	fed := time.Now()
	st.Close()
	sp = tr.begin("cluster.Wait", root)
	for _, h := range handles {
		if err := h.Wait(ctx); err != nil {
			s.errs++
		}
	}
	tr.end(sp)
	end := time.Now()
	s.wall = end.Sub(start)
	s.usage(cpuTime()-cpu0, mallocCount()-mal0, s.events)
	s.rssKB = peakRSSKB()
	after := w.linkTotals()

	n := float64(len(w.events))
	sent := after.EventsSent - before.EventsSent
	deduped := after.EventsDeduped - before.EventsDeduped
	frames := after.FramesSent - before.FramesSent
	s.layer["spectre.feed_block_share"] = blocked.Seconds() / s.wall.Seconds()
	s.layer["spectre.drain_tail_ms"] = ms(end.Sub(fed))
	s.layer["cluster.link_bytes_per_event"] = float64(after.BytesSent-before.BytesSent+after.BytesRecv-before.BytesRecv) / n
	s.layer["cluster.downlink_bytes_per_event"] = float64(after.BytesSent-before.BytesSent) / n
	s.layer["cluster.uplink_bytes_per_match"] = per(after.BytesRecv-before.BytesRecv, uint64(w.nWant), 1)
	s.layer["cluster.frames_per_kevent"] = float64(frames) / n * 1000
	s.layer["cluster.events_per_frame"] = per(sent, frames, 1)
	s.layer["cluster.dedup_share"] = per(deduped, sent+deduped, 1)
	s.shipped = sent + deduped

	mu.Lock()
	s.diff = oracle.Compare(w.want, oracle.Keys(got))
	mu.Unlock()
	return s, nil
}

// layers of cluster_shared: the same pass with pushdown off (what the
// plan saves on the wire), the same queries on a local sharded runtime
// (what distribution costs), and the replay drivers.
func (w *clusterShared) layers(tr *tracer, out map[string]float64) error {
	on, err := w.pass(nil)
	if err != nil {
		return err
	}
	w.close()
	if err := w.start(cluster.Options{DisablePushdown: true}); err != nil {
		return err
	}
	off, err := w.pass(nil)
	if err != nil {
		return err
	}
	if on.failed()+off.failed() > 0 {
		return fmt.Errorf("cluster_shared differs from the reference: %+v with pushdown, %+v without", on.diff, off.diff)
	}
	w.close()
	if err := w.start(cluster.Options{}); err != nil {
		return err
	}
	out["cluster.fullship_bytes_per_event"] = off.layer["cluster.downlink_bytes_per_event"]
	out["cluster.pushdown_drop_share"] = 1 - float64(on.shipped)/float64(max(off.shipped, 1))

	d, err := w.localPass(tr)
	if err != nil {
		return err
	}
	n := float64(len(w.events))
	out["cluster.local_events_per_s"] = n / d.Seconds()
	out["seqengine.events_per_s"] = n / w.seqWall.Seconds()

	replayShard(tr, w.router, w.events, out)
	if err := replayTransport(tr, w.reg, w.events, out); err != nil {
		return err
	}
	// The stream opens with BLUE00, one of CQ0's two window openers:
	// replay the shard it routes to.
	return replayEngineLayers(tr, w.queries[0], w.reg, w.router.Split(w.events)[w.router.Route(&w.events[0])], out)
}

// localPass runs the three queries on one local runtime, sharded the
// same way, and checks the output like any pass.
func (w *clusterShared) localPass(tr *tracer) (time.Duration, error) {
	ctx := context.Background()
	rt, err := spectre.NewRuntime(w.reg)
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	sink := &collector{parent: -1}
	var mu sync.Mutex
	locked := spectre.SinkFunc(func(ce spectre.ComplexEvent) {
		mu.Lock()
		sink.OnMatch(ce)
		mu.Unlock()
	})
	handles := make([]*spectre.Handle, len(w.queries))
	for i, q := range w.queries {
		if handles[i], err = rt.Submit(ctx, q, locked, spectre.WithInstances(instances),
			spectre.WithPartitionByType(), spectre.WithShards(clusterShards)); err != nil {
			return 0, err
		}
	}
	d := span(tr, "local runtime, same queries", func() {
		for lo := 0; lo < len(w.events) && err == nil; lo += feedBatch {
			for _, h := range handles {
				if err = h.FeedBatch(ctx, w.events[lo:min(lo+feedBatch, len(w.events))]); err != nil {
					break
				}
			}
		}
		for _, h := range handles {
			h.Drain()
		}
	})
	if err != nil {
		return 0, err
	}
	if diff := oracle.Compare(w.want, oracle.Keys(sink.matches)); diff.Failed() > 0 {
		return 0, fmt.Errorf("local runtime on the cluster_shared queries differs from the reference: %+v", diff)
	}
	return d, nil
}
