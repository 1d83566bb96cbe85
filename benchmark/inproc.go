package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/benchmark/oracle"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/queries"
	"github.com/spectrecep/spectre/internal/shard"
)

// riseText is the README quickstart query.
const riseText = `QUERY rise
PATTERN (X Y)
DEFINE X AS X.close > X.open, Y AS Y.close > X.close
WITHIN 10 EVENTS FROM X
CONSUME ALL
PARTITION BY TYPE SHARDS 4`

// buildQuery returns the query of an in-process workload.
func buildQuery(name string, reg *event.Registry) (*spectre.Query, error) {
	switch name {
	case "q1_heavy":
		return queries.Q1(reg, queries.Q1Config{Q: 640, WindowSize: 2000, Leaders: nyseLeaders})
	case "q2_narrow", "q2_durable":
		return queries.Q2(reg, queries.Q2Config{WindowSize: 2000, Slide: 250, LowerLimit: 95, UpperLimit: 105})
	case "rise_sharded":
		return spectre.ParseQuery(riseText, reg)
	}
	return nil, fmt.Errorf("no query for workload %q", name)
}

// inproc is a workload that drives the public spectre API in this
// process: NewRuntime -> Submit -> FeedBatch(1024) -> Drain, closed loop.
type inproc struct {
	name    string
	seed    int64
	durable bool
	reg     *event.Registry
	query   *spectre.Query
	events  []event.Event
	router  *shard.Router   // nil for an unpartitioned query
	subs    [][]event.Event // the stream as the query's shards see it
	want    [][]string      // reference keys per shard
	seqWall time.Duration   // the sequential engine's time for the same job
	seqStat spectre.SequentialStats
	tmp     string // scratch directory for WALs
}

func prepareInproc(name string, seed int64, n int, tmp string) (*inproc, error) {
	w := &inproc{name: name, seed: seed, durable: name == "q2_durable", reg: event.NewRegistry(), tmp: tmp}
	w.events = quoteStream(w.reg, seed, n, nyseSymbols, nyseLeaders)
	q, err := buildQuery(name, w.reg)
	if err != nil {
		return nil, err
	}
	w.query = q
	w.subs = [][]event.Event{w.events}
	if p := q.Partition; p != nil {
		key, err := shard.FromSpec(p)
		if err != nil {
			return nil, err
		}
		w.router = shard.NewRouter(p.Shards, key)
		w.subs = w.router.Split(w.events)
	}
	start := time.Now()
	for _, sub := range w.subs {
		out, st, err := spectre.RunSequential(q, sub)
		if err != nil {
			return nil, err
		}
		w.want = append(w.want, oracle.Keys(out))
		w.seqStat.RunsStarted += st.RunsStarted // the two behind CompletionProbability
		w.seqStat.RunsCompleted += st.RunsCompleted
	}
	w.seqWall = time.Since(start)
	return w, nil
}

func (w *inproc) close() {}

// collector is the sink of a pass. It keeps what it is given and leaves
// rendering keys for after the clock has stopped.
type collector struct {
	tr      *tracer
	parent  int
	matches []event.Complex
	errs    int
	drained time.Time
}

func (c *collector) OnMatch(ce spectre.ComplexEvent) {
	c.matches = append(c.matches, ce)
	c.tr.instant("sink.OnMatch", c.parent)
}
func (c *collector) OnError(error) { c.errs++ }
func (c *collector) OnDrain()      { c.drained = time.Now() }

// feedAll feeds evs in batches of feedBatch and returns the time spent
// inside FeedBatch — the time the producer was held back.
func feedAll(ctx context.Context, h *spectre.Handle, evs []event.Event, tr *tracer, parent int) (time.Duration, error) {
	var blocked time.Duration
	for lo := 0; lo < len(evs); lo += feedBatch {
		hi := min(lo+feedBatch, len(evs))
		sp := tr.begin("spectre.FeedBatch", parent)
		t := time.Now()
		err := h.FeedBatch(ctx, evs[lo:hi])
		blocked += time.Since(t)
		tr.end(sp)
		if err != nil {
			return blocked, err
		}
	}
	return blocked, nil
}

func (w *inproc) pass(tr *tracer) (sample, error) { return w.passK(tr, instances) }

// passK runs the stream once through a fresh Runtime with k operator
// instances and checks the output against the reference.
func (w *inproc) passK(tr *tracer, k int) (sample, error) {
	ctx := context.Background()
	s := sample{events: len(w.events), layer: map[string]float64{}}
	tr.nextPass()
	root := tr.begin("pass", -1)
	defer tr.end(root)

	var rtOpts []spectre.RuntimeOption
	dir := ""
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(w.tmp, "wal-"); err != nil {
			return s, err
		}
		defer os.RemoveAll(dir)
		rtOpts = append(rtOpts, spectre.WithDurability(dir))
	}
	rt, err := spectre.NewRuntime(w.reg, rtOpts...)
	if err != nil {
		return s, err
	}
	sink := &collector{tr: tr, parent: root}

	runtime.GC() // every pass starts from a collected heap
	resetPeakRSS()
	cpu0, mal0 := cpuTime(), mallocCount()

	sp := tr.begin("spectre.Submit", root)
	t := time.Now()
	h, err := rt.Submit(ctx, w.query, sink, spectre.WithInstances(k))
	s.layer["spectre.submit_ms"] = ms(time.Since(t))
	tr.end(sp)
	if err != nil {
		rt.Close()
		return s, err
	}

	start := time.Now()
	blocked, err := feedAll(ctx, h, w.events, tr, root)
	if err != nil {
		s.errs++
	}
	fed := time.Now()
	m := spectre.Metrics{}
	if !w.durable {
		sp = tr.begin("spectre.Drain", root)
		h.Drain()
		tr.end(sp)
		m = h.Metrics()
	} else {
		// Park with the stream still open, recover in a fresh runtime on
		// the same directory, re-feed what the journal had not reached,
		// and only then end the stream.
		sp = tr.begin("spectre.Park", root)
		h.Park()
		tr.end(sp)
		m = h.Metrics()
		s.layer["durable.wal_bytes_per_event"] = float64(dirBytes(dir)) / float64(max(m.EventsIngested, 1))
		if err := rt.Close(); err != nil {
			s.errs++
		}
		if rt, err = spectre.NewRuntime(w.reg, rtOpts...); err != nil {
			return s, err
		}
		sp = tr.begin("spectre.Recover", root)
		t = time.Now()
		h, err = rt.Submit(ctx, w.query, sink, spectre.WithInstances(k))
		if err == nil {
			err = rt.Recover(ctx)
		}
		s.layer["durable.recover_s"] = time.Since(t).Seconds()
		tr.end(sp)
		if err != nil {
			rt.Close()
			return s, err
		}
		fed = time.Now()
		b, err := feedAll(ctx, h, w.events[h.Recovered()[0]:], tr, root)
		if err != nil {
			s.errs++
		}
		blocked += b
		sp = tr.begin("spectre.Drain", root)
		h.Drain()
		tr.end(sp)
		m2 := h.Metrics()
		s.layer["core.replayed_events"] = float64(m2.ReplayedEvents)
		s.layer["core.suppressed_matches"] = float64(m2.SuppressedMatches)
		m.Merge(&m2)
	}
	s.wall = sink.drained.Sub(start)
	s.usage(cpuTime()-cpu0, mallocCount()-mal0, s.events)
	s.rssKB = peakRSSKB()
	s.layer["spectre.feed_block_share"] = blocked.Seconds() / s.wall.Seconds()
	s.layer["spectre.drain_tail_ms"] = ms(sink.drained.Sub(fed))
	coreCounters(s.layer, &m, h.ShardMetrics())
	if err := rt.Close(); err != nil {
		s.errs++
	}
	s.errs += sink.errs
	s.diff = oracle.Compare(w.want, oracle.Keys(sink.matches))
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
