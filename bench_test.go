// Benchmarks regenerating the paper's evaluation artifacts (§4.2) as Go
// testing.B benchmarks, one family per figure. Each benchmark iteration
// runs a complete engine over a cached dataset and reports throughput as
// events/sec (the paper's metric). Full parameter sweeps with candlestick
// statistics are produced by cmd/spectre-bench; these benchmarks cover
// representative sweep points so `go test -bench=.` exercises every
// experiment.
package spectre_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/query"
)

// benchData lazily generates and caches the datasets shared by the
// benchmarks.
type benchData struct {
	once   sync.Once
	reg    *spectre.Registry
	nyse   []spectre.Event
	random []spectre.Event
}

var data benchData

func (d *benchData) init() {
	d.once.Do(func() {
		d.reg = spectre.NewRegistry()
		d.nyse = spectre.GenerateNYSE(d.reg, spectre.NYSEConfig{
			Symbols: 300, Leaders: 16, Minutes: 100, Seed: 42,
		})
		d.random = spectre.GenerateRand(d.reg, spectre.RandConfig{
			Symbols: 300, Events: 30000, Seed: 42,
		})
	})
}

// q1Query builds the paper's Q1 for the benchmark dataset.
func q1Query(b *testing.B, q, ws int) *spectre.Query {
	b.Helper()
	query, err := buildQ1(data.reg, q, ws, 16)
	if err != nil {
		b.Fatal(err)
	}
	return query
}

// runEngine runs one SPECTRE engine over events and reports events/sec.
func runEngine(b *testing.B, query *spectre.Query, events []spectre.Event, opts ...spectre.Option) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := spectre.NewEngine(query, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(context.Background(), spectre.FromSlice(events), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkFig10a measures Q1 throughput at representative
// pattern-size/window-size ratios and instance counts (paper Fig. 10(a)).
func BenchmarkFig10a(b *testing.B) {
	data.init()
	const ws = 1000
	for _, ratio := range []float64{0.005, 0.08, 0.32} {
		qsize := int(ratio * ws)
		if qsize < 1 {
			qsize = 1
		}
		query := q1Query(b, qsize, ws)
		for _, k := range []int{1, 4} {
			b.Run(fmt.Sprintf("ratio=%.3f/k=%d", ratio, k), func(b *testing.B) {
				runEngine(b, query, data.nyse, spectre.WithInstances(k))
			})
		}
	}
}

// BenchmarkFig10b measures Q2 throughput for narrow, wide and impossible
// price bands (paper Fig. 10(b)).
func BenchmarkFig10b(b *testing.B) {
	data.init()
	bands := []struct {
		lo, hi float64
		label  string
	}{
		{95, 105, "narrow"},
		{70, 142, "wide"},
		{50, 1e12, "0cplx"},
	}
	for _, band := range bands {
		query, err := buildQ2(data.reg, 1000, 125, band.lo, band.hi)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{1, 4} {
			b.Run(fmt.Sprintf("band=%s/k=%d", band.label, k), func(b *testing.B) {
				runEngine(b, query, data.nyse, spectre.WithInstances(k))
			})
		}
	}
}

// BenchmarkFig10c measures the splitter's maintenance+scheduling cycle
// rate (paper Fig. 10(c)). The cycles/sec metric is derived from the
// engine's cycle counter.
func BenchmarkFig10c(b *testing.B) {
	data.init()
	query := q1Query(b, 10, 1000)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				eng, err := spectre.NewEngine(query, spectre.WithInstances(k))
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Run(context.Background(), spectre.FromSlice(data.nyse), nil); err != nil {
					b.Fatal(err)
				}
				cycles += eng.Metrics().Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkFig10f measures the dependency tree's high-water mark of
// window versions (paper Fig. 10(f)); the value is reported as a metric.
func BenchmarkFig10f(b *testing.B) {
	data.init()
	query := q1Query(b, 10, 1000)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			maxTree := 0
			for i := 0; i < b.N; i++ {
				eng, err := spectre.NewEngine(query, spectre.WithInstances(k))
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Run(context.Background(), spectre.FromSlice(data.nyse), nil); err != nil {
					b.Fatal(err)
				}
				if m := eng.Metrics().MaxTreeSize; m > maxTree {
					maxTree = m
				}
			}
			b.ReportMetric(float64(maxTree), "max-versions")
		})
	}
}

// BenchmarkFig11 compares the Markov model against fixed completion
// probabilities on Q3 (paper Fig. 11).
func BenchmarkFig11(b *testing.B) {
	data.init()
	for _, cfg := range []struct {
		n, ws, slide int
		label        string
	}{
		{1, 1000, 100, "ratio=0.002"},
		{49, 500, 50, "ratio=0.1"},
	} {
		query, err := buildQ3(data.reg, cfg.n, cfg.ws, cfg.slide)
		if err != nil {
			b.Fatal(err)
		}
		models := []struct {
			label string
			opts  []spectre.Option
		}{
			{"fixed-0", []spectre.Option{spectre.WithFixedProbability(0)}},
			{"fixed-60", []spectre.Option{spectre.WithFixedProbability(0.6)}},
			{"fixed-100", []spectre.Option{spectre.WithFixedProbability(1)}},
			{"markov", nil},
		}
		for _, m := range models {
			b.Run(cfg.label+"/"+m.label, func(b *testing.B) {
				opts := append([]spectre.Option{spectre.WithInstances(4)}, m.opts...)
				runEngine(b, query, data.random, opts...)
			})
		}
	}
}

// BenchmarkTRexComparison reproduces §4.2.3: the T-REX-style baseline
// versus SPECTRE on Q1.
func BenchmarkTRexComparison(b *testing.B) {
	data.init()
	query := q1Query(b, 10, 1000)
	b.Run("trex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := spectre.RunBaseline(query, append([]spectre.Event(nil), data.nyse...)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data.nyse))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("spectre/k=%d", k), func(b *testing.B) {
			runEngine(b, query, data.nyse, spectre.WithInstances(k))
		})
	}
}

// BenchmarkFeedBatch compares per-event Handle.Feed with batched
// Handle.FeedBatch ingestion on the partitioned trading workload: the
// batch path pays one shard-queue handoff per (batch, shard) instead of
// one lock/wakeup per event. Two workloads bracket the effect: "ingest"
// (a pattern that never starts, so the intake path dominates — here the
// amortization is the whole story) and "detect" (the rise pattern, where
// detection work dilutes it). feed=batch* should beat feed=event.
func BenchmarkFeedBatch(b *testing.B) {
	data.init()
	ctx := context.Background()
	workloads := []struct {
		label string
		query string
	}{
		{"ingest", `
			QUERY spike
			PATTERN (X Y)
			DEFINE X AS X.close > 1000000, Y AS Y.close > 2000000
			WITHIN 64 EVENTS FROM X
			CONSUME ALL
			PARTITION BY TYPE SHARDS 4
		`},
		{"detect", `
			QUERY rise
			PATTERN (X Y)
			DEFINE X AS X.close > X.open, Y AS Y.close > X.close
			WITHIN 64 EVENTS FROM X
			CONSUME ALL
			PARTITION BY TYPE SHARDS 4
		`},
	}
	modes := []struct {
		label string
		batch int
	}{
		{"feed=event", 0},
		{"feed=batch256", 256},
		{"feed=batch1024", 1024},
	}
	for _, wl := range workloads {
		query, err := spectre.ParseQuery(wl.query, data.reg)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range modes {
			b.Run(wl.label+"/"+mode.label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rt, err := spectre.NewRuntime(data.reg)
					if err != nil {
						b.Fatal(err)
					}
					h, err := rt.Submit(ctx, query, nil, spectre.WithInstances(2))
					if err != nil {
						b.Fatal(err)
					}
					if mode.batch == 0 {
						for j := range data.nyse {
							if err := h.Feed(ctx, data.nyse[j]); err != nil {
								b.Fatal(err)
							}
						}
					} else {
						for lo := 0; lo < len(data.nyse); lo += mode.batch {
							hi := min(lo+mode.batch, len(data.nyse))
							if err := h.FeedBatch(ctx, data.nyse[lo:hi]); err != nil {
								b.Fatal(err)
							}
						}
					}
					h.Drain()
					if err := rt.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(data.nyse))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}

// BenchmarkSpeculation measures checkpointed speculation forking on the
// consume-heavy RAND workload (Q3, CONSUME ALL, slide ws/4 — every event
// lies in four windows, so most consumption groups fork dependent
// versions). ckpt=off reprocesses every fork from the window start; the
// checkpointed runs replay only the suffix past the divergence point.
// Throughput and allocs/op should both improve with checkpointing on.
func BenchmarkSpeculation(b *testing.B) {
	data.init()
	query, err := buildQ3(data.reg, 3, 1000, 250)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		label string
		opts  []spectre.Option
	}{
		{"ckpt=off", []spectre.Option{spectre.WithoutCheckpoints()}},
		{"ckpt=16", []spectre.Option{spectre.WithCheckpointEvery(16)}},
		{"ckpt=64", []spectre.Option{spectre.WithCheckpointEvery(64)}},
		{"ckpt=default", nil},
	}
	for _, m := range modes {
		b.Run(m.label, func(b *testing.B) {
			opts := append([]spectre.Option{spectre.WithInstances(4)}, m.opts...)
			runEngine(b, query, data.random, opts...)
		})
	}
}

// BenchmarkSched compares the scheduling policies end to end through
// the public Runtime API: TopK (the paper's fixed top-k), FixedProb
// (the Fig. 11 baseline) and Adaptive (slot pool and speculation budget
// track observed load), each under steady and bursty arrival. On a box
// with fewer cores than the provisioned k, adaptive should win by
// parking the slots the machine cannot actually run.
func BenchmarkSched(b *testing.B) {
	data.init()
	ctx := context.Background()
	query := q1Query(b, 80, 1000)
	const kmax = 8
	schedulers := []struct {
		label string
		opts  []spectre.Option
	}{
		{"topk", []spectre.Option{spectre.WithScheduler(spectre.TopKScheduler())}},
		{"fixedprob", []spectre.Option{spectre.WithScheduler(spectre.FixedProbScheduler(0.5))}},
		{"adaptive", []spectre.Option{spectre.WithAdaptiveInstances(1, kmax)}},
	}
	const burst = 16 << 10
	arrivals := []struct {
		label string
		feed  func(b *testing.B, h *spectre.Handle)
	}{
		{"steady", func(b *testing.B, h *spectre.Handle) {
			for lo := 0; lo < len(data.nyse); lo += 1024 {
				hi := min(lo+1024, len(data.nyse))
				if err := h.FeedBatch(ctx, data.nyse[lo:hi]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bursty", func(b *testing.B, h *spectre.Handle) {
			for lo := 0; lo < len(data.nyse); lo += burst {
				hi := min(lo+burst, len(data.nyse))
				if err := h.FeedBatch(ctx, data.nyse[lo:hi]); err != nil {
					b.Fatal(err)
				}
				if hi < len(data.nyse) {
					time.Sleep(10 * time.Millisecond)
				}
			}
		}},
	}
	for _, arr := range arrivals {
		for _, sc := range schedulers {
			b.Run(arr.label+"/"+sc.label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rt, err := spectre.NewRuntime(data.reg)
					if err != nil {
						b.Fatal(err)
					}
					opts := append([]spectre.Option{
						spectre.WithInstances(kmax),
						spectre.WithQueueCap(8 << 10),
					}, sc.opts...)
					h, err := rt.Submit(ctx, query, nil, opts...)
					if err != nil {
						b.Fatal(err)
					}
					arr.feed(b, h)
					h.Drain()
					if err := rt.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(data.nyse))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}

// BenchmarkPlanner measures the cost-based planner on a mixed-type
// workload where 4 of 10 event types are relevant to the query: the
// type-indexed intake prefilter drops the rest before they reach the
// splitter. planned should beat unplanned; the full sweep lives in
// cmd/spectre-bench -exp planner.
func BenchmarkPlanner(b *testing.B) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateRand(reg, spectre.RandConfig{Symbols: 10, Events: 30000, Seed: 42})
	qb := query.New(reg).Name("planner")
	open, closeF := qb.Float("open"), qb.Float("close")
	strongRise := func(ev *query.Event) bool { return closeF.Of(ev) > open.Of(ev)*1.0045 }
	rising := func(ev *query.Event) bool { return closeF.Of(ev) > open.Of(ev) }
	q, err := qb.
		Pattern(
			query.Step("A").Types(spectre.Symbol(0), spectre.Symbol(1)).WhereEvent(strongRise),
			query.Step("B").Types(spectre.Symbol(1), spectre.Symbol(2)).WhereEvent(rising),
			query.Step("C").Types(spectre.Symbol(3)),
		).
		Within(query.Events(2000)).From("A").
		ConsumeAll().
		Build()
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		label string
		opt   spectre.Option
	}{
		{"planned", spectre.WithPlanner()},
		{"unplanned", spectre.WithoutPlanner()},
	}
	for _, m := range modes {
		b.Run(m.label, func(b *testing.B) {
			runEngine(b, q, events, spectre.WithInstances(4), m.opt)
		})
	}
}

// BenchmarkShed measures ingestion under overload with and without
// utility-driven load shedding: a slow matcher predicate pins the shard
// behind the producer, so the no-shedding mode is paced by backpressure
// while WithShedding keeps the producer at full speed by dropping
// low-utility events at the intake. The match-retention comparison
// against random drop lives in cmd/spectre-bench -exp shed.
func BenchmarkShed(b *testing.B) {
	ctx := context.Background()
	reg := spectre.NewRegistry()
	ta, tb := reg.TypeID("A"), reg.TypeID("B")
	var burnSink float64
	burn := func(*query.Event, query.Binder) bool {
		s := 0.0
		for i := 1; i < 100; i++ {
			s += 1.0 / float64(i)
		}
		burnSink = s
		return s > 0
	}
	q, err := query.New(reg).Name("shed").
		Pattern(
			query.Step("A").Types("A").Where(burn),
			query.Step("B").Types("B"),
		).
		Within(query.Events(32)).From("A").
		Consume("B").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	const n = 8_192
	events := make([]spectre.Event, n)
	for i := range events {
		tp := ta
		if i%8 == 7 {
			tp = tb
		}
		events[i] = spectre.Event{TS: int64(i) * int64(time.Millisecond), Type: tp}
	}
	modes := []struct {
		label string
		opts  []spectre.Option
	}{
		{"noshed", nil},
		{"shed", []spectre.Option{spectre.WithShedding()}},
	}
	for _, m := range modes {
		b.Run(m.label, func(b *testing.B) {
			b.ReportAllocs()
			var matches, shed uint64
			for i := 0; i < b.N; i++ {
				rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(1))
				if err != nil {
					b.Fatal(err)
				}
				opts := append([]spectre.Option{spectre.WithQueueCap(2048)}, m.opts...)
				h, err := rt.Submit(ctx, q, nil, opts...)
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(events); lo += 1024 {
					hi := min(lo+1024, len(events))
					if err := h.FeedBatch(ctx, events[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
				h.Drain()
				mt := h.Metrics()
				matches, shed = mt.Matches, mt.ShedEvents
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(matches), "matches")
			b.ReportMetric(float64(shed), "shed-events")
		})
	}
	_ = burnSink
}

// BenchmarkRecovery measures WAL-backed durability (DESIGN.md §11):
// ingest/* compares end-to-end throughput without durability and with
// the file-backed WAL (the durable run journals events, checkpoints and
// cuts off the hot path and group-commits watermarks, so it should stay
// within a few percent), and recover times Submit+Recover over the
// journal a parked run leaves behind. Smoke-friendly at -benchtime=1x;
// the full sweep lives in cmd/spectre-bench -exp recovery.
func BenchmarkRecovery(b *testing.B) {
	data.init()
	ctx := context.Background()
	query := q1Query(b, 20, 2000)
	feed := func(b *testing.B, h *spectre.Handle) {
		for lo := 0; lo < len(data.nyse); lo += 1024 {
			hi := min(lo+1024, len(data.nyse))
			if err := h.FeedBatch(ctx, data.nyse[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, durableMode := range []string{"off", "wal"} {
		b.Run("ingest/durable="+durableMode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ropts []spectre.RuntimeOption
				if durableMode == "wal" {
					b.StopTimer()
					dir := b.TempDir()
					b.StartTimer()
					ropts = append(ropts, spectre.WithDurability(dir))
				}
				rt, err := spectre.NewRuntime(data.reg, ropts...)
				if err != nil {
					b.Fatal(err)
				}
				h, err := rt.Submit(ctx, query, nil, spectre.WithInstances(2))
				if err != nil {
					b.Fatal(err)
				}
				feed(b, h)
				h.Drain()
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data.nyse))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
	b.Run("recover", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Life 1 (untimed): journal the stream durably and park.
			// FeedBatch is asynchronous and parking discards queued input,
			// so wait for the splitter to actually consume everything.
			b.StopTimer()
			dir := b.TempDir()
			rt, err := spectre.NewRuntime(data.reg, spectre.WithDurability(dir))
			if err != nil {
				b.Fatal(err)
			}
			h, err := rt.Submit(ctx, query, nil, spectre.WithInstances(2))
			if err != nil {
				b.Fatal(err)
			}
			feed(b, h)
			deadline := time.Now().Add(30 * time.Second)
			for h.Metrics().EventsIngested < uint64(len(data.nyse)) {
				if time.Now().After(deadline) {
					b.Fatal("ingestion stalled before park")
				}
				time.Sleep(200 * time.Microsecond)
			}
			h.Park()
			if err := rt.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()

			// Life 2 (timed): reopen the directory, re-submit, recover.
			rt2, err := spectre.NewRuntime(data.reg, spectre.WithDurability(dir))
			if err != nil {
				b.Fatal(err)
			}
			h2, err := rt2.Submit(ctx, query, nil, spectre.WithInstances(2))
			if err != nil {
				b.Fatal(err)
			}
			if err := rt2.Recover(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if pos := h2.Recovered(); len(pos) != 1 || pos[0] == 0 {
				b.Fatalf("recovery replayed nothing (Recovered=%v)", pos)
			}
			h2.Park()
			if err := rt2.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkDistributed measures the distributed submission path
// (DESIGN.md §12) against the in-process runtime on the same
// partitioned query: local runs the sharded Runtime, cluster places the
// same four shards on two loopback workers over real TCP — paying
// framing, the workers' durable in-memory WAL pipelines and the ordered
// merge. Smoke-friendly at -benchtime=1x; the batch-size sweep lives in
// cmd/spectre-bench -exp distributed.
func BenchmarkDistributed(b *testing.B) {
	data.init()
	ctx := context.Background()
	const text = `
		QUERY dist
		PATTERN (X Y)
		DEFINE X AS X.close > X.open, Y AS Y.close > X.close
		WITHIN 40 EVENTS FROM X
		CONSUME ALL
		PARTITION BY TYPE SHARDS 4
	`
	feed := func(feedBatch func([]spectre.Event) error) error {
		for lo := 0; lo < len(data.nyse); lo += 1024 {
			hi := min(lo+1024, len(data.nyse))
			if err := feedBatch(data.nyse[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}
	b.Run("local", func(b *testing.B) {
		b.ReportAllocs()
		q, err := spectre.ParseQuery(text, data.reg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			rt, err := spectre.NewRuntime(data.reg)
			if err != nil {
				b.Fatal(err)
			}
			h, err := rt.Submit(ctx, q, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := feed(func(evs []spectre.Event) error { return h.FeedBatch(ctx, evs) }); err != nil {
				b.Fatal(err)
			}
			h.Drain()
			if err := rt.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data.nyse))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("cluster", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl, err := spectre.ListenCluster("127.0.0.1:0", data.reg, spectre.ClusterOptions{MinWorkers: 2})
			if err != nil {
				b.Fatal(err)
			}
			var workers []*spectre.ClusterWorker
			for j := 0; j < 2; j++ {
				w, err := spectre.JoinCluster(ctx, spectre.NewRegistry(), cl.Addr().String(), spectre.ClusterWorkerOptions{})
				if err != nil {
					b.Fatal(err)
				}
				workers = append(workers, w)
			}
			h, err := cl.Submit(ctx, text, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := feed(func(evs []spectre.Event) error { return h.FeedBatch(ctx, evs) }); err != nil {
				b.Fatal(err)
			}
			if err := h.Drain(ctx); err != nil {
				b.Fatal(err)
			}
			for _, w := range workers {
				w.Close()
			}
			if err := cl.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data.nyse))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
}

// BenchmarkComms measures the transport cost of the distributed path
// (DESIGN.md §13) as bytes shipped per source event: three
// plan-filterable queries on a two-worker loopback cluster, once with
// coordinator-side pushdown and the compact v2 wire (the default), once
// with pushdown disabled so every routed event ships in full. The
// bytes/event metric comes from the coordinator's per-link transport
// counters. Smoke-friendly at -benchtime=1x; the mode sweep with
// shared-stream dedup lives in cmd/spectre-bench -exp comms.
func BenchmarkComms(b *testing.B) {
	data.init()
	ctx := context.Background()
	texts := make([]string, 3)
	for i, win := range []int{60, 120, 180} {
		texts[i] = fmt.Sprintf(`
			QUERY CQ%d
			PATTERN (A B C)
			DEFINE A AS (A.symbol IN ('BLUE00','BLUE01') AND A.close > A.open),
			       B AS B.close > B.open,
			       C AS C.close > C.open
			WITHIN %d EVENTS FROM A
			CONSUME ALL
			PARTITION BY TYPE SHARDS 4
		`, i, win)
	}
	run := func(b *testing.B, opts spectre.ClusterOptions) {
		b.ReportAllocs()
		var bytes uint64
		for i := 0; i < b.N; i++ {
			cl, err := spectre.ListenCluster("127.0.0.1:0", data.reg, opts)
			if err != nil {
				b.Fatal(err)
			}
			var workers []*spectre.ClusterWorker
			for j := 0; j < 2; j++ {
				w, err := spectre.JoinCluster(ctx, spectre.NewRegistry(), cl.Addr().String(), spectre.ClusterWorkerOptions{})
				if err != nil {
					b.Fatal(err)
				}
				workers = append(workers, w)
			}
			var handles []*spectre.ClusterHandle
			for _, text := range texts {
				h, err := cl.Submit(ctx, text, nil)
				if err != nil {
					b.Fatal(err)
				}
				handles = append(handles, h)
			}
			for lo := 0; lo < len(data.nyse); lo += 1024 {
				hi := min(lo+1024, len(data.nyse))
				for _, h := range handles {
					if err := h.FeedBatch(ctx, data.nyse[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, h := range handles {
				h.Close()
			}
			for _, h := range handles {
				if err := h.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
			for _, ls := range cl.LinkStats() {
				bytes += ls.BytesSent
			}
			for _, w := range workers {
				w.Close()
			}
			if err := cl.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bytes)/(float64(len(data.nyse))*float64(b.N)), "bytes/event")
	}
	b.Run("pushdown", func(b *testing.B) { run(b, spectre.ClusterOptions{MinWorkers: 2}) })
	b.Run("full-ship", func(b *testing.B) { run(b, spectre.ClusterOptions{MinWorkers: 2, DisablePushdown: true}) })
}

// BenchmarkSequential measures the reference engine (context for the
// parallel numbers).
func BenchmarkSequential(b *testing.B) {
	data.init()
	query := q1Query(b, 10, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := spectre.RunSequential(query, append([]spectre.Event(nil), data.nyse...)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data.nyse))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
