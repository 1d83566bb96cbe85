// The paper-figure parameter sweeps (§4.2, Fig. 10/11) through the public
// API: operator instances k, pattern-size/window-size (completion) ratio,
// window size and fixed-vs-Markov completion prediction. Every other
// measurement — throughput per workload, the sequential and T-REX
// baselines, intake, the planner, durability, the cluster
// wire — is a BENCHMARK.json workload or per-layer row produced by
// benchmark/run.sh; these sweeps are the axes no workload there covers.
// Each iteration runs a complete engine over a cached dataset and reports
// events/sec (the paper's metric).
package spectre_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	spectre "github.com/spectrecep/spectre"
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
