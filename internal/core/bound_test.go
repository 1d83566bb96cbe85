package core

import (
	"context"
	"io/fs"
	"path/filepath"
	"testing"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/pattern"
)

// Gap bounds: what a shard holds while no window is open does not grow
// with the gap. The arena allocates the chunk being written and the one
// before it, which the first grid cut past its end releases for reuse,
// plus one to spare. The WAL keeps the live segment and the one before
// it, each at most a segment plus the records before the cut that
// rotates it, so four segments' worth.
const (
	gapChunkBound   = 3
	gapSegmentBytes = 64 << 10
	gapWALBound     = 4 * gapSegmentBytes
)

// gapLife runs one shard over events in mode ("plain", "durable" or
// "upstream") and drains it. It returns the arena chunks the shard
// allocated, the WAL bytes left on disk (durable only), the matches and
// the cuts its consumer saw (upstream only).
func gapLife(t *testing.T, reg *event.Registry, q *pattern.Query, events []event.Event, mode string) (chunks uint64, walBytes int64, matches, cuts int) {
	t.Helper()
	ctx := context.Background()
	var (
		store *durable.FileStore
		rcfg  = RuntimeConfig{Workers: 2}
		cfg   = Config{Instances: 2, Reg: reg}
	)
	switch mode {
	case "durable":
		var err error
		if store, err = durable.NewFileStore(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		store.SegmentBytes = gapSegmentBytes
		rcfg.Durable = store
	case "upstream":
		cfg.Upstream = &Upstream{OnCut: func(*durable.CutRecord) { cuts++ }}
	}
	rt := NewRuntime(rcfg)
	h, err := rt.Submit(q, cfg, nil, 1, func(event.Complex) { matches++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FeedBatch(ctx, events); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	chunks, _ = h.shards[0].ar.AllocStats()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if store != nil {
		err := filepath.WalkDir(store.Dir(), func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			walBytes += info.Size()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return chunks, walBytes, matches, cuts
}

// TestGapBounded: a shard that opens no window, or whose windows lie
// 100 000 positions apart, keeps its arena chunks and its WAL under one
// bound at two stream lengths 4× apart, journaled or not, and journaled
// upstream. Grid cuts release the arena and rotate the WAL inside a gap.
func TestGapBounded(t *testing.T) {
	// noWindow is the rise query with an X no quote satisfies.
	noWindow := func(reg *event.Registry, n int) (*pattern.Query, []event.Event, error) {
		q, err := parser.Parse(`
			QUERY rise
			PATTERN (X Y)
			DEFINE X AS X.close < 0, Y AS Y.close > X.close
			WITHIN 40 EVENTS FROM X
			CONSUME ALL`, reg)
		return q, dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 100, Leaders: 2, Minutes: n / 100, Seed: 3}), err
	}
	sparse := func(reg *event.Registry, n int) (*pattern.Query, []event.Event, error) {
		return qe(reg, n, 100_000)
	}
	const n = 100_000
	for _, tc := range []struct {
		name    string
		setup   func(*event.Registry, int) (*pattern.Query, []event.Event, error)
		windows bool
	}{
		{"no-window", noWindow, false},
		{"QE-sparse", sparse, true},
	} {
		for _, mode := range []string{"plain", "durable", "upstream"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				for _, length := range []int{n, 4 * n} {
					reg := event.NewRegistry()
					q, events, err := tc.setup(reg, length)
					if err != nil {
						t.Fatal(err)
					}
					for i := range events {
						events[i].Seq = uint64(i)
					}
					chunks, walBytes, matches, cuts := gapLife(t, reg, q, events, mode)
					t.Logf("%d events: %d chunks, %d WAL bytes, %d matches, %d cuts", length, chunks, walBytes, matches, cuts)
					if tc.windows != (matches > 0) {
						t.Fatalf("%d events: %d matches; the fixture lost its point", length, matches)
					}
					if mode == "upstream" && cuts < length/idleCutEvery/2 {
						t.Fatalf("%d events: %d cuts reported", length, cuts)
					}
					if chunks > gapChunkBound {
						t.Errorf("%d events: %d arena chunks allocated, bound %d", length, chunks, gapChunkBound)
					}
					if walBytes > gapWALBound {
						t.Errorf("%d events: %d WAL bytes on disk, bound %d", length, walBytes, gapWALBound)
					}
				}
			})
		}
	}
}
