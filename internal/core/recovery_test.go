package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/queries"
	"github.com/spectrecep/spectre/internal/window"
)

// recoveryFixture builds a deterministic Q1-over-NYSE workload small
// enough for restart loops but busy enough to exercise cuts and
// watermarks.
func recoveryFixture(t *testing.T) (*event.Registry, *pattern.Query, []event.Event) {
	t.Helper()
	reg := event.NewRegistry()
	q, err := queries.Q1(reg, queries.Q1Config{Q: 2, WindowSize: 100, Leaders: 2})
	if err != nil {
		t.Fatal(err)
	}
	events := dataset.NYSE(reg, dataset.NYSEConfig{Symbols: 20, Leaders: 2, Minutes: 40, Seed: 11})
	return reg, q, events
}

// runLife runs one process lifetime against store: submit, recover,
// feed events[from:stopAfter], then stop. stopAfter >= 0 marks an
// intermediate life — the runtime shuts down mid-stream (durable shards
// park, in-flight windows go to the WAL); stopAfter < 0 marks the final
// life, which declares genuine end of stream (Drain) first. It returns
// the keys delivered during this lifetime and the position recovery said
// to resume from.
func runLife(t *testing.T, store durable.Store, reg *event.Registry, q *pattern.Query,
	cfg Config, events []event.Event, stopAfter int) (delivered []string, resumed uint64) {
	t.Helper()
	ctx := context.Background()
	rt := NewRuntime(RuntimeConfig{Workers: 2, Durable: store})
	cfg.Reg = reg
	h, err := rt.Submit(q, cfg, nil, 1, func(ce event.Complex) {
		delivered = append(delivered, ce.Key())
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if pos := h.Recovered(); pos != nil {
		resumed = pos[0]
	}
	end := len(events)
	final := stopAfter < 0 || stopAfter >= end
	if !final {
		end = stopAfter
	}
	if int(resumed) < end {
		if err := h.FeedBatch(ctx, events[resumed:end]); err != nil {
			t.Fatal(err)
		}
	}
	if final {
		h.Drain()
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	return delivered, resumed
}

// referenceRun is the uninterrupted, non-durable run the recovered
// output must be byte-identical to.
func referenceRun(t *testing.T, reg *event.Registry, q *pattern.Query, cfg Config, events []event.Event) []string {
	t.Helper()
	delivered, _ := runLife(t, nil, reg, q, cfg, events, -1)
	return delivered
}

func assertKeysEqual(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

// TestRecoverCleanRestart stops the process cleanly mid-stream, restarts
// it against the same store and resumes: the concatenated delivered
// stream must equal the uninterrupted run exactly — windows spanning the
// restart re-form from the journal, matches delivered before the restart
// are suppressed on replay.
func TestRecoverCleanRestart(t *testing.T) {
	reg, q, events := recoveryFixture(t)
	cfg := Config{Instances: 2}
	want := referenceRun(t, reg, q, cfg, events)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches")
	}

	for _, split := range []int{1, len(events) / 3, len(events) / 2, len(events) - 1} {
		t.Run(fmt.Sprintf("split=%d", split), func(t *testing.T) {
			store := durable.NewMemStore()
			part1, resumed := runLife(t, store, reg, q, cfg, events, split)
			if resumed != 0 {
				t.Fatalf("fresh store resumed at %d, want 0", resumed)
			}
			part2, resumed := runLife(t, store, reg, q, cfg, events, -1)
			if resumed > uint64(split) {
				t.Fatalf("recovery resumed at %d, past the %d events ever fed", resumed, split)
			}
			assertKeysEqual(t, "clean restart", append(part1, part2...), want)
		})
	}
}

// TestRecoverAcrossManyRestarts chains several restarts; every life
// resumes where the last one stopped and the concatenation stays exact.
func TestRecoverAcrossManyRestarts(t *testing.T) {
	reg, q, events := recoveryFixture(t)
	cfg := Config{Instances: 2}
	want := referenceRun(t, reg, q, cfg, events)

	store := durable.NewMemStore()
	var all []string
	n := len(events)
	for _, stop := range []int{n / 4, n / 2, 3 * n / 4, -1} {
		part, _ := runLife(t, store, reg, q, cfg, events, stop)
		all = append(all, part...)
	}
	assertKeysEqual(t, "chained restarts", all, want)
}

// TestRecoverFileStore runs the clean-restart equivalence against the
// real segmented WAL with a tiny segment limit, forcing rotation and
// compaction mid-run.
func TestRecoverFileStore(t *testing.T) {
	reg, q, events := recoveryFixture(t)
	cfg := Config{Instances: 2}
	want := referenceRun(t, reg, q, cfg, events)

	store, err := durable.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.SegmentBytes = 8 * 1024
	part1, _ := runLife(t, store, reg, q, cfg, events, len(events)/2)
	part2, _ := runLife(t, store, reg, q, cfg, events, -1)
	assertKeysEqual(t, "file store restart", append(part1, part2...), want)
}

// TestRecoverEmptyStore: durability on a fresh store changes nothing
// about the delivered stream, and Recover returns immediately.
func TestRecoverEmptyStore(t *testing.T) {
	reg, q, events := recoveryFixture(t)
	cfg := Config{Instances: 2}
	want := referenceRun(t, reg, q, cfg, events)
	got, resumed := runLife(t, durable.NewMemStore(), reg, q, cfg, events, -1)
	if resumed != 0 {
		t.Fatalf("resumed = %d, want 0", resumed)
	}
	assertKeysEqual(t, "durable-on fresh store", got, want)
}

// TestDurableRequiresName: the WAL shard is keyed by query name, so an
// anonymous query must be refused at submit.
func TestDurableRequiresName(t *testing.T) {
	reg, q, _ := recoveryFixture(t)
	anon := *q
	anon.Name = ""
	anon.Pattern.Name = "" // Validate backfills Query.Name from the pattern
	rt := NewRuntime(RuntimeConfig{Workers: 1, Durable: durable.NewMemStore()})
	defer rt.Close()
	if _, err := rt.Submit(&anon, Config{Instances: 1, Reg: reg}, nil, 1, nil, nil); err == nil {
		t.Fatal("Submit of unnamed durable query must fail")
	}
	if _, err := rt.Submit(q, Config{Instances: 1}, nil, 1, nil, nil); err == nil {
		t.Fatal("Submit of durable query without Reg must fail")
	}
}

// TestDurableMetrics: the persister's counters surface in Metrics.
func TestDurableMetrics(t *testing.T) {
	reg, q, events := recoveryFixture(t)
	ctx := context.Background()
	rt := NewRuntime(RuntimeConfig{Workers: 2, Durable: durable.NewMemStore()})
	h, err := rt.Submit(q, Config{Instances: 2, Reg: reg}, nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FeedBatch(ctx, events); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	m := h.Metrics()
	if m.DurableAppends == 0 {
		t.Fatal("DurableAppends = 0 after a durable run")
	}
	if m.DurableSyncs == 0 {
		t.Fatal("DurableSyncs = 0 after a durable run that emitted matches")
	}
	if m.DurableErrors != 0 {
		t.Fatalf("DurableErrors = %d, want 0", m.DurableErrors)
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestParkIsNotEndOfStream: parking a shard — a durable query's detach —
// leaves its in-flight windows for the WAL to resume. Neither the splitter
// nor a slot may take the park for end of stream: truncate a window still
// waiting for events at the current stream length, finish it, or pop it.
// Each would let the persisted cut move past a window that recovery then
// never re-forms. The interleaving is the one a concurrent Shutdown can
// produce: the park lands while the splitter is inside ingest, and a pool
// worker visits the slots before the splitter's last cycle.
func TestParkIsNotEndOfStream(t *testing.T) {
	reg := event.NewRegistry()
	ta, tb := reg.TypeID("A"), reg.TypeID("B")
	p := pattern.Seq("park",
		pattern.Step{Name: "A", Types: []event.Type{ta}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Consume: true},
	)
	q := &pattern.Query{
		Name:    "park",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartEvery, Every: 64,
			EndKind: pattern.EndDuration, Duration: 1000,
		},
	}
	prog, err := compile(q, Config{Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog)
	if err != nil {
		t.Fatal(err)
	}
	s.begin(nil)
	const fed = 40 // the first window's end lies 1000 time units out
	events := make([]event.Event, fed)
	for i := range events {
		events[i] = event.Event{TS: int64(i), Type: ta}
	}
	feedShard(s, events, false)
	for i := 0; i < 1000; i++ {
		if r := s.tree.Root(); r != nil && r.WV.Pos() == fed {
			break
		}
		s.step()
	}
	root := s.tree.Root()
	if root == nil || root.WV.Pos() != fed {
		t.Fatal("the first window never processed the fed events")
	}
	wv := root.WV

	s.park()
	s.ingest()
	for i := range s.slots {
		s.slotStep(i)
	}
	s.splitterStep()
	if !s.finished.Load() {
		t.Fatal("the parked shard did not finish its run")
	}
	if end := wv.Win.EndSeq(); end != window.UnknownEnd {
		t.Fatalf("the park truncated the in-flight window at %d", end)
	}
	if wv.Finished() {
		t.Fatal("a slot finished a window that was still waiting for events")
	}
	if r := s.tree.Root(); r == nil || r.WV != wv {
		t.Fatal("the splitter popped the in-flight window")
	}
}

// recordingStore keeps every record its shard logs append, in order, so
// a test can rebuild the log as it stood at any point of the run.
type recordingStore struct {
	durable.Store
	recs []*durable.Record
}

func (r *recordingStore) OpenShard(query string, shard int) (durable.ShardLog, error) {
	l, err := r.Store.OpenShard(query, shard)
	if err != nil {
		return nil, err
	}
	return &recordingLog{ShardLog: l, st: r}, nil
}

type recordingLog struct {
	durable.ShardLog
	st *recordingStore
}

func (l *recordingLog) Append(rec *durable.Record) error {
	l.st.recs = append(l.st.recs, rec)
	return l.ShardLog.Append(rec)
}

// TestRecoverCutAcrossChunks crashes right after a cut whose consumed
// runs span two arena chunks. Priming marks them before replay has
// appended anything, so the marks materialize both chunks, and replay
// then appends into them. The recovered stream must equal the uncrashed
// run's.
func TestRecoverCutAcrossChunks(t *testing.T) {
	const chunkEvents = 1 << 14 // the arena's chunk size; priming below checks it
	reg := event.NewRegistry()
	ta, tb, tc, tx := reg.TypeID("A"), reg.TypeID("B"), reg.TypeID("C"), reg.TypeID("X")
	p := pattern.Seq("straddle",
		pattern.Step{Name: "A", Types: []event.Type{ta}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{tb}, Quant: pattern.OneOrMore, Consume: true},
		pattern.Step{Name: "C", Types: []event.Type{tc}, Consume: true},
	)
	q := &pattern.Query{
		Name:    "straddle",
		Pattern: *p,
		Window: pattern.WindowSpec{
			StartKind: pattern.StartEvery, Every: 100,
			EndKind: pattern.EndCount, Count: 400,
		},
	}
	// Every 1000 events an A, 150 Bs and a C; the instance at 16 300 runs
	// across the first chunk boundary, past the next window's start.
	events := make([]event.Event, 18000)
	for i := range events {
		ty := tx
		switch off := i % 1000; {
		case off == 300:
			ty = ta
		case off > 300 && off <= 450:
			ty = tb
		case off == 451:
			ty = tc
		}
		events[i] = event.Event{TS: int64(i), Type: ty}
	}
	cfg := Config{Instances: 2}
	want := referenceRun(t, reg, q, cfg, events)

	rec := &recordingStore{Store: durable.NewMemStore()}
	recorded, _ := runLife(t, rec, reg, q, cfg, events, -1)
	assertKeysEqual(t, "durable run", recorded, want)
	at := -1
	for i, r := range rec.recs {
		if r.Kind != durable.KindCut || len(r.Cut.Consumed) == 0 {
			continue
		}
		runs := r.Cut.Consumed
		first, last := runs[0], runs[len(runs)-2]+runs[len(runs)-1]-1
		if first/chunkEvents != last/chunkEvents {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatal("no cut's consumed runs span two chunks; the fixture lost its point")
	}
	cut := rec.recs[at].Cut

	prog, err := compile(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(prog)
	if err != nil {
		t.Fatal(err)
	}
	s.primeRecovered(&durable.ShardState{Cut: cut})
	if allocs, _ := s.ar.AllocStats(); allocs != 2 || s.ar.Len() != 0 {
		t.Fatalf("priming materialized %d chunks with %d events appended, want 2 and 0", allocs, s.ar.Len())
	}
	// Replay appends into the chunks the marks materialized.
	runs := cut.Consumed
	for seq := cut.Boundary; seq < runs[len(runs)-2]+runs[len(runs)-1]; seq++ {
		ev := events[seq]
		ev.Seq = seq
		s.ar.AppendAt(ev)
	}
	if allocs, _ := s.ar.AllocStats(); allocs != 2 {
		t.Fatalf("replay materialized %d chunks, want the 2 priming made", allocs)
	}
	if got := s.ar.ConsumedRuns(cut.Boundary, s.ar.Len(), nil); fmt.Sprint(got) != fmt.Sprint(cut.Consumed) {
		t.Fatalf("marks after replay %v, want the cut's %v", got, cut.Consumed)
	}

	// The log as a crash right after that cut leaves it.
	store := durable.NewMemStore()
	log, err := store.OpenShard(q.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Load(reg); err != nil {
		t.Fatal(err)
	}
	var delivered uint64
	for _, r := range rec.recs[:at+1] {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
		switch r.Kind {
		case durable.KindWatermark:
			delivered = max(delivered, r.Watermark)
		case durable.KindCut:
			delivered = max(delivered, r.Cut.Watermark)
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rest, resumed := runLife(t, store, reg, q, cfg, events, -1)
	if resumed < cut.Boundary {
		t.Fatalf("recovery resumed at %d, below the cut boundary %d", resumed, cut.Boundary)
	}
	assertKeysEqual(t, "recovered across chunks", append(want[:delivered:delivered], rest...), want)
}
