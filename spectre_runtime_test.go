package spectre_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/shard"
)

// riseQuerySrc detects two consecutive rising quotes of the same
// partition; fallQuerySrc the falling counterpart with selective
// consumption. Both partition by symbol (event type).
const (
	riseQuerySrc = `
		QUERY rise
		PATTERN (X Y)
		DEFINE X AS X.close > X.open, Y AS Y.close > X.close
		WITHIN 40 EVENTS FROM X
		CONSUME ALL
		PARTITION BY TYPE SHARDS 8
	`
	fallQuerySrc = `
		QUERY fall
		PATTERN (A B)
		DEFINE A AS A.close < A.open, B AS B.close < A.close
		WITHIN 30 EVENTS FROM A
		CONSUME (B)
		PARTITION BY TYPE SHARDS 3
	`
)

// expectedPerPartition routes events exactly like the runtime and runs the
// sequential reference engine on every partition substream, returning the
// multiset of complex-event keys.
func expectedPerPartition(t *testing.T, reg *spectre.Registry, src string, nShards int, events []spectre.Event) map[string]int {
	t.Helper()
	router := shard.NewRouter(nShards, shard.ByType())
	want := make(map[string]int)
	total := 0
	for _, bucket := range router.Split(events) {
		q, err := spectre.ParseQuery(src, reg)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := spectre.RunSequential(q, bucket)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			want[out[i].Key()]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("per-partition reference produced no matches; test is vacuous")
	}
	return want
}

// TestRuntimeShardedCrossCheck is the acceptance cross-check: a Runtime
// hosting two partitioned queries over one stream produces, per query,
// exactly the complex-event set of standalone sequential runs over each
// partition substream.
func TestRuntimeShardedCrossCheck(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{
		Symbols: 24, Leaders: 4, Minutes: 80, Seed: 5,
	})

	wantRise := expectedPerPartition(t, reg, riseQuerySrc, 8, events)
	wantFall := expectedPerPartition(t, reg, fallQuerySrc, 3, events)

	qRise, err := spectre.ParseQuery(riseQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}
	qFall, err := spectre.ParseQuery(fallQuerySrc, reg)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	gotRise := make(map[string]int)
	gotFall := make(map[string]int)
	hRise, err := rt.Submit(ctx, qRise, spectre.SinkFunc(func(ce spectre.ComplexEvent) { gotRise[ce.Key()]++ }))
	if err != nil {
		t.Fatal(err)
	}
	hFall, err := rt.Submit(ctx, qFall, spectre.SinkFunc(func(ce spectre.ComplexEvent) { gotFall[ce.Key()]++ }))
	if err != nil {
		t.Fatal(err)
	}
	if hRise.Shards() != 8 || hFall.Shards() != 3 {
		t.Fatalf("shards = %d/%d, want 8/3", hRise.Shards(), hFall.Shards())
	}

	if err := rt.Run(ctx, spectre.FromSlice(events)); err != nil {
		t.Fatal(err)
	}

	assertSameMultiset(t, "rise", gotRise, wantRise)
	assertSameMultiset(t, "fall", gotFall, wantFall)

	if m := hRise.Metrics(); m.Matches != uint64(len(flatten(wantRise))) {
		t.Errorf("rise metrics: %d matches, want %d", m.Matches, len(flatten(wantRise)))
	}
	if m := hRise.Metrics(); m.EventsIngested != uint64(len(events)) {
		t.Errorf("rise ingested %d events across shards, want %d", m.EventsIngested, len(events))
	}
	if sm := hRise.ShardMetrics(); len(sm) != 8 {
		t.Errorf("ShardMetrics returned %d entries, want 8", len(sm))
	}
}

// TestRuntimeSingleShardMatchesEngineOrder checks the unpartitioned path:
// one shard on the shared pool delivers exactly the standalone engine /
// sequential order.
func TestRuntimeSingleShardMatchesEngineOrder(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{
		Symbols: 16, Leaders: 3, Minutes: 60, Seed: 11,
	})
	src := `
		QUERY rise
		PATTERN (X Y)
		DEFINE X AS X.close > X.open, Y AS Y.close > X.close
		WITHIN 25 EVENTS FROM X
		CONSUME ALL
	`
	q, err := spectre.ParseQuery(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := spectre.RunSequential(q, append([]spectre.Event(nil), events...))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference produced no matches; test is vacuous")
	}

	ctx := context.Background()
	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var got []spectre.ComplexEvent
	h, err := rt.Submit(ctx, q, spectre.SinkFunc(func(ce spectre.ComplexEvent) { got = append(got, ce) }))
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards() != 1 {
		t.Fatalf("unpartitioned query got %d shards", h.Shards())
	}
	for i := range events {
		if err := h.Feed(ctx, events[i]); err != nil {
			t.Fatal(err)
		}
	}
	h.Drain()

	if len(got) != len(want) {
		t.Fatalf("got %d complex events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("event %d differs: got %s, want %s", i, got[i].Key(), want[i].Key())
		}
	}
}

// TestRuntimeLifecycleErrors covers the close/misuse contract.
func TestRuntimeLifecycleErrors(t *testing.T) {
	reg := spectre.NewRegistry()
	q, err := spectre.ParseQuery(`PATTERN (A B) WITHIN 10 EVENTS FROM A`, reg)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Submit(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if err := h.Feed(ctx, spectre.Event{Type: 1}); !errors.Is(err, spectre.ErrHandleClosed) {
		t.Fatalf("Feed after Close = %v, want ErrHandleClosed", err)
	}
	if err := h.TryFeed(spectre.Event{Type: 1}); !errors.Is(err, spectre.ErrHandleClosed) {
		t.Fatalf("TryFeed after Close = %v, want ErrHandleClosed", err)
	}
	if err := h.FeedBatch(ctx, []spectre.Event{{Type: 1}}); !errors.Is(err, spectre.ErrHandleClosed) {
		t.Fatalf("FeedBatch after Close = %v, want ErrHandleClosed", err)
	}
	h.Wait()

	if _, err := rt.Submit(ctx, q, nil, spectre.WithShards(4)); err == nil {
		t.Fatal("WithShards without a partition key must fail")
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(ctx, q, nil); !errors.Is(err, spectre.ErrRuntimeClosed) {
		t.Fatalf("Submit after Close = %v, want ErrRuntimeClosed", err)
	}
	if err := rt.Run(ctx, spectre.FromSlice(nil)); !errors.Is(err, spectre.ErrRuntimeClosed) {
		t.Fatalf("Run after Close = %v, want ErrRuntimeClosed", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestRuntimeWithPartitionByField exercises the programmatic partition
// option on a payload field.
func TestRuntimeWithPartitionByField(t *testing.T) {
	reg := spectre.NewRegistry()
	accountIdx := reg.FieldIndex("account")
	valueIdx := reg.FieldIndex("value")
	ta := reg.TypeID("T")

	// Per-account pattern: two consecutive events with growing value.
	q, err := spectre.ParseQuery(`
		QUERY grow
		PATTERN (A B)
		DEFINE B AS B.value > A.value
		WITHIN 6 EVENTS FROM A
		CONSUME ALL
	`, reg)
	if err != nil {
		t.Fatal(err)
	}

	nAccounts := 10
	var events []spectre.Event
	mk := func(i int, account, value float64) spectre.Event {
		f := make([]float64, 2)
		f[accountIdx] = account
		f[valueIdx] = value
		return spectre.Event{TS: int64(i), Type: ta, Fields: f}
	}
	state := uint64(99)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < 2000; i++ {
		events = append(events, mk(i, float64(next()%uint64(nAccounts)), float64(next()%1000)))
	}

	nShards := 4
	router := shard.NewRouter(nShards, shard.ByField(accountIdx))
	want := make(map[string]int)
	for _, bucket := range router.Split(events) {
		out, _, err := spectre.RunSequential(q, bucket)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			want[out[i].Key()]++
		}
	}
	if len(want) == 0 {
		t.Fatal("reference produced no matches; test is vacuous")
	}

	ctx := context.Background()
	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got := make(map[string]int)
	h, err := rt.Submit(ctx, q, spectre.SinkFunc(func(ce spectre.ComplexEvent) { got[ce.Key()]++ }),
		spectre.WithPartitionBy("account"), spectre.WithShards(nShards))
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards() != nShards {
		t.Fatalf("shards = %d, want %d", h.Shards(), nShards)
	}
	// Feed the partitioned stream in batches: same result, one queue
	// handoff per (batch, shard).
	const batch = 100
	for lo := 0; lo < len(events); lo += batch {
		hi := min(lo+batch, len(events))
		if err := h.FeedBatch(ctx, events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	h.Drain()
	assertSameMultiset(t, "grow", got, want)
}

// TestRuntimeWithPartitionByType checks the programmatic type partition
// against the query-text one: the unpartitioned rise query submitted
// with WithPartitionByType must run shard for shard like the text's
// PARTITION BY TYPE, and each shard must deliver exactly the sequential
// engine's output over its partition substream.
func TestRuntimeWithPartitionByType(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{
		Symbols: 24, Leaders: 4, Minutes: 60, Seed: 9,
	})
	const nShards = 8
	unpartitioned := `
		QUERY rise
		PATTERN (X Y)
		DEFINE X AS X.close > X.open, Y AS Y.close > X.close
		WITHIN 40 EVENTS FROM X
		CONSUME ALL
	`
	router := shard.NewRouter(nShards, shard.ByType())
	want := make(map[string]int)
	wantShard := make([]uint64, nShards)
	for i, bucket := range router.Split(events) {
		q, err := spectre.ParseQuery(unpartitioned, reg)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := spectre.RunSequential(q, bucket)
		if err != nil {
			t.Fatal(err)
		}
		wantShard[i] = uint64(len(out))
		for j := range out {
			want[out[j].Key()]++
		}
	}
	if len(want) == 0 {
		t.Fatal("per-partition reference produced no matches; test is vacuous")
	}

	ctx := context.Background()
	run := func(src string, opts ...spectre.Option) (map[string]int, []spectre.Metrics) {
		q, err := spectre.ParseQuery(src, reg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := spectre.NewRuntime(reg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		got := make(map[string]int)
		h, err := rt.Submit(ctx, q, spectre.SinkFunc(func(ce spectre.ComplexEvent) { got[ce.Key()]++ }), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if h.Shards() != nShards {
			t.Fatalf("shards = %d, want %d", h.Shards(), nShards)
		}
		if err := h.FeedBatch(ctx, events); err != nil {
			t.Fatal(err)
		}
		h.Drain()
		return got, h.ShardMetrics()
	}
	gotOpt, shardsOpt := run(unpartitioned, spectre.WithPartitionByType(), spectre.WithShards(nShards))
	gotText, shardsText := run(riseQuerySrc)
	assertSameMultiset(t, "WithPartitionByType", gotOpt, want)
	assertSameMultiset(t, "PARTITION BY TYPE", gotText, want)
	for i := range wantShard {
		if shardsOpt[i].EventsIngested != shardsText[i].EventsIngested {
			t.Errorf("shard %d: %d events ingested under the option, %d under the text", i,
				shardsOpt[i].EventsIngested, shardsText[i].EventsIngested)
		}
		if shardsOpt[i].Matches != wantShard[i] || shardsText[i].Matches != wantShard[i] {
			t.Errorf("shard %d: %d matches under the option, %d under the text, sequential %d", i,
				shardsOpt[i].Matches, shardsText[i].Matches, wantShard[i])
		}
	}
}

// TestLiveMaxTreeSize checks that a running query reports its
// dependency-tree high-water mark before its stream ends, not only once
// it drains.
func TestLiveMaxTreeSize(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{
		Symbols: 16, Leaders: 3, Minutes: 60, Seed: 11,
	})
	q, err := spectre.ParseQuery(`
		QUERY rise
		PATTERN (X Y)
		DEFINE X AS X.close > X.open, Y AS Y.close > X.close
		WITHIN 40 EVENTS FROM X
		CONSUME ALL
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt, err := spectre.NewRuntime(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h, err := rt.Submit(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.FeedBatch(ctx, events); err != nil {
		t.Fatal(err)
	}
	// The handle stays open: the windows at the end of the stream cannot
	// close, so the query is live for as long as the loop polls.
	deadline := time.Now().Add(30 * time.Second)
	for m := h.Metrics(); m.MaxTreeSize == 0; m = h.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("live query reports MaxTreeSize 0 with %d windows opened", m.WindowsOpened)
		}
		time.Sleep(time.Millisecond)
	}
	h.Drain()
}

func assertSameMultiset(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: key %s: got %d, want %d\n%s", label, k, got[k], n, diffMultiset(got, want))
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Fatalf("%s: unexpected key %s (count %d)\n%s", label, k, n, diffMultiset(got, want))
		}
	}
}

func diffMultiset(got, want map[string]int) string {
	return fmt.Sprintf("got %d distinct keys, want %d", len(got), len(want))
}

func flatten(m map[string]int) []string {
	var out []string
	for k, n := range m {
		for i := 0; i < n; i++ {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestCloseRacesFeed: Close on one goroutine races a Feed loop on
// another, over eight shards whose unread tails are small enough that
// Feed often blocks. Every event Feed reported admitted is ingested (or
// filtered at admission), and none after ErrHandleClosed.
func TestCloseRacesFeed(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{Symbols: 24, Leaders: 4, Minutes: 400, Seed: 7})
	rt, err := spectre.NewRuntime(reg, spectre.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	raced := 0
	for round := 0; round < 20; round++ {
		q, err := spectre.ParseQuery(riseQuerySrc, reg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := rt.Submit(context.Background(), q, spectre.SinkFunc(func(spectre.ComplexEvent) {}), spectre.WithQueueCap(8))
		if err != nil {
			t.Fatal(err)
		}
		admitted := make(chan uint64, 1)
		go func() {
			n := uint64(0)
			for _, ev := range events {
				if h.Feed(context.Background(), ev) != nil {
					break
				}
				n++
			}
			for _, ev := range events[:8] {
				if h.Feed(context.Background(), ev) == nil {
					n++ // admitted after ErrHandleClosed
				}
			}
			admitted <- n
		}()
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		h.Close()
		n := <-admitted
		h.Wait()
		if m := h.Metrics(); m.EventsIngested+m.FilteredEvents != n {
			t.Fatalf("round %d: %d events ingested and %d filtered, %d admitted", round, m.EventsIngested, m.FilteredEvents, n)
		}
		if n < uint64(len(events)) {
			raced++
		}
	}
	if raced == 0 {
		t.Fatal("every Feed loop finished before Close; nothing raced")
	}
}
