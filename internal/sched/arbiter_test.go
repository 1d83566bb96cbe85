package sched

import (
	"testing"
	"time"
)

func TestArbiterSplitsByWeight(t *testing.T) {
	a := NewArbiter(16)
	q1 := a.Register("heavy", 3, 0, 1)
	q2 := a.Register("light", 1, 0, 1)
	if got := q1.Shard(0).Procs(); got != 12 {
		t.Fatalf("weight-3 query granted %d of 16 procs, want 12", got)
	}
	if got := q2.Shard(0).Procs(); got != 4 {
		t.Fatalf("weight-1 query granted %d of 16 procs, want 4", got)
	}
}

func TestArbiterShardFloorOfOne(t *testing.T) {
	a := NewArbiter(2)
	q1 := a.Register("a", 1, 0, 4)
	a.Register("b", 1, 0, 4)
	for i := 0; i < 4; i++ {
		if got := q1.Shard(i).Procs(); got < 1 {
			t.Fatalf("shard %d granted %d procs, want the floor of 1", i, got)
		}
	}
}

func TestArbiterReleaseRedistributes(t *testing.T) {
	a := NewArbiter(8)
	q1 := a.Register("stays", 1, 0, 1)
	q2 := a.Register("leaves", 1, 0, 1)
	if got := q1.Shard(0).Procs(); got != 4 {
		t.Fatalf("pre-release grant %d, want 4", got)
	}
	q2.Release()
	q2.Release() // idempotent
	if got := a.Queries(); got != 1 {
		t.Fatalf("%d queries registered after release, want 1", got)
	}
	if got := q1.Shard(0).Procs(); got != 8 {
		t.Fatalf("post-release grant %d, want the whole pool of 8", got)
	}
}

func TestArbiterDemandSkewsShardGrants(t *testing.T) {
	a := NewArbiter(8)
	q := a.Register("skewed", 1, 0, 2)
	// Reports recompute every reportsPerRecompute calls; drive past it.
	for i := 0; i < reportsPerRecompute; i++ {
		q.Shard(0).Report(6, 0)
		q.Shard(1).Report(2, 0)
	}
	p0, p1 := q.Shard(0).Procs(), q.Shard(1).Procs()
	if p0 <= p1 {
		t.Fatalf("demand-6 shard granted %d, demand-2 shard %d: want the busy shard ahead", p0, p1)
	}
	if p0+p1 > 8+1 {
		t.Fatalf("grants %d+%d exceed the pool beyond the min-1 allowance", p0, p1)
	}
}

func TestArbiterSLOBoost(t *testing.T) {
	a := NewArbiter(16)
	missing := a.Register("missing", 1, 10*time.Millisecond, 1)
	meeting := a.Register("meeting", 1, 10*time.Millisecond, 1)
	for i := 0; i < reportsPerRecompute; i++ {
		missing.Shard(0).Report(1, 0.05) // 5x over a 10ms target → boost clamped at 4
		meeting.Shard(0).Report(1, 0.001)
	}
	pm, pk := missing.Shard(0).Procs(), meeting.Shard(0).Procs()
	if pm <= pk {
		t.Fatalf("SLO-missing query granted %d vs %d: want the boost to pull procs", pm, pk)
	}
	// boost 4 vs 1 → 16·4/5 = 12.8 vs 16/5 = 3.2.
	if pm < 12 || pk > 4 {
		t.Fatalf("grants %d/%d, want ~13/3 under a clamped 4x boost", pm, pk)
	}
}

func TestArbiterRegisterDefaults(t *testing.T) {
	a := NewArbiter(0) // GOMAXPROCS fallback
	q := a.Register("q", -5, 0, 0)
	if q.weight != 1 {
		t.Fatalf("non-positive weight normalized to %v, want 1", q.weight)
	}
	if len(q.shards) != 1 {
		t.Fatalf("%d shards for a 0-shard registration, want 1", len(q.shards))
	}
	if q.Shard(3) != nil || q.Shard(-1) != nil {
		t.Fatal("out-of-range Shard() must return nil")
	}
}

func TestAdaptiveRespectsArbiterCeiling(t *testing.T) {
	// Two queries at 1:3 weight on 8 procs: the adaptive query's real
	// grant is 2, and it stays 2 across the recomputes its own Report
	// calls trigger.
	a := NewArbiter(8)
	q := a.Register("q", 1, 0, 1)
	a.Register("heavy", 3, 0, 1)
	ctl := q.Shard(0)
	if got := ctl.Procs(); got != 2 {
		t.Fatalf("setup: granted %d procs, want 2", got)
	}

	cfg := Config{Kind: Adaptive, MaxSlots: 8, AdjustEvery: 1, Procs: 16, Ctl: ctl}
	p := cfg.New(4).(*adaptive)
	// Saturated + pressured signals that would normally grow to 8.
	for i := 0; i < 64; i++ {
		p.Tune(Signals{SlotsActive: p.slots, SlotsBusy: p.slots, Selected: p.slots, QueueDepth: 100, QueueCap: 1000, TreeSize: 50})
	}
	if p.slots > 2 {
		t.Fatalf("slots grew to %d past the arbiter grant of 2", p.slots)
	}
}

func TestAdaptiveLatencyTargetCutsSpeculation(t *testing.T) {
	cfg := Config{Kind: Adaptive, MaxSlots: 4, AdjustEvery: 1, Procs: 4, MinHorizon: 2, LatencyTarget: 10 * time.Millisecond}
	p := cfg.New(4).(*adaptive)
	before := p.horizon
	p.Tune(Signals{SlotsActive: 4, SlotsBusy: 4, Selected: 4, EmitLagP99: 0.5})
	if p.horizon >= before {
		t.Fatalf("horizon %d -> %d windows under a blown latency SLO, want a cut", before, p.horizon)
	}
}

func TestAdaptiveReportsToArbiter(t *testing.T) {
	a := NewArbiter(8)
	q := a.Register("q", 1, 0, 1)
	ctl := q.Shard(0)
	cfg := Config{Kind: Adaptive, MaxSlots: 4, AdjustEvery: 1, Procs: 8, Ctl: ctl}
	p := cfg.New(2).(*adaptive)
	p.Tune(Signals{SlotsActive: 2, SlotsBusy: 2, Selected: 2, EmitLagP99: 0.25})
	if got := ctl.reports.Load(); got == 0 {
		t.Fatal("adaptive adjust did not report to its ShardCtl")
	}
}
