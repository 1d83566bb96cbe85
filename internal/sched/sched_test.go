package sched

import "testing"

// tuneN feeds n identical signal cycles and returns the last decision.
func tuneN(p Policy, sig Signals, n int) Decision {
	var d Decision
	for i := 0; i < n; i++ {
		d = p.Tune(sig)
	}
	return d
}

func TestStaticPolicyIsConstant(t *testing.T) {
	p := Config{Kind: TopK}.New(4)
	want := Decision{Slots: 4, Horizon: 16}
	for _, sig := range []Signals{
		{},
		{SlotsActive: 4, SlotsBusy: 4, Selected: 4, QueueDepth: 1 << 20, QueueCap: 1, TreeSize: 1 << 20, Rollbacks: 1 << 30},
	} {
		if got := tuneN(p, sig, 500); got != want {
			t.Fatalf("decision %+v, want %+v", got, want)
		}
	}
}

func TestAdaptiveShrinksWhenIdle(t *testing.T) {
	cfg := Config{Kind: Adaptive, MinSlots: 1, MaxSlots: 8, AdjustEvery: 8, Procs: 8}
	p := cfg.New(8)
	// Nothing eligible, nothing busy: the pool must park down to the
	// floor.
	idle := Signals{SlotsActive: 8, SlotsBusy: 0, Selected: 0}
	d := tuneN(p, idle, 2000)
	if d.Slots != 1 {
		t.Fatalf("idle pool kept %d slots, want 1", d.Slots)
	}
}

func TestAdaptiveGrowsUnderPressure(t *testing.T) {
	cfg := Config{Kind: Adaptive, MinSlots: 1, MaxSlots: 8, AdjustEvery: 8, Procs: 8}
	p := cfg.New(1)
	// Closed loop: a saturated shard fills however many slots it gets.
	sig := Signals{QueueDepth: 100, QueueCap: 1 << 16, TreeSize: 64}
	var d Decision
	for i := 0; i < 2000; i++ {
		d = p.Tune(sig)
		sig.SlotsActive, sig.SlotsBusy, sig.Selected = d.Slots, d.Slots, d.Slots
	}
	if d.Slots != 8 {
		t.Fatalf("pressured pool grew to %d slots, want 8", d.Slots)
	}
}

func TestAdaptiveRespectsProcsCeiling(t *testing.T) {
	cfg := Config{Kind: Adaptive, MinSlots: 1, MaxSlots: 16, AdjustEvery: 8, Procs: 2}
	p := cfg.New(8)
	sig := Signals{QueueDepth: 100, QueueCap: 1 << 16, TreeSize: 64}
	var d Decision
	for i := 0; i < 2000; i++ {
		d = p.Tune(sig)
		sig.SlotsActive, sig.SlotsBusy, sig.Selected = d.Slots, d.Slots, d.Slots
	}
	if d.Slots != 2 {
		t.Fatalf("pool on a 2-proc machine settled at %d slots, want 2", d.Slots)
	}
}

func TestAdaptiveDegradesSpeculationOnRollbackStorm(t *testing.T) {
	cfg := Config{Kind: Adaptive, MinSlots: 1, MaxSlots: 4, MinHorizon: 2, MaxHorizon: 64, AdjustEvery: 8, Procs: 4}
	p := cfg.New(4).(*adaptive)
	sig := Signals{SlotsActive: 4, SlotsBusy: 4, Selected: 4, TreeSize: 8, Lookahead: 16}
	for i := 0; i < 2000; i++ {
		sig.Rollbacks += 4 // 4 rollbacks per cycle: a storm by any measure
		p.Tune(sig)
	}
	if d := p.Tune(sig); d.Horizon != 2 {
		t.Fatalf("horizon under a rollback storm is %d windows, want floor 2", d.Horizon)
	}
}

func TestAdaptiveDegradesSpeculationOnOverloadAndRecovers(t *testing.T) {
	cfg := Config{Kind: Adaptive, MinSlots: 1, MaxSlots: 4, MinHorizon: 2, MaxHorizon: 64, AdjustEvery: 8, Procs: 4}
	p := cfg.New(4).(*adaptive)
	overload := Signals{SlotsActive: 4, SlotsBusy: 4, Selected: 4, QueueDepth: 1000, QueueCap: 1024, TreeSize: 8, Lookahead: 16}
	if d := tuneN(p, overload, 2000); d.Horizon != 2 {
		t.Fatalf("horizon under overload is %d windows, want floor 2", d.Horizon)
	}
	// Healthy again, but the lookahead falls short of the horizon: it
	// stays where overload left it.
	idle := Signals{SlotsActive: 4, SlotsBusy: 4, Selected: 4, QueueDepth: 0, QueueCap: 1024, TreeSize: 8, Lookahead: 1}
	if d := tuneN(p, idle, 2000); d.Horizon != 2 {
		t.Fatalf("horizon grew to %d windows with nothing pressing against it", d.Horizon)
	}
	// Healthy again, lookahead pressing against the horizon: recover to
	// the ceiling.
	healthy := Signals{SlotsActive: 4, SlotsBusy: 4, Selected: 4, QueueDepth: 0, QueueCap: 1024, TreeSize: 300, Lookahead: 64}
	if d := tuneN(p, healthy, 2000); d.Horizon != 64 {
		t.Fatalf("recovered horizon is %d windows, want ceiling 64", d.Horizon)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{Kind: Adaptive}.normalized(4)
	if c.MinSlots != 1 || c.MaxSlots != 4 {
		t.Fatalf("slot bounds [%d, %d], want [1, 4]", c.MinSlots, c.MaxSlots)
	}
	if c.MinHorizon != 4 || c.MaxHorizon != 64 {
		t.Fatalf("horizon bounds [%d, %d], want [k, 16k] = [4, 64]", c.MinHorizon, c.MaxHorizon)
	}
	if c.AdjustEvery != 64 || c.Procs <= 0 {
		t.Fatalf("cadence %d / procs %d not defaulted", c.AdjustEvery, c.Procs)
	}

	if got := (Config{Kind: Adaptive, MaxSlots: 16}).SlotCeiling(4); got != 16 {
		t.Fatalf("adaptive ceiling %d, want 16", got)
	}
	if got := (Config{Kind: TopK, MaxSlots: 16}).SlotCeiling(4); got != 16 {
		t.Fatalf("static ceiling %d, want 16 (custom factories grow past k)", got)
	}
	if got := (Config{Kind: TopK}).SlotCeiling(4); got != 4 {
		t.Fatalf("default ceiling %d, want 4", got)
	}
	if got := (Config{Kind: Adaptive, MinSlots: 2, MaxSlots: 3}).Initial(8); got.Slots != 3 {
		t.Fatalf("initial slots %d, want clamp to 3", got.Slots)
	}

	// The static policy looks 4·k windows ahead; the adaptive one starts
	// there, clamped into its bounds.
	if got := (Config{}).Initial(3); got != (Decision{Slots: 3, Horizon: 12}) {
		t.Fatalf("static initial decision %+v, want {3 12}", got)
	}
	if got := (Config{Kind: Adaptive, MaxHorizon: 5}).Initial(4); got.Horizon != 5 {
		t.Fatalf("adaptive initial horizon %d, want clamp to 5", got.Horizon)
	}
	// A ceiling below the floor lifts the ceiling, never the other way.
	c = Config{Kind: Adaptive, MinHorizon: 128, MaxHorizon: 8}.normalized(4)
	if c.MinHorizon != 128 || c.MaxHorizon != 128 {
		t.Fatalf("bounds [%d, %d], want [128, 128]", c.MinHorizon, c.MaxHorizon)
	}
}
