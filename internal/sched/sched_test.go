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
	p := Config{Kind: TopK}.New(4, 256)
	want := Decision{Slots: 4, Spec: 256}
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
	p := cfg.New(8, 256)
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
	p := cfg.New(1, 256)
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
	p := cfg.New(8, 256)
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
	cfg := Config{Kind: Adaptive, MinSlots: 1, MaxSlots: 4, MinSpec: 16, MaxSpec: 256, AdjustEvery: 8, Procs: 4}
	p := cfg.New(4, 256).(*adaptive)
	sig := Signals{SlotsActive: 4, SlotsBusy: 4, Selected: 4, TreeSize: 8}
	for i := 0; i < 2000; i++ {
		sig.Rollbacks += 4 // 4 rollbacks per cycle: a storm by any measure
		p.Tune(sig)
	}
	if d := p.Tune(sig); d.Spec != 16 {
		t.Fatalf("speculation budget under a rollback storm is %d, want floor 16", d.Spec)
	}
}

func TestAdaptiveDegradesSpeculationOnOverloadAndRecovers(t *testing.T) {
	cfg := Config{Kind: Adaptive, MinSlots: 1, MaxSlots: 4, MinSpec: 16, MaxSpec: 256, AdjustEvery: 8, Procs: 4}
	p := cfg.New(4, 256).(*adaptive)
	overload := Signals{SlotsActive: 4, SlotsBusy: 4, Selected: 4, QueueDepth: 1000, QueueCap: 1024, TreeSize: 8}
	if d := tuneN(p, overload, 2000); d.Spec != 16 {
		t.Fatalf("speculation budget under overload is %d, want floor 16", d.Spec)
	}
	// Healthy again, tree pressing against the budget: recover to the
	// ceiling.
	healthy := Signals{SlotsActive: 4, SlotsBusy: 4, Selected: 4, QueueDepth: 0, QueueCap: 1024, TreeSize: 300}
	if d := tuneN(p, healthy, 2000); d.Spec != 256 {
		t.Fatalf("recovered speculation budget is %d, want ceiling 256", d.Spec)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{Kind: Adaptive}.normalized(4, 256)
	if c.MinSlots != 1 || c.MaxSlots != 4 {
		t.Fatalf("slot bounds [%d, %d], want [1, 4]", c.MinSlots, c.MaxSlots)
	}
	if c.MinSpec != 32 || c.MaxSpec != 256 {
		t.Fatalf("spec bounds [%d, %d], want [32, 256]", c.MinSpec, c.MaxSpec)
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
	if got := (Config{Kind: Adaptive, MinSlots: 2, MaxSlots: 3}).InitialSlots(8); got != 3 {
		t.Fatalf("initial slots %d, want clamp to 3", got)
	}

	// The configured MaxSpeculation is the hard ceiling: adaptive bounds
	// beyond it are clamped down.
	c = Config{Kind: Adaptive, MinSpec: 16, MaxSpec: 4096}.normalized(4, 64)
	if c.MaxSpec != 64 {
		t.Fatalf("MaxSpec %d exceeds the configured hard ceiling 64", c.MaxSpec)
	}
	c = Config{Kind: Adaptive, MinSpec: 128, MaxSpec: 4096}.normalized(4, 64)
	if c.MaxSpec != 64 || c.MinSpec != 64 {
		t.Fatalf("bounds [%d, %d] not clamped to the 64 ceiling", c.MinSpec, c.MaxSpec)
	}
}
