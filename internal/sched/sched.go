// Package sched is the scheduling control plane of the SPECTRE runtime:
// it decides, once per splitter maintenance cycle, how many operator-
// instance slots run and how far the splitter may look ahead: the
// lookahead horizon, in windows opened counted from the root window.
//
// The paper freezes k at submission time (the Instances parameter) and
// its splitter sees events at line rate, so it never opens more windows
// than the k instances can use. Who gets the slots is not a policy here
// either: the splitter always runs the top-k walk of Fig. 7
// (deptree.Tree.TopK) under its completion predictor, and the Fig. 11
// constant-probability baseline is a predictor (markov.Fixed). A Policy
// only sizes: TopK keeps k slots and a horizon of 4·k windows, Adaptive
// resizes the effective slot count and the horizon at runtime from
// observed load — slot utilization, rollback rate and shard-queue depth —
// following the adaptive-parallelization-degree argument of Xiao &
// Aritsugi and the graceful-degradation-under-overload argument of
// eSPICE.
//
// Every policy sits strictly above the §4.2 validation gate: it chooses
// with how much parallelism to work, never what is emitted. The delivered
// output is byte-identical for every policy.
package sched

import (
	"runtime"
	"time"
)

// Signals summarizes one maintenance cycle's observations for Tune.
// Counter fields are cumulative over the run; gauges are instantaneous.
type Signals struct {
	// SlotsActive is the current effective slot-pool size.
	SlotsActive int
	// SlotsBusy counts active slots that currently hold an assignment.
	SlotsBusy int
	// Selected is how many versions the previous cycle's top-k walk
	// handed out. Selected == SlotsActive means demand is at least the
	// pool size.
	Selected int
	// QueueDepth is the shard intake queue's pending backlog.
	QueueDepth int
	// QueueCap is the intake queue's capacity.
	QueueCap int
	// TreeSize is the number of window versions in the dependency tree.
	TreeSize int
	// Lookahead is the number of windows opened counted from the root
	// window (the root included): the quantity the horizon bounds once
	// the root window has all its events.
	Lookahead int
	// Rollbacks is the shard's cumulative rollback counter.
	Rollbacks uint64
	// EmitLagP99 is the shard's p99 root-emission latency estimate in
	// seconds: the time from an event's ingestion to the root window
	// version that covers it being finalized. Zero until the first root
	// pops.
	EmitLagP99 float64
}

// Decision is a policy's control output for the next cycle: the slot-pool
// size to run with and the lookahead horizon. The engine clamps Slots to
// [1, ceiling] and parks the slots beyond it, and clamps Horizon to at
// least 1.
type Decision struct {
	Slots int
	// Horizon bounds ingestion: once the root window has all its events,
	// the splitter stops right after the event that brings the number of
	// windows opened, counted from the root window, to Horizon. The rest
	// of the stream waits in the shard queue, where it costs no window
	// versions. Windows opened while the root still lacks events do not
	// count against it (liveness).
	Horizon int
}

// Policy decides control-plane sizing for one shard. A Policy instance is
// owned by its shard's splitter: calls are single-threaded, but
// implementations may keep mutable state.
type Policy interface {
	// Tune observes one cycle's signals and returns the sizing decision
	// for the next cycle. Static policies return a constant.
	Tune(sig Signals) Decision
}

// Kind enumerates the built-in policies.
type Kind int

const (
	// TopK is the paper's Fig. 7 behavior: a fixed pool of k slots
	// assigned to the k most probable window versions under the learned
	// completion model.
	TopK Kind = iota
	// Adaptive is top-k selection under the learned model, with the
	// effective slot count and the lookahead horizon resized at runtime
	// from observed load.
	Adaptive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case TopK:
		return "topk"
	case Adaptive:
		return "adaptive"
	}
	return "unknown"
}

// Config selects and parameterizes a policy. The zero value is the
// static TopK policy. One Config is shared by every shard of a query;
// each shard materializes its own Policy instance with New.
type Config struct {
	// Kind selects the policy.
	Kind Kind
	// MinSlots/MaxSlots bound the Adaptive slot pool. Unset (0) values
	// default to 1 and the configured instance count respectively.
	// MaxSlots also raises the engine's slot-pool ceiling above the
	// instance count, so an adaptive query can grow past its initial k.
	MinSlots, MaxSlots int
	// MinHorizon/MaxHorizon bound the Adaptive lookahead horizon, in
	// windows. Unset values default to k and 16·k respectively.
	MinHorizon, MaxHorizon int
	// AdjustEvery is the adaptation cadence in scheduling cycles
	// (default 64). Only Adaptive uses it.
	AdjustEvery int
	// Procs caps useful slot growth at the machine's actual parallelism
	// (default GOMAXPROCS): slots beyond runnable CPUs only add
	// scheduling overhead. Tests pin it for determinism.
	Procs int
	// LatencyTarget is the query's root-emission latency SLO (0 = none).
	// Adaptive treats a p99 emission lag beyond the target like queue
	// overload (cut the horizon), and the admission arbiter boosts the
	// query's processor share while the SLO is missed.
	LatencyTarget time.Duration
	// Ctl is the shard's admission-arbiter handle on a shared runtime
	// (nil when the query is not arbitrated). When set, Adaptive uses
	// the granted processor budget instead of Procs as the parallelism
	// ceiling and reports demand and emission lag back each period.
	Ctl *ShardCtl
}

// horizonPerSlot is the static policy's lookahead: windows opened counted
// from a complete root window, per operator slot.
const horizonPerSlot = 4

// normalized fills Config defaults given the configured fixed instance
// count k.
func (c Config) normalized(k int) Config {
	if c.MinSlots <= 0 {
		c.MinSlots = 1
	}
	if c.MaxSlots <= 0 {
		c.MaxSlots = k
	}
	if c.MaxSlots < c.MinSlots {
		c.MaxSlots = c.MinSlots
	}
	if c.MinHorizon <= 0 {
		c.MinHorizon = k
	}
	if c.MaxHorizon <= 0 {
		c.MaxHorizon = 16 * k
	}
	if c.MaxHorizon < c.MinHorizon {
		c.MaxHorizon = c.MinHorizon
	}
	if c.AdjustEvery <= 0 {
		c.AdjustEvery = 64
	}
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0)
	}
	return c
}

// SlotCeiling returns the slot-pool capacity a shard must allocate for
// this config: the fixed instance count, or MaxSlots if it is larger
// (adaptive queries and custom policy factories grow past their initial
// k up to this ceiling).
func (c Config) SlotCeiling(k int) int {
	if c.MaxSlots > k {
		return c.MaxSlots
	}
	return k
}

// Initial returns the decision a shard starts with: the fixed instance
// count k and a horizon of 4·k windows, clamped into the adaptive bounds
// when adapting.
func (c Config) Initial(k int) Decision {
	d := Decision{Slots: k, Horizon: horizonPerSlot * k}
	if c.Kind == Adaptive {
		n := c.normalized(k)
		d.Slots = clamp(d.Slots, n.MinSlots, n.MaxSlots)
		d.Horizon = clamp(d.Horizon, n.MinHorizon, n.MaxHorizon)
	}
	return d
}

// New builds a fresh Policy instance for one shard. k is the configured
// instance count; the static policy pins its Decision to Initial(k),
// Adaptive starts there and uses k to fill unset bounds.
func (c Config) New(k int) Policy {
	switch c.Kind {
	case Adaptive:
		return newAdaptive(c.normalized(k), c.Initial(k))
	default:
		return &topK{dec: c.Initial(k)}
	}
}

// topK is the paper's fixed sizing (Fig. 7): k slots and a horizon of
// 4·k windows, whatever the load.
type topK struct {
	dec Decision
}

func (p *topK) Tune(Signals) Decision { return p.dec }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
