package spectre

import (
	"fmt"

	"github.com/spectrecep/spectre/internal/core"
	"github.com/spectrecep/spectre/internal/sched"
)

// Scheduler selects the scheduling policy of an engine or a submitted
// query: how the pool of operator-instance slots and the lookahead
// horizon are sized at runtime. (Which window versions occupy the slots is
// always the paper's top-k walk under the completion model; see
// WithFixedProbability for the Figure 11 constant-probability baseline.)
// Obtain one from TopKScheduler or AdaptiveScheduler and install it with
// WithScheduler.
//
// Every policy sits above the engine's final validation gate: the
// delivered output is byte-identical to sequential processing under each
// of them. Policies change throughput, latency and resource usage —
// never results.
type Scheduler struct {
	cfg sched.Config
}

// String names the scheduler.
func (s Scheduler) String() string { return s.cfg.Kind.String() }

// TopKScheduler is the paper's scheduling policy (Fig. 7) and the
// default: a fixed pool of k slots (WithInstances) assigned to the k
// window versions with the highest survival probability under the
// learned completion model. The splitter looks ahead 4·k windows: once
// the oldest unfinished window has all its events, ingestion pauses
// when 4·k windows are open counted from it.
func TopKScheduler() Scheduler {
	return Scheduler{cfg: sched.Config{Kind: sched.TopK}}
}

// AdaptiveScheduler selects versions like TopKScheduler but resizes the
// effective slot count and the lookahead horizon at runtime from
// observed load: slot utilization, queue depth and the rollback rate.
// Idle slots are parked (their goroutines block; pool workers skip
// them); under overload or rollback storms the horizon is cut so the
// root chain gets the cycles, and it recovers once the shard is healthy
// and the lookahead presses against it. Bound the adaptation with
// WithAdaptiveInstances and WithAdaptiveSpeculation; without explicit
// bounds the slot pool adapts within [1, k] and the horizon within
// [k, 16·k] windows, where k is WithInstances.
func AdaptiveScheduler() Scheduler {
	return Scheduler{cfg: sched.Config{Kind: sched.Adaptive}}
}

// WithScheduler installs the scheduling policy on an Engine or a Runtime
// submission (default: TopKScheduler). Later scheduling options win:
// WithScheduler overrides the policy kind chosen by an earlier
// WithAdaptiveInstances/WithAdaptiveSpeculation while keeping their
// bounds, and vice versa.
func WithScheduler(s Scheduler) Option {
	return func(c *core.Config) {
		c.Sched.Kind = s.cfg.Kind
		c.SchedSet = true
	}
}

// WithAdaptiveInstances selects the adaptive scheduler and bounds its
// slot pool: the effective instance count k tracks observed load within
// [min, max], starting from WithInstances (clamped into the bounds).
// max is the hard ceiling — the pool never grows past it (nor past the
// machine's useful parallelism); idle slots park down to min.
func WithAdaptiveInstances(min, max int) Option {
	return func(c *core.Config) {
		if min <= 0 || max < min || max > maxOptionValue {
			c.SetError(fmt.Errorf("spectre: WithAdaptiveInstances(%d, %d): bounds must satisfy 1 <= min <= max <= %d", min, max, maxOptionValue))
			return
		}
		c.Sched.Kind = sched.Adaptive
		c.Sched.MinSlots, c.Sched.MaxSlots = min, max
		c.SchedSet = true
	}
}

// WithAdaptiveSpeculation selects the adaptive scheduler and bounds its
// lookahead horizon, in windows opened counted from the oldest
// unfinished window: the horizon is cut toward min under overload and
// rollback storms and recovers toward max while the shard is healthy.
// Windows opened while the oldest one still lacks events do not count
// against it.
func WithAdaptiveSpeculation(min, max int) Option {
	return func(c *core.Config) {
		if min <= 0 || max < min || max > maxOptionValue {
			c.SetError(fmt.Errorf("spectre: WithAdaptiveSpeculation(%d, %d): bounds must satisfy 1 <= min <= max <= %d", min, max, maxOptionValue))
			return
		}
		c.Sched.Kind = sched.Adaptive
		c.Sched.MinHorizon, c.Sched.MaxHorizon = min, max
		c.SchedSet = true
	}
}
