package sched

// Adaptation thresholds. Utilization is the EWMA fraction of active
// slots holding an assignment; demand is the EWMA of how many versions
// the top-k walk actually handed out.
const (
	// ewmaAlpha is the per-cycle smoothing weight of the observed
	// signals. Cycles are microseconds apart, so a small weight still
	// adapts within a fraction of a millisecond of wall time.
	ewmaAlpha = 0.05
	// growUtil: above this utilization with saturated demand the pool
	// grows.
	growUtil = 0.85
	// shrinkUtil: below this utilization the pool shrinks toward demand.
	shrinkUtil = 0.5
	// overloadFrac: a queue beyond this fraction of its capacity is
	// overload — degrade gracefully by cutting the lookahead horizon so
	// the root chain (the only thing that drains the queue) gets the
	// cycles.
	overloadNum, overloadDen = 3, 4
	// rollStormDen: more than AdjustEvery/rollStormDen rollbacks within
	// one adaptation period means speculation is mostly being wasted.
	rollStormDen = 8
)

// adaptive resizes the effective slot count and the lookahead horizon
// per adaptation period. The slot count tracks demand (how many eligible
// versions there are) and utilization, bounded by [MinSlots, MaxSlots]
// and by the machine's actual parallelism; the horizon shrinks
// multiplicatively on rollback storms and queue overload and recovers
// multiplicatively while the lookahead presses against it.
type adaptive struct {
	cfg       Config
	slots     int
	horizon   int
	lagTarget float64 // latency SLO in seconds; 0 = none

	cycle         int
	utilEWMA      float64
	demandEWMA    float64
	lastRollbacks uint64
}

func newAdaptive(cfg Config, start Decision) *adaptive {
	return &adaptive{
		cfg:        cfg,
		slots:      start.Slots,
		horizon:    start.Horizon,
		lagTarget:  cfg.LatencyTarget.Seconds(),
		utilEWMA:   1,
		demandEWMA: float64(start.Slots),
	}
}

func (a *adaptive) Tune(sig Signals) Decision {
	a.observe(sig)
	a.cycle++
	if a.cycle >= a.cfg.AdjustEvery {
		a.cycle = 0
		a.adjust(sig)
	}
	return Decision{Slots: a.slots, Horizon: a.horizon}
}

func (a *adaptive) observe(sig Signals) {
	util := 0.0
	if sig.SlotsActive > 0 {
		util = float64(sig.SlotsBusy) / float64(sig.SlotsActive)
	}
	a.utilEWMA += ewmaAlpha * (util - a.utilEWMA)
	a.demandEWMA += ewmaAlpha * (float64(sig.Selected) - a.demandEWMA)
}

func (a *adaptive) adjust(sig Signals) {
	// Degree of parallelism: more slots only help while there are both
	// eligible versions to fill them and CPUs to run them. On a shared
	// runtime the arbiter's per-shard grant replaces the whole-machine
	// Procs ceiling, so co-located queries split the processors.
	procs := a.cfg.Procs
	if a.cfg.Ctl != nil {
		if granted := a.cfg.Ctl.Procs(); granted > 0 {
			procs = granted
		}
	}
	hi := a.cfg.MaxSlots
	if procs < hi {
		hi = procs
	}
	if hi < a.cfg.MinSlots {
		hi = a.cfg.MinSlots
	}
	// The demand EWMA approaches the slot count asymptotically from
	// below when every slot is handed out each cycle; half a slot of
	// tolerance reads that as saturation.
	saturated := a.utilEWMA > growUtil && a.demandEWMA+0.5 >= float64(a.slots)
	pressured := sig.QueueDepth > 0 || sig.TreeSize > a.slots
	switch {
	case saturated && pressured && a.slots < hi:
		grown := a.slots * 2
		if grown > hi {
			grown = hi
		}
		a.slots = grown
	case a.utilEWMA < shrinkUtil || a.slots > hi:
		// Shrink toward observed demand, one halving at a time; idle
		// slots park and stop costing wake-ups.
		target := int(a.demandEWMA + 0.999)
		shrunk := (a.slots + 1) / 2
		if shrunk < target {
			shrunk = target
		}
		a.slots = clamp(shrunk, a.cfg.MinSlots, hi)
	}

	// Lookahead horizon: wasted speculation (rollback storms) and queue
	// overload both mean the tree is burning cycles the root chain
	// needs; degrade it multiplicatively and recover it multiplicatively
	// once the lookahead presses against the horizon again while healthy.
	rolls := sig.Rollbacks - a.lastRollbacks
	a.lastRollbacks = sig.Rollbacks
	overloaded := sig.QueueCap > 0 && sig.QueueDepth*overloadDen > sig.QueueCap*overloadNum
	storm := int(rolls)*rollStormDen > a.cfg.AdjustEvery
	// A missed latency SLO is the same disease as queue overload: the
	// root chain is starved, so speculation must yield.
	lagOver := a.lagTarget > 0 && sig.EmitLagP99 > a.lagTarget
	switch {
	case storm || overloaded || lagOver:
		a.horizon /= 2
	case sig.Lookahead*4 >= a.horizon*3:
		a.horizon *= 2
	}
	a.horizon = clamp(a.horizon, a.cfg.MinHorizon, a.cfg.MaxHorizon)

	if a.cfg.Ctl != nil {
		a.cfg.Ctl.Report(a.demandEWMA, sig.EmitLagP99)
	}
}
