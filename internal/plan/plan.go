// Package plan is the cost-based query planner of the SPECTRE runtime.
// It sits between query.Build() and engine/runtime submission and makes
// the hot path do strictly less work per event, without touching the
// §4.2 correctness argument: every optimization below either drops
// events that provably cannot influence any match, or reorders pure
// conjuncts of one step's predicate.
//
// Three cooperating optimizations:
//
//  1. Type-indexed intake filtering. Each query accepts a closed set of
//     event types (union of the step type filters and the window start
//     filter). Where legal (see Plan.IntakeActive), the runtime tests
//     incoming events against a dense type bitmap — plus any hoisted
//     binding-free guards — at Feed/FeedBatch time and drops irrelevant
//     events before they touch the arena or matchers.
//     Dropped events still advance the per-shard sequence numbering
//     (events are stamped with their raw-substream position), so window
//     extents and match output are byte-identical to unplanned runs.
//
//  2. Selectivity-ordered predicate evaluation. A step's conjunctive
//     predicate (recorded by the query builder as pattern.Conjuncts) is
//     split into binding-free and binding-dependent classes. The
//     binding-free class always evaluates first; within each class,
//     conjuncts are reordered by observed pass rate (EWMA, sampled from
//     live traffic) so the most selective conjunct short-circuits the
//     rest. Reordering is legal because conjunct predicates are pure.
//
//  3. Plan-driven configuration. When the submitter pinned none, the
//     public runtime picks the shard count from the plan's estimated
//     per-event cost (see Estimate).
//
// A Plan is an explicit, inspectable value: Explain returns a
// human-readable rendering and Info a JSON-serializable one, exposed by
// spectre-server at /debug/spectre/metrics.
package plan

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/stats"
)

const (
	// sampleMask picks which events contribute to pass-rate statistics:
	// seq&sampleMask == 0, i.e. 1 in 64.
	sampleMask = 63
	// replanEvery is how many sampled evaluations trigger a reorder
	// check. Must be a power of two.
	replanEvery = 1024
	// minSamples is the least sampled evaluations a conjunct needs in a
	// cycle before its observed rate updates the EWMA.
	minSamples = 32
	// hysteresis is the pass-rate improvement a new order must show at
	// some position before it replaces the current one; prevents
	// oscillation between near-equal orders.
	hysteresis = 0.05
	// ewmaAlpha smooths observed pass rates across replan cycles.
	ewmaAlpha = 0.2
)

// Options parameterizes New.
type Options struct {
	// Reg resolves type ids to names in Explain/Info output. Optional.
	Reg *event.Registry
}

// Plan is the compiled evaluation plan of one query. Admit and
// RelevantType are safe for concurrent use; the deployment setters are
// called once during submission, before the plan is published.
type Plan struct {
	query *pattern.Query // planned deep copy; execution compiles this

	intake       bool
	intakeReason string // why intake filtering is off, when it is
	matcherOK    bool   // every step typed: matcher-level skip is legal
	relevant     []uint64
	admit        []admitStep
	steps        []*stepPlan // parallel to FlatSteps; nil when unprogrammed

	est Estimate
	reg *event.Registry

	// Deployment facts, recorded by the submitter for Explain/Info.
	shards    int
	autoShard bool

	filtered atomic.Uint64 // events dropped by the intake prefilter
}

// admitStep is the intake-time test derived from one step: the event is
// relevant to the step when its type passes the filter and every
// binding-free conjunct accepts it.
type admitStep struct {
	types []event.Type // empty = any type
	free  []pattern.Predicate
}

func (s *admitStep) accepts(ev *event.Event) bool {
	if len(s.types) > 0 {
		ok := false
		for _, t := range s.types {
			if t == ev.Type {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, p := range s.free {
		if !p(ev, nil) {
			return false
		}
	}
	return true
}

// New plans q. The query must already be validated (pattern.Query
// Validate normalizes quantifiers and completion behaviour); q itself is
// never mutated — the plan owns a deep copy with rewritten predicates.
func New(q *pattern.Query, opts Options) *Plan {
	p := &Plan{query: cloneQuery(q), reg: opts.Reg, est: EstimateQuery(q)}
	p.analyze()
	p.program()
	return p
}

// analyze computes the type closure and the intake/matcher filter
// legality from the planned query.
func (p *Plan) analyze() {
	flats := p.query.Pattern.FlatSteps()
	p.matcherOK = true
	var maxType event.Type
	addType := func(t event.Type) {
		if t > maxType {
			maxType = t
		}
	}
	vacuous := ""
	for _, fs := range flats {
		st := fs.Step
		var free []pattern.Predicate
		for _, c := range st.Conjuncts {
			if c.BindingFree {
				free = append(free, c.Pred)
			}
		}
		if len(st.Types) == 0 {
			p.matcherOK = false
			if len(free) == 0 && vacuous == "" {
				vacuous = st.Name
			}
		}
		for _, t := range st.Types {
			addType(t)
		}
		p.admit = append(p.admit, admitStep{types: st.Types, free: free})
	}
	for _, t := range p.query.Window.StartTypes {
		addType(t)
	}
	if p.matcherOK {
		p.relevant = make([]uint64, int(maxType)/64+1)
		for _, fs := range flats {
			for _, t := range fs.Step.Types {
				p.relevant[int(t)/64] |= 1 << (uint(t) % 64)
			}
		}
		for _, t := range p.query.Window.StartTypes {
			p.relevant[int(t)/64] |= 1 << (uint(t) % 64)
		}
	}

	// Intake filtering drops events before window formation, so it is
	// legal only when dropped events can neither open windows
	// (StartOnMatch keeps every window-opening event via the start
	// filter, which the admit test subsumes) nor shift count-based
	// slides (StartEvery anchors windows at raw stream positions of
	// arbitrary events). A step that accepts any type with no
	// binding-free guard makes the admit test vacuous — every event is
	// relevant — so filtering is pointless and stays off.
	switch {
	case p.query.Window.StartKind != pattern.StartOnMatch:
		p.intakeReason = "window slides over every event (FROM EVERY)"
	case vacuous != "":
		p.intakeReason = fmt.Sprintf("step %q accepts any event (no type filter, no binding-free guard)", vacuous)
	default:
		p.intake = true
	}
}

// program installs selectivity-ordered predicate programs on every step
// with at least two conjuncts.
func (p *Plan) program() {
	flats := p.query.Pattern.FlatSteps()
	p.steps = make([]*stepPlan, len(flats))
	for i, fs := range flats {
		st := fs.Step
		if st.Pred == nil || len(st.Conjuncts) < 2 {
			continue
		}
		sp := newStepPlan(st.Name, st.Conjuncts)
		st.Pred = sp.predicate
		p.steps[i] = sp
	}
}

// Query returns the planned query: a deep copy of the input with
// predicate programs installed. Compile and execute this one.
func (p *Plan) Query() *pattern.Query { return p.query }

// IntakeActive reports whether the type-indexed intake prefilter is
// legal and non-vacuous for this query. When true, events failing Admit
// may be dropped at Feed time — provided sequence stamping preserves
// their raw-substream positions.
func (p *Plan) IntakeActive() bool { return p.intake }

// Admit reports whether ev can influence any match of the query: it is
// relevant to at least one step (type filter plus binding-free guards)
// or opens a window. Call only when IntakeActive.
func (p *Plan) Admit(ev *event.Event) bool {
	for i := range p.admit {
		if p.admit[i].accepts(ev) {
			return true
		}
	}
	// The start filter derives from the FROM step's predicate, so this
	// is provably redundant with the step loop above; kept as a safety
	// net because window formation is the one thing a dropped event
	// must never change.
	return p.query.Window.StartMatches(ev)
}

// Projection returns the sorted union of payload field indexes any step
// predicate (or the window start predicate) of the planned query can
// read, and whether that set is exhaustively known. When ok is true, an
// event stripped to exactly these fields (absent fields reading 0, as
// Event.Field defines) is indistinguishable from the original to every
// predicate the query evaluates — so a distributed transport may ship
// only those fields. ok is false when any predicated step carries a
// conjunct without field metadata (programmatic Where/WhereConjunct), or
// when a custom start predicate exists outside the step conjuncts
// (FromFilter). Matches reference events by position, so fields that no
// predicate reads never influence query output.
func (p *Plan) Projection() (fields []int, ok bool) {
	w := &p.query.Window
	if w.StartPred != nil && !w.StartFromStep {
		return nil, false
	}
	seen := make(map[int]bool)
	for _, fs := range p.query.Pattern.FlatSteps() {
		st := fs.Step
		if st.Pred == nil {
			continue
		}
		if len(st.Conjuncts) == 0 {
			return nil, false
		}
		for j := range st.Conjuncts {
			c := &st.Conjuncts[j]
			if !c.FieldsKnown {
				return nil, false
			}
			for _, f := range c.Fields {
				if !seen[f] {
					seen[f] = true
					fields = append(fields, f)
				}
			}
		}
	}
	sort.Ints(fields)
	return fields, true
}

// MatcherFilterActive reports whether every step carries a type filter,
// making the matcher-level type skip legal: an event whose type no step
// accepts is a pure no-op for detection and may bypass the matcher,
// the consumed-set checks and the suppression checks.
func (p *Plan) MatcherFilterActive() bool { return p.matcherOK }

// UtilityPrior scores the static match-participation likelihood of type
// t in [0, 1] for load shedding (internal/shed): the maximum, over the
// steps whose type filter accepts t, of the product of the step's
// observed conjunct pass rates — how likely an event of that type is to
// clear the most permissive step that could bind it. Types no step
// accepts score near zero; types that only open windows score the
// neutral 0.5. Pass rates are the same live EWMAs that drive conjunct
// reordering, so the prior tracks the traffic. Safe for concurrent use.
func (p *Plan) UtilityPrior(t event.Type) float64 {
	best := 0.0
	accepted := false
	for i, fs := range p.query.Pattern.FlatSteps() {
		st := fs.Step
		if !typeAccepted(st.Types, t) {
			continue
		}
		accepted = true
		pp := 1.0
		if st.Pred != nil {
			pp = 0.5 // single conjunct: no sampled program, assume even odds
			if i < len(p.steps) && p.steps[i] != nil {
				pp = p.steps[i].passProduct()
			}
		}
		if pp > best {
			best = pp
		}
	}
	if !accepted {
		for _, st := range p.query.Window.StartTypes {
			if st == t {
				return 0.5
			}
		}
		return 0.05
	}
	if best < 0.02 {
		return 0.02 // floor: selective types stay sheddable, not dead
	}
	return best
}

// typeAccepted reports whether a step type filter (empty = any type)
// accepts t.
func typeAccepted(types []event.Type, t event.Type) bool {
	if len(types) == 0 {
		return true
	}
	for _, st := range types {
		if st == t {
			return true
		}
	}
	return false
}

// RelevantType reports whether some step's type filter accepts t. Call
// only when MatcherFilterActive.
func (p *Plan) RelevantType(t event.Type) bool {
	w := int(t) / 64
	if w >= len(p.relevant) {
		return false
	}
	return p.relevant[w]&(1<<(uint(t)%64)) != 0
}

// CountFiltered adds n intake-dropped events to the plan's counter
// (mirrored into core.Metrics.FilteredEvents).
func (p *Plan) CountFiltered(n uint64) { p.filtered.Add(n) }

// Filtered returns the cumulative intake-dropped event count.
func (p *Plan) Filtered() uint64 { return p.filtered.Load() }

// SetDeployment records the submission-time shard count so Explain/Info
// can report it. autoShards marks a count the planner chose (rather than
// the submitter pinning it).
func (p *Plan) SetDeployment(shards int, autoShards bool) {
	p.shards = shards
	p.autoShard = autoShards
}

// Estimate returns the static cost estimate the plan was built from.
func (p *Plan) Estimate() Estimate { return p.est }

func (p *Plan) typeName(t event.Type) string {
	if p.reg != nil {
		if n := p.reg.TypeName(t); n != "" {
			return n
		}
	}
	return fmt.Sprintf("type-%d", t)
}

// relevantTypeNames lists the closed type set, sorted by id.
func (p *Plan) relevantTypeNames() []string {
	if !p.matcherOK {
		return nil
	}
	var out []string
	for w, bits := range p.relevant {
		for b := 0; b < 64; b++ {
			if bits&(1<<uint(b)) != 0 {
				out = append(out, p.typeName(event.Type(w*64+b)))
			}
		}
	}
	return out
}

// ConjunctInfo describes one conjunct of a step's predicate program.
type ConjunctInfo struct {
	Label       string  `json:"label"`
	BindingFree bool    `json:"binding_free"`
	PassRate    float64 `json:"pass_rate"` // EWMA; 0.5 until observed
}

// StepInfo describes one step's predicate program.
type StepInfo struct {
	Name      string         `json:"name"`
	Types     []string       `json:"types,omitempty"`
	Conjuncts []ConjunctInfo `json:"conjuncts,omitempty"`
	Order     []string       `json:"order,omitempty"` // labels, current evaluation order
	Replans   uint64         `json:"replans,omitempty"`
}

// Info is the JSON-serializable rendering of a plan, served at
// /debug/spectre/metrics.
type Info struct {
	Query           string     `json:"query"`
	IntakeFilter    bool       `json:"intake_filter"`
	IntakeOffReason string     `json:"intake_off_reason,omitempty"`
	MatcherFilter   bool       `json:"matcher_filter"`
	RelevantTypes   []string   `json:"relevant_types,omitempty"`
	Steps           []StepInfo `json:"steps,omitempty"`
	Shards          int        `json:"shards,omitempty"`
	AutoShards      bool       `json:"auto_shards,omitempty"`
	PerEventCost    float64    `json:"per_event_cost"`
	FilteredEvents  uint64     `json:"filtered_events"`
}

// Info returns the current state of the plan for serialization.
func (p *Plan) Info() Info {
	info := Info{
		Query:           p.query.Name,
		IntakeFilter:    p.intake,
		IntakeOffReason: p.intakeReason,
		MatcherFilter:   p.matcherOK,
		RelevantTypes:   p.relevantTypeNames(),
		Shards:          p.shards,
		AutoShards:      p.autoShard,
		PerEventCost:    p.est.PerEventCost,
		FilteredEvents:  p.filtered.Load(),
	}
	for i, fs := range p.query.Pattern.FlatSteps() {
		si := StepInfo{Name: fs.Step.Name}
		for _, t := range fs.Step.Types {
			si.Types = append(si.Types, p.typeName(t))
		}
		if sp := p.steps[i]; sp != nil {
			si.Conjuncts, si.Order, si.Replans = sp.info()
		}
		info.Steps = append(info.Steps, si)
	}
	return info
}

// Explain renders the plan as indented text for logs and examples.
func (p *Plan) Explain() string {
	var b strings.Builder
	info := p.Info()
	fmt.Fprintf(&b, "plan %s (per-event cost %.1f)\n", info.Query, info.PerEventCost)
	if info.IntakeFilter {
		fmt.Fprintf(&b, "  intake filter: on\n")
	} else {
		fmt.Fprintf(&b, "  intake filter: off (%s)\n", info.IntakeOffReason)
	}
	if info.MatcherFilter {
		fmt.Fprintf(&b, "  matcher type filter: on [%s]\n", strings.Join(info.RelevantTypes, " "))
	} else {
		fmt.Fprintf(&b, "  matcher type filter: off (untyped step)\n")
	}
	for _, st := range info.Steps {
		fmt.Fprintf(&b, "  step %s", st.Name)
		if len(st.Types) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(st.Types, " "))
		}
		if len(st.Order) > 0 {
			fmt.Fprintf(&b, ": order %s", strings.Join(st.Order, " -> "))
			if st.Replans > 0 {
				fmt.Fprintf(&b, " (%d replans)", st.Replans)
			}
		}
		b.WriteByte('\n')
	}
	if info.Shards > 0 {
		fmt.Fprintf(&b, "  shards: %d%s\n", info.Shards, autoMark(info.AutoShards))
	}
	return b.String()
}

func autoMark(auto bool) string {
	if auto {
		return " (planner-chosen)"
	}
	return " (pinned)"
}

// stepPlan is the runtime predicate program of one step: its conjuncts,
// the current evaluation order (atomic, republished on replan) and the
// sampled pass-rate statistics driving reordering.
type stepPlan struct {
	name  string
	conjs []pattern.Conjunct
	free  []int // conjunct indexes, binding-free class, declaration order
	dep   []int // conjunct indexes, binding-dependent class

	order   atomic.Pointer[[]int]
	stat    []conjStat
	sampled atomic.Uint64
	replans atomic.Uint64

	mu    sync.Mutex // guards rates during replan
	rates []stats.EWMA
}

type conjStat struct {
	evals  atomic.Uint64
	passes atomic.Uint64
}

func newStepPlan(name string, conjs []pattern.Conjunct) *stepPlan {
	sp := &stepPlan{
		name:  name,
		conjs: conjs,
		stat:  make([]conjStat, len(conjs)),
		rates: make([]stats.EWMA, len(conjs)),
	}
	for i := range sp.rates {
		sp.rates[i].Alpha = ewmaAlpha
	}
	for i, c := range conjs {
		if c.BindingFree {
			sp.free = append(sp.free, i)
		} else {
			sp.dep = append(sp.dep, i)
		}
	}
	initial := make([]int, 0, len(conjs))
	initial = append(initial, sp.free...)
	initial = append(initial, sp.dep...)
	sp.order.Store(&initial)
	return sp
}

// predicate is the step's installed pattern.Predicate: conjuncts in the
// current order, binding-free ones with a nil binder, short-circuiting
// on the first failure. 1-in-64 events (by raw sequence number) also
// feed the pass-rate statistics; every replanEvery-th sampled
// evaluation checks whether a better order is available. Pure conjuncts
// make the reorder semantically invisible.
func (sp *stepPlan) predicate(ev *event.Event, b pattern.Binder) bool {
	order := *sp.order.Load()
	sample := ev.Seq&sampleMask == 0
	result := true
	for _, i := range order {
		c := &sp.conjs[i]
		var pass bool
		if c.BindingFree {
			pass = c.Pred(ev, nil)
		} else {
			pass = c.Pred(ev, b)
		}
		if sample {
			sp.stat[i].evals.Add(1)
			if pass {
				sp.stat[i].passes.Add(1)
			}
		}
		if !pass {
			result = false
			break
		}
	}
	if sample && sp.sampled.Add(1)&(replanEvery-1) == 0 {
		sp.maybeReorder()
	}
	return result
}

// maybeReorder folds the cycle's sampled counters into the EWMA pass
// rates and republishes the evaluation order when a different order is
// clearly (beyond hysteresis) better: each class sorted by ascending
// pass rate — most selective first — with the binding-free class always
// ahead of the binding-dependent one. Ties keep declaration order.
func (sp *stepPlan) maybeReorder() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	rate := make([]float64, len(sp.conjs))
	for i := range sp.stat {
		e := sp.stat[i].evals.Swap(0)
		pass := sp.stat[i].passes.Swap(0)
		if e >= minSamples {
			sp.rates[i].Observe(float64(pass) / float64(e))
		}
		if sp.rates[i].Seeded() {
			rate[i] = sp.rates[i].Value()
		} else {
			rate[i] = 0.5
		}
	}
	next := make([]int, 0, len(sp.conjs))
	next = append(next, sortedByRate(sp.free, rate)...)
	next = append(next, sortedByRate(sp.dep, rate)...)
	cur := *sp.order.Load()
	improve := 0.0
	for k := range cur {
		if cur[k] != next[k] {
			if d := rate[cur[k]] - rate[next[k]]; d > improve {
				improve = d
			}
		}
	}
	if improve > hysteresis {
		sp.order.Store(&next)
		sp.replans.Add(1)
	}
}

func sortedByRate(class []int, rate []float64) []int {
	out := append([]int(nil), class...)
	sort.SliceStable(out, func(a, b int) bool { return rate[out[a]] < rate[out[b]] })
	return out
}

// passProduct returns the product of the step's conjunct pass-rate
// EWMAs (0.5 for unseeded conjuncts): the estimated likelihood that an
// event of an accepted type clears the step's whole predicate.
func (sp *stepPlan) passProduct() float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	prod := 1.0
	for i := range sp.rates {
		if sp.rates[i].Seeded() {
			prod *= sp.rates[i].Value()
		} else {
			prod *= 0.5
		}
	}
	return prod
}

func (sp *stepPlan) info() (conjs []ConjunctInfo, order []string, replans uint64) {
	sp.mu.Lock()
	for i, c := range sp.conjs {
		r := 0.5
		if sp.rates[i].Seeded() {
			r = sp.rates[i].Value()
		}
		conjs = append(conjs, ConjunctInfo{Label: c.Label, BindingFree: c.BindingFree, PassRate: r})
	}
	sp.mu.Unlock()
	for _, i := range *sp.order.Load() {
		order = append(order, sp.conjs[i].Label)
	}
	return conjs, order, sp.replans.Load()
}

// cloneQuery deep-copies q so predicate rewriting never mutates the
// caller's query value.
func cloneQuery(q *pattern.Query) *pattern.Query {
	cp := *q
	cp.Pattern.Elements = append([]pattern.Element(nil), q.Pattern.Elements...)
	for i := range cp.Pattern.Elements {
		el := &cp.Pattern.Elements[i]
		cloneStep(&el.Step)
		if el.Set != nil {
			el.Set = append([]pattern.Step(nil), el.Set...)
			for j := range el.Set {
				cloneStep(&el.Set[j])
			}
		}
	}
	cp.Window.StartTypes = append([]event.Type(nil), q.Window.StartTypes...)
	if q.Partition != nil {
		part := *q.Partition
		cp.Partition = &part
	}
	return &cp
}

func cloneStep(st *pattern.Step) {
	st.Types = append([]event.Type(nil), st.Types...)
	st.Conjuncts = append([]pattern.Conjunct(nil), st.Conjuncts...)
}

// Estimate is the static cost model: rough per-event work units used to
// choose the shard count when the submitter pinned none. Units are arbitrary but monotone in real cost (one type
// check ~ 1, one conjunct ~ 1, Kleene and set steps amplify).
type Estimate struct {
	Steps        int     `json:"steps"`
	Conjuncts    int     `json:"conjuncts"`
	BindingFree  int     `json:"binding_free"`
	PerEventCost float64 `json:"per_event_cost"`
	// RecommendedShards caps the shard fan-out for cheap queries, where
	// scatter overhead dominates matching work.
	RecommendedShards int `json:"recommended_shards"`
}

// costly is the per-event cost above which full shard fan-out is
// recommended.
const costly = 8

// EstimateQuery computes the static cost estimate for q without
// building a full plan. The public runtime calls this before submission
// to pick defaults; plan.New embeds the same estimate in the Plan.
func EstimateQuery(q *pattern.Query) Estimate {
	var est Estimate
	for _, fs := range q.Pattern.FlatSteps() {
		st := fs.Step
		est.Steps++
		w := 1.0
		if st.Quant == pattern.OneOrMore {
			w = 2 // Kleene steps re-test every contiguous event
		}
		conj := len(st.Conjuncts)
		if conj == 0 && st.Pred != nil {
			conj = 1
		}
		for _, c := range st.Conjuncts {
			if c.BindingFree {
				est.BindingFree++
			}
		}
		est.Conjuncts += conj
		est.PerEventCost += w * float64(1+conj)
	}
	procs := defaultProcs()
	if est.PerEventCost >= costly {
		est.RecommendedShards = procs
	} else {
		est.RecommendedShards = max(1, procs/2)
	}
	return est
}

func defaultProcs() int { return runtime.GOMAXPROCS(0) }
