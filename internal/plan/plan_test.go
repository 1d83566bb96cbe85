package plan

import (
	"reflect"
	"strings"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/query"
)

// buildTyped builds a fully-typed two-step query (A then B, window FROM A)
// with a binding-free guard on B.
func buildTyped(t *testing.T, reg *event.Registry) *pattern.Query {
	t.Helper()
	b := query.New(reg).Name("typed")
	open := b.Float("open")
	q, err := b.
		Pattern(
			query.Step("A").Types("A"),
			query.Step("B").Types("B").WhereEvent(func(ev *query.Event) bool { return open.Of(ev) > 0 }),
		).
		Within(query.Events(100)).From("A").
		ConsumeNone().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestTypeClosure(t *testing.T) {
	reg := event.NewRegistry()
	// Intern distractor types around the relevant ones.
	reg.TypeID("X")
	q := buildTyped(t, reg)
	reg.TypeID("Y")

	p := New(q, Options{Reg: reg})
	if !p.MatcherFilterActive() {
		t.Fatal("fully typed query must enable the matcher type filter")
	}
	ta, _ := reg.LookupType("A")
	tb, _ := reg.LookupType("B")
	tx, _ := reg.LookupType("X")
	ty, _ := reg.LookupType("Y")
	if !p.RelevantType(ta) || !p.RelevantType(tb) {
		t.Fatal("step types must be in the closure")
	}
	if p.RelevantType(tx) || p.RelevantType(ty) {
		t.Fatal("unreferenced types must be outside the closure")
	}
	// Out-of-range ids (beyond the bitmap) are irrelevant, not a panic.
	if p.RelevantType(event.Type(10_000)) {
		t.Fatal("unknown type id reported relevant")
	}
	names := p.Info().RelevantTypes
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("relevant type names = %v, want [A B]", names)
	}
}

func TestStartTypesJoinClosure(t *testing.T) {
	reg := event.NewRegistry()
	q, err := query.New(reg).Name("startfilter").
		Pattern(
			query.Step("A").Types("A"),
			query.Step("B").Types("B"),
		).
		Within(query.Events(100)).FromFilter(nil, "S").
		ConsumeNone().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := New(q, Options{Reg: reg})
	ts, _ := reg.LookupType("S")
	if !p.RelevantType(ts) {
		t.Fatal("window start types must join the closure")
	}
}

func TestIntakeLegality(t *testing.T) {
	reg := event.NewRegistry()
	q := buildTyped(t, reg)
	p := New(q, Options{})
	if !p.IntakeActive() {
		t.Fatalf("typed FROM-step query must enable intake filtering: %s", p.Explain())
	}

	// FROM EVERY windows anchor at raw positions of arbitrary events:
	// dropping any event would shift the slide.
	qe, err := query.New(reg).Name("every").
		Pattern(query.Step("A").Types("A"), query.Step("B").Types("B")).
		Within(query.Events(100)).FromEvery(10).
		ConsumeNone().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pe := New(qe, Options{})
	if pe.IntakeActive() {
		t.Fatal("FROM EVERY must disable intake filtering")
	}
	if !strings.Contains(pe.Info().IntakeOffReason, "FROM EVERY") {
		t.Fatalf("off reason %q", pe.Info().IntakeOffReason)
	}

	// An untyped, guard-free step accepts every event: the admit test is
	// vacuous and filtering must stay off.
	qv, err := query.New(reg).Name("vacuous").
		Pattern(
			query.Step("A").Types("A"),
			query.Step("Y").Where(func(_ *query.Event, _ query.Binder) bool { return true }),
		).
		Within(query.Events(100)).From("A").
		ConsumeNone().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pv := New(qv, Options{})
	if pv.IntakeActive() {
		t.Fatal("vacuous step must disable intake filtering")
	}
	if !strings.Contains(pv.Info().IntakeOffReason, `"Y"`) {
		t.Fatalf("off reason %q must name the vacuous step", pv.Info().IntakeOffReason)
	}
	// But an untyped step WITH a binding-free guard keeps filtering legal.
	qg, err := query.New(reg).Name("guarded").
		Pattern(
			query.Step("A").Types("A"),
			query.Step("Y").WhereEvent(func(ev *query.Event) bool { return ev.TS > 0 }),
		).
		Within(query.Events(100)).From("A").
		ConsumeNone().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pg := New(qg, Options{})
	if !pg.IntakeActive() {
		t.Fatal("binding-free guard on an untyped step keeps intake filtering legal")
	}
	if pg.MatcherFilterActive() {
		t.Fatal("untyped step must disable the matcher type filter")
	}
}

func TestAdmit(t *testing.T) {
	reg := event.NewRegistry()
	q := buildTyped(t, reg)
	p := New(q, Options{Reg: reg})
	ta, _ := reg.LookupType("A")
	tb, _ := reg.LookupType("B")
	open, ok := reg.LookupField("open")
	if !ok {
		t.Fatal("field open not interned")
	}
	mk := func(typ event.Type, openV float64) *event.Event {
		fields := make([]float64, open+1)
		fields[open] = openV
		return &event.Event{Type: typ, Fields: fields}
	}
	if !p.Admit(mk(ta, 0)) {
		t.Fatal("step-A event must be admitted")
	}
	if !p.Admit(mk(tb, 1)) {
		t.Fatal("step-B event passing its guard must be admitted")
	}
	if p.Admit(mk(tb, -1)) {
		t.Fatal("step-B event failing its binding-free guard must be dropped")
	}
	if p.Admit(mk(reg.TypeID("Z"), 1)) {
		t.Fatal("unreferenced type must be dropped")
	}
}

// passer returns a pure conjunct that accepts when accept is true.
func passer(accept bool) pattern.Predicate {
	return func(*event.Event, pattern.Binder) bool { return accept }
}

func drive(sp *stepPlan, n int) {
	ev := &event.Event{} // Seq 0: every call is sampled
	for i := 0; i < n; i++ {
		sp.predicate(ev, nil)
	}
}

func orderOf(sp *stepPlan) []int { return *sp.order.Load() }

func TestReorderMovesSelectiveConjunctFirst(t *testing.T) {
	conjs := []pattern.Conjunct{
		{Pred: passer(true), BindingFree: true, Label: "wide"},
		{Pred: passer(false), BindingFree: true, Label: "narrow"},
	}
	sp := newStepPlan("s", conjs)
	drive(sp, minSamples*2)
	sp.maybeReorder()
	if got := orderOf(sp); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("order = %v, want the failing conjunct first", got)
	}
	if sp.replans.Load() != 1 {
		t.Fatalf("replans = %d, want 1", sp.replans.Load())
	}
}

func TestReorderStableOnTies(t *testing.T) {
	conjs := []pattern.Conjunct{
		{Pred: passer(true), BindingFree: true, Label: "c0"},
		{Pred: passer(true), BindingFree: true, Label: "c1"},
		{Pred: passer(true), BindingFree: true, Label: "c2"},
	}
	sp := newStepPlan("s", conjs)
	drive(sp, minSamples*2)
	for i := 0; i < 3; i++ {
		sp.maybeReorder()
	}
	if got := orderOf(sp); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("order = %v, tied rates must keep declaration order", got)
	}
	if sp.replans.Load() != 0 {
		t.Fatalf("replans = %d, tied rates must never republish", sp.replans.Load())
	}
}

func TestReorderHysteresis(t *testing.T) {
	// Rates 1.0 vs ~0.97: the difference is under the hysteresis, so the
	// order must not flip even though a "better" order exists.
	n := 0
	almost := func(*event.Event, pattern.Binder) bool {
		n++
		return n%64 != 0
	}
	conjs := []pattern.Conjunct{
		{Pred: passer(true), BindingFree: true, Label: "always"},
		{Pred: almost, BindingFree: true, Label: "almost"},
	}
	sp := newStepPlan("s", conjs)
	drive(sp, minSamples*4)
	sp.maybeReorder()
	if got := orderOf(sp); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("order = %v, sub-hysteresis improvement must not replan", got)
	}
}

func TestBindingFreeClassStaysFirst(t *testing.T) {
	// The binding-dependent conjunct fails always (rate 0), the
	// binding-free one passes always (rate 1). Even so, the binding-free
	// class must stay ahead: binder-dependent conjuncts may be arbitrarily
	// expensive and are never hoisted.
	conjs := []pattern.Conjunct{
		{Pred: passer(false), BindingFree: false, Label: "dep"},
		{Pred: passer(true), BindingFree: true, Label: "free"},
	}
	sp := newStepPlan("s", conjs)
	if got := orderOf(sp); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("initial order = %v, want binding-free first", got)
	}
	drive(sp, minSamples*2)
	sp.maybeReorder()
	if got := orderOf(sp); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("order = %v, classes must not interleave", got)
	}
}

func TestPredicateShortCircuits(t *testing.T) {
	called := false
	conjs := []pattern.Conjunct{
		{Pred: passer(false), BindingFree: true, Label: "gate"},
		{Pred: func(*event.Event, pattern.Binder) bool { called = true; return true }, BindingFree: false, Label: "tail"},
	}
	sp := newStepPlan("s", conjs)
	if sp.predicate(&event.Event{Seq: 1}, nil) {
		t.Fatal("predicate must fail when a conjunct fails")
	}
	if called {
		t.Fatal("later conjuncts must not run after a failure")
	}
}

func TestPlanDoesNotMutateInput(t *testing.T) {
	reg := event.NewRegistry()
	q := buildTyped(t, reg)
	origPred := make([]uintptr, 0, 2)
	for _, fs := range q.Pattern.FlatSteps() {
		origPred = append(origPred, reflect.ValueOf(fs.Step.Pred).Pointer())
	}
	p := New(q, Options{})
	for i, fs := range q.Pattern.FlatSteps() {
		if reflect.ValueOf(fs.Step.Pred).Pointer() != origPred[i] {
			t.Fatalf("step %d predicate of the input query was rewritten", i)
		}
	}
	// The planned copy's multi-conjunct steps run the predicate program.
	planned := p.Query().Pattern.FlatSteps()
	if len(planned) != len(origPred) {
		t.Fatalf("planned pattern has %d steps", len(planned))
	}
	if p.Query() == q {
		t.Fatal("plan must own a deep copy of the query")
	}
}

func TestEstimateQuery(t *testing.T) {
	reg := event.NewRegistry()
	cheap := buildTyped(t, reg)
	ce := EstimateQuery(cheap)
	if ce.Steps != 2 || ce.PerEventCost >= costly {
		t.Fatalf("cheap estimate = %+v, want 2 steps below the costly threshold", ce)
	}
	if ce.RecommendedShards < 1 {
		t.Fatalf("recommended shards = %d", ce.RecommendedShards)
	}

	b := query.New(reg).Name("costly")
	guard := func(ev *query.Event) bool { return ev.TS >= 0 }
	b.Pattern(query.Step("A").Types("A").WhereEvent(guard))
	for i := 0; i < 4; i++ {
		b.Pattern(query.Plus(string(rune('B' + i))).Types("B").WhereEvent(guard).WhereEvent(guard))
	}
	q, err := b.Within(query.Events(100)).From("A").ConsumeNone().Build()
	if err != nil {
		t.Fatal(err)
	}
	he := EstimateQuery(q)
	if he.PerEventCost < costly || he.RecommendedShards < ce.RecommendedShards {
		t.Fatalf("costly estimate = %+v, want full shard fan-out", he)
	}
	if he.PerEventCost <= ce.PerEventCost {
		t.Fatal("cost model must be monotone in pattern size")
	}
}

func TestExplainAndInfo(t *testing.T) {
	reg := event.NewRegistry()
	q := buildTyped(t, reg)
	p := New(q, Options{Reg: reg})
	p.SetDeployment(4, true)
	p.CountFiltered(7)

	info := p.Info()
	if !info.IntakeFilter || !info.MatcherFilter {
		t.Fatalf("info = %+v", info)
	}
	if info.FilteredEvents != 7 {
		t.Fatalf("filtered = %d, want 7", info.FilteredEvents)
	}
	if info.Shards != 4 || !info.AutoShards {
		t.Fatalf("deployment facts = %+v", info)
	}

	text := p.Explain()
	for _, want := range []string{"plan typed", "intake filter: on", "matcher type filter: on [A B]", "shards: 4 (planner-chosen)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}
}

func TestUtilityPrior(t *testing.T) {
	reg := event.NewRegistry()
	reg.TypeID("X") // distractor: accepted by no step
	// Two binding-free guards on B so the planner installs a sampled
	// predicate program (stepPlans exist only for >= 2 conjuncts).
	b := query.New(reg).Name("prior")
	open := b.Float("open")
	q, err := b.
		Pattern(
			query.Step("A").Types("A"),
			query.Step("B").Types("B").
				WhereEvent(func(ev *query.Event) bool { return open.Of(ev) > 0 }).
				WhereEvent(func(ev *query.Event) bool { return open.Of(ev) < 100 }),
		).
		Within(query.Events(100)).From("A").
		ConsumeNone().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := New(q, Options{Reg: reg})
	ta, _ := reg.LookupType("A")
	tb, _ := reg.LookupType("B")
	tx, _ := reg.LookupType("X")

	// Step A has no predicate: an A event always clears its step.
	if got := p.UtilityPrior(ta); got != 1.0 {
		t.Fatalf("prior(A) = %.3f, want 1.0 for a predicate-free step", got)
	}
	// Step B carries two unseeded conjuncts: 0.5 * 0.5 even odds each.
	if got := p.UtilityPrior(tb); got != 0.25 {
		t.Fatalf("prior(B) = %.3f, want 0.25 before any samples", got)
	}
	// X is accepted by no step and opens no window.
	if got := p.UtilityPrior(tx); got != 0.05 {
		t.Fatalf("prior(X) = %.3f, want near-zero for an irrelevant type", got)
	}
	if got := p.UtilityPrior(event.Type(10_000)); got != 0.05 {
		t.Fatalf("prior(unknown) = %.3f, want near-zero", got)
	}

	// Seed B's conjunct pass rate to ~0: the prior must follow the live
	// EWMA down, stopping at the floor so B stays sheddable but not dead.
	var sp *stepPlan
	for _, cand := range p.steps {
		if cand != nil {
			sp = cand
		}
	}
	if sp == nil {
		t.Fatal("expected a stepPlan for B's predicate")
	}
	sp.mu.Lock()
	for i := range sp.rates {
		for k := 0; k < 64; k++ {
			sp.rates[i].Observe(0)
		}
	}
	sp.mu.Unlock()
	if got := p.UtilityPrior(tb); got != 0.02 {
		t.Fatalf("prior(B) = %.3f after an all-fail pass rate, want the 0.02 floor", got)
	}
	// And back up when the conjunct starts passing.
	sp.mu.Lock()
	for i := range sp.rates {
		for k := 0; k < 256; k++ {
			sp.rates[i].Observe(1)
		}
	}
	sp.mu.Unlock()
	if got := p.UtilityPrior(tb); got < 0.9 {
		t.Fatalf("prior(B) = %.3f after an all-pass rate, want it tracking toward 1", got)
	}
}
