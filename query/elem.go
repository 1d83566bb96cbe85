package query

import "github.com/spectrecep/spectre/internal/pattern"

// Elem is one position of a pattern sequence: a single step (Step, Plus,
// Neg) or an unordered Set. Values are created by this package's
// constructors and passed to Builder.Pattern.
type Elem interface {
	// appendTo lowers the element into the builder's working pattern.
	appendTo(b *Builder)
}

// conjSpec is one recorded AND-operand of a step's predicate; Build
// lowers the list into pattern.Conjunct values for the planner.
type conjSpec struct {
	pred        Predicate
	bindingFree bool
	label       string
	fields      []int
	fieldsKnown bool
}

// stepSpec is the unresolved form of a pattern step: type names are kept
// as strings until Build interns them through the registry. pred is the
// AND-fold of conjs, maintained incrementally so unplanned execution pays
// one closure call per step.
type stepSpec struct {
	name    string
	types   []string
	pred    Predicate
	conjs   []conjSpec
	quant   pattern.Quantifier
	negated bool
}

// StepBuilder configures one pattern variable. Obtain one from Step, Plus
// or Neg; chain Types and Where; then pass it to Builder.Pattern (or
// Set). The zero value is not usable.
type StepBuilder struct {
	s stepSpec
}

// Step declares a pattern variable that binds exactly one event.
func Step(name string) *StepBuilder {
	return &StepBuilder{s: stepSpec{name: name, quant: pattern.One}}
}

// Plus declares a Kleene-plus variable (`B+` in the DSL): one event is
// required, further contiguous matches extend the binding without
// advancing pattern completion (the paper's Q2 band steps).
func Plus(name string) *StepBuilder {
	return &StepBuilder{s: stepSpec{name: name, quant: pattern.OneOrMore}}
}

// Neg declares a negated variable (`!C` in the DSL): if a matching event
// occurs while the negation is active, the partial match is abandoned.
func Neg(name string) *StepBuilder {
	return &StepBuilder{s: stepSpec{name: name, quant: pattern.One, negated: true}}
}

// Types restricts the step to the named event types (interned at Build
// time); repeated calls accumulate. A step with no Types matches any
// type, subject to its Where predicate.
func (sb *StepBuilder) Types(names ...string) *StepBuilder {
	sb.s.types = append(sb.s.types, names...)
	return sb
}

// Where attaches a payload predicate — an arbitrary Go function over the
// candidate event and the bindings accumulated so far. Repeated calls
// AND: the step matches only when every predicate accepts. Predicates
// that read earlier bindings must use Where; ones that only inspect the
// candidate event should prefer WhereEvent, which the planner can hoist
// into the intake prefilter and evaluate first.
func (sb *StepBuilder) Where(p Predicate) *StepBuilder {
	return sb.where(p, false, "where", nil, false)
}

// WhereEvent attaches a binding-free payload predicate: a function of the
// candidate event alone. Semantically identical to Where with the binder
// ignored, but the declaration lets the planner (internal/plan, on by
// default) evaluate it before binding-dependent conjuncts and hoist it
// into the type-indexed intake prefilter where legal. The
// predicate must be pure — it may be re-evaluated during rollbacks.
func (sb *StepBuilder) WhereEvent(p func(*Event) bool) *StepBuilder {
	if p == nil {
		return sb
	}
	return sb.where(func(ev *Event, _ Binder) bool { return p(ev) }, true, "where-event", nil, false)
}

// WhereConjunct records one predicate conjunct with an explicit
// binding-free classification and label. It is the lowering target of the
// parser's DEFINE clause (each top-level AND operand arrives separately);
// programmatic callers normally use Where/WhereEvent.
func (sb *StepBuilder) WhereConjunct(p Predicate, bindingFree bool, label string) *StepBuilder {
	return sb.where(p, bindingFree, label, nil, false)
}

// WhereConjunctFields is WhereConjunct with an exhaustive list of the
// payload field indexes the predicate can read (candidate or bound
// events). The parser supplies it from the DEFINE expression AST; the
// declaration lets the distributed transport project shipped events down
// to the fields some predicate actually reads. An empty list is valid
// (type-only predicates). Callers that cannot enumerate the fields must
// use WhereConjunct, which disables projection for the query.
func (sb *StepBuilder) WhereConjunctFields(p Predicate, bindingFree bool, label string, fields []int) *StepBuilder {
	return sb.where(p, bindingFree, label, fields, true)
}

func (sb *StepBuilder) where(p Predicate, bindingFree bool, label string, fields []int, fieldsKnown bool) *StepBuilder {
	if p == nil {
		return sb
	}
	if prev := sb.s.pred; prev != nil {
		sb.s.pred = func(ev *Event, b Binder) bool { return prev(ev, b) && p(ev, b) }
	} else {
		sb.s.pred = p
	}
	sb.s.conjs = append(sb.s.conjs, conjSpec{pred: p, bindingFree: bindingFree, label: label, fields: fields, fieldsKnown: fieldsKnown})
	return sb
}

func (sb *StepBuilder) appendTo(b *Builder) {
	if sb == nil {
		// A typed-nil *StepBuilder inside an Elem slice slips past
		// Pattern's interface nil check; record it like any other bad
		// input instead of panicking.
		b.errf("PATTERN", "nil pattern element")
		return
	}
	b.steps = append(b.steps, resolvedStep{spec: sb.s, elem: len(b.elems), member: -1})
	b.elems = append(b.elems, elemEntry{step: sb.s})
}

// setElem is the Elem produced by Set.
type setElem struct {
	members []*StepBuilder
}

// Set declares an unordered conjunction (the DSL's `SET(X1 ... Xn)`, the
// paper's Q3): every member must bind one event, in any order. Members
// must be plain Step variables — Plus and Neg members are rejected at
// Build time.
func Set(members ...*StepBuilder) Elem {
	return setElem{members: members}
}

func (se setElem) appendTo(b *Builder) {
	entry := elemEntry{set: make([]stepSpec, 0, len(se.members))}
	for mi, m := range se.members {
		if m == nil {
			b.errf("PATTERN", "nil step in SET element")
			continue
		}
		if m.s.negated || m.s.quant != pattern.One {
			b.errf(stepClause(m.s.name), "SET members must be plain steps (no Plus/Neg)")
		}
		b.steps = append(b.steps, resolvedStep{spec: m.s, elem: len(b.elems), member: mi})
		entry.set = append(entry.set, m.s)
	}
	if len(entry.set) == 0 {
		b.errf("PATTERN", "empty SET element")
	}
	b.elems = append(b.elems, entry)
}
