package parser

import (
	"strconv"
	"strings"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
)

// Expression values are numbers, booleans or symbols (event types).
// String literals are interned as event types at parse time, so symbol
// comparisons are integer comparisons at match time.
type valKind int

const (
	vNum valKind = iota + 1
	vBool
	vSym
)

func (k valKind) String() string {
	switch k {
	case vNum:
		return "number"
	case vBool:
		return "boolean"
	case vSym:
		return "symbol"
	default:
		return "invalid"
	}
}

type value struct {
	kind valKind
	num  float64
	b    bool
	sym  event.Type
}

// evalCtx carries the candidate event and the partial-match bindings. It
// is passed by value: a pointer handed through the expr interface escapes,
// which would cost one heap allocation per predicate call.
type evalCtx struct {
	ev *event.Event
	b  pattern.Binder
}

// expr is a type-checked expression node.
type expr interface {
	kind() valKind
	// eval returns the node's value; ok is false when a referenced step
	// has no binding yet (the enclosing comparison then fails).
	eval(ctx evalCtx) (value, bool)
}

type numLit float64

func (numLit) kind() valKind { return vNum }
func (n numLit) eval(evalCtx) (value, bool) {
	return value{kind: vNum, num: float64(n)}, true
}

type symLit event.Type

func (symLit) kind() valKind { return vSym }
func (s symLit) eval(evalCtx) (value, bool) {
	return value{kind: vSym, sym: event.Type(s)}, true
}

// fieldRef reads a numeric payload field from the candidate (self) or a
// bound step (the first bound event of that step).
type fieldRef struct {
	self  bool
	flat  int
	field int
}

func (fieldRef) kind() valKind { return vNum }
func (r fieldRef) eval(ctx evalCtx) (value, bool) {
	ev := ctx.ev
	if !r.self {
		if ctx.b == nil {
			return value{}, false
		}
		bound := ctx.b.Bound(r.flat)
		if len(bound) == 0 {
			return value{}, false
		}
		ev = bound[0]
	}
	return value{kind: vNum, num: ev.Field(r.field)}, true
}

// symRef reads the event type (symbol) of the candidate or a bound step.
type symRef struct {
	self bool
	flat int
}

func (symRef) kind() valKind { return vSym }
func (r symRef) eval(ctx evalCtx) (value, bool) {
	ev := ctx.ev
	if !r.self {
		if ctx.b == nil {
			return value{}, false
		}
		bound := ctx.b.Bound(r.flat)
		if len(bound) == 0 {
			return value{}, false
		}
		ev = bound[0]
	}
	return value{kind: vSym, sym: ev.Type}, true
}

type arith struct {
	op   tokenKind // tokPlus tokMinus tokStar tokSlash
	l, r expr
}

func (arith) kind() valKind { return vNum }
func (a arith) eval(ctx evalCtx) (value, bool) {
	lv, ok := a.l.eval(ctx)
	if !ok {
		return value{}, false
	}
	rv, ok := a.r.eval(ctx)
	if !ok {
		return value{}, false
	}
	var out float64
	switch a.op {
	case tokPlus:
		out = lv.num + rv.num
	case tokMinus:
		out = lv.num - rv.num
	case tokStar:
		out = lv.num * rv.num
	case tokSlash:
		if rv.num == 0 {
			return value{}, false
		}
		out = lv.num / rv.num
	}
	return value{kind: vNum, num: out}, true
}

type neg struct{ e expr }

func (neg) kind() valKind { return vNum }
func (n neg) eval(ctx evalCtx) (value, bool) {
	v, ok := n.e.eval(ctx)
	if !ok {
		return value{}, false
	}
	return value{kind: vNum, num: -v.num}, true
}

type cmp struct {
	op   tokenKind
	l, r expr
}

func (cmp) kind() valKind { return vBool }
func (c cmp) eval(ctx evalCtx) (value, bool) {
	lv, ok := c.l.eval(ctx)
	if !ok {
		return value{kind: vBool, b: false}, true
	}
	rv, ok := c.r.eval(ctx)
	if !ok {
		return value{kind: vBool, b: false}, true
	}
	var out bool
	if lv.kind == vSym {
		switch c.op {
		case tokEQ:
			out = lv.sym == rv.sym
		case tokNE:
			out = lv.sym != rv.sym
		}
	} else {
		switch c.op {
		case tokLT:
			out = lv.num < rv.num
		case tokLE:
			out = lv.num <= rv.num
		case tokGT:
			out = lv.num > rv.num
		case tokGE:
			out = lv.num >= rv.num
		case tokEQ:
			out = lv.num == rv.num
		case tokNE:
			out = lv.num != rv.num
		}
	}
	return value{kind: vBool, b: out}, true
}

// inList implements `X.symbol IN ('A','B')` and `X.f IN (1, 2)`.
type inList struct {
	e    expr
	syms []event.Type
	nums []float64
}

func (inList) kind() valKind { return vBool }
func (in inList) eval(ctx evalCtx) (value, bool) {
	v, ok := in.e.eval(ctx)
	if !ok {
		return value{kind: vBool, b: false}, true
	}
	if v.kind == vSym {
		for _, s := range in.syms {
			if v.sym == s {
				return value{kind: vBool, b: true}, true
			}
		}
		return value{kind: vBool, b: false}, true
	}
	for _, n := range in.nums {
		if v.num == n {
			return value{kind: vBool, b: true}, true
		}
	}
	return value{kind: vBool, b: false}, true
}

type logical struct {
	and  bool
	l, r expr
}

func (logical) kind() valKind { return vBool }
func (lg logical) eval(ctx evalCtx) (value, bool) {
	lv, ok := lg.l.eval(ctx)
	if !ok {
		lv = value{kind: vBool}
	}
	if lg.and && !lv.b {
		return value{kind: vBool, b: false}, true
	}
	if !lg.and && lv.b {
		return value{kind: vBool, b: true}, true
	}
	rv, ok := lg.r.eval(ctx)
	if !ok {
		rv = value{kind: vBool}
	}
	return value{kind: vBool, b: rv.b}, true
}

type notExpr struct{ e expr }

func (notExpr) kind() valKind { return vBool }
func (n notExpr) eval(ctx evalCtx) (value, bool) {
	v, ok := n.e.eval(ctx)
	if !ok {
		v = value{kind: vBool}
	}
	return value{kind: vBool, b: !v.b}, true
}

// parseExpr parses an expression in the context of DEFINE-ing selfVar.
func (p *parser) parseExpr(selfVar string) (expr, error) {
	return p.parseOr(selfVar)
}

func (p *parser) parseOr(self string) (expr, error) {
	l, err := p.parseAnd(self)
	if err != nil {
		return nil, err
	}
	for isKeyword(p.tok, "OR") {
		opTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd(self)
		if err != nil {
			return nil, err
		}
		if l.kind() != vBool || r.kind() != vBool {
			return nil, p.errf(opTok, "OR requires boolean operands")
		}
		l = logical{and: false, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd(self string) (expr, error) {
	l, err := p.parseNot(self)
	if err != nil {
		return nil, err
	}
	for isKeyword(p.tok, "AND") {
		opTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNot(self)
		if err != nil {
			return nil, err
		}
		if l.kind() != vBool || r.kind() != vBool {
			return nil, p.errf(opTok, "AND requires boolean operands")
		}
		l = logical{and: true, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseNot(self string) (expr, error) {
	if isKeyword(p.tok, "NOT") {
		opTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseNot(self)
		if err != nil {
			return nil, err
		}
		if e.kind() != vBool {
			return nil, p.errf(opTok, "NOT requires a boolean operand")
		}
		return notExpr{e: e}, nil
	}
	return p.parseComparison(self)
}

func (p *parser) parseComparison(self string) (expr, error) {
	l, err := p.parseAdd(self)
	if err != nil {
		return nil, err
	}
	if isKeyword(p.tok, "IN") {
		opTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		in := inList{e: l}
		for p.tok.kind != tokRParen {
			switch p.tok.kind {
			case tokString:
				in.syms = append(in.syms, p.reg.TypeID(p.tok.text))
			case tokNumber:
				n, err := strconv.ParseFloat(p.tok.text, 64)
				if err != nil {
					return nil, p.errf(p.tok, "bad number %q", p.tok.text)
				}
				in.nums = append(in.nums, n)
			default:
				return nil, p.errf(p.tok, "IN list accepts strings and numbers, got %q", p.tok.text)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if l.kind() == vSym && len(in.nums) > 0 || l.kind() == vNum && len(in.syms) > 0 {
			return nil, p.errf(opTok, "IN list element type does not match the tested expression")
		}
		if l.kind() == vBool {
			return nil, p.errf(opTok, "IN requires a number or symbol expression")
		}
		return in, nil
	}

	switch p.tok.kind {
	case tokLT, tokLE, tokGT, tokGE, tokEQ, tokNE:
		op := p.tok.kind
		opTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdd(self)
		if err != nil {
			return nil, err
		}
		if l.kind() != r.kind() {
			return nil, p.errf(opTok, "cannot compare %s with %s", l.kind(), r.kind())
		}
		if l.kind() == vSym && op != tokEQ && op != tokNE {
			return nil, p.errf(opTok, "symbols support only = and != comparisons")
		}
		if l.kind() == vBool {
			return nil, p.errf(opTok, "comparison operands must be numbers or symbols")
		}
		return cmp{op: op, l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd(self string) (expr, error) {
	l, err := p.parseMul(self)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := p.tok.kind
		opTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul(self)
		if err != nil {
			return nil, err
		}
		if l.kind() != vNum || r.kind() != vNum {
			return nil, p.errf(opTok, "arithmetic requires numeric operands")
		}
		l = arith{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseMul(self string) (expr, error) {
	l, err := p.parseUnary(self)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := p.tok.kind
		opTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary(self)
		if err != nil {
			return nil, err
		}
		if l.kind() != vNum || r.kind() != vNum {
			return nil, p.errf(opTok, "arithmetic requires numeric operands")
		}
		l = arith{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary(self string) (expr, error) {
	if p.tok.kind == tokMinus {
		opTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary(self)
		if err != nil {
			return nil, err
		}
		if e.kind() != vNum {
			return nil, p.errf(opTok, "unary minus requires a numeric operand")
		}
		return neg{e: e}, nil
	}
	return p.parsePrimary(self)
}

func (p *parser) parsePrimary(self string) (expr, error) {
	switch p.tok.kind {
	case tokNumber:
		n, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf(p.tok, "bad number %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return numLit(n), nil
	case tokString:
		s := symLit(p.reg.TypeID(p.tok.text))
		if err := p.advance(); err != nil {
			return nil, err
		}
		return s, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr(self)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		if isKeyword(p.tok, "NOT") || isKeyword(p.tok, "AND") || isKeyword(p.tok, "OR") {
			return nil, p.errf(p.tok, "unexpected keyword %q", p.tok.text)
		}
		nameTok := p.tok
		name := nameTok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, p.errf(nameTok, "pattern-variable reference %q needs a field (e.g. %s.close)", name, name)
		}
		fieldTok, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		flat, known := p.names[name]
		if !known {
			return nil, p.errf(nameTok, "reference to unknown pattern variable %q", name)
		}
		isSelf := name == self
		if !isSelf {
			selfFlat, ok := p.names[self]
			if ok && flat > selfFlat {
				return nil, p.errf(nameTok, "variable %q cannot reference the later step %q", self, name)
			}
		}
		field := fieldTok.text
		if strings.EqualFold(field, "symbol") || strings.EqualFold(field, "type") {
			return symRef{self: isSelf, flat: flat}, nil
		}
		return fieldRef{self: isSelf, flat: flat, field: p.reg.FieldIndex(field)}, nil
	}
	return nil, p.errf(p.tok, "unexpected %q in expression", p.tok.text)
}

// selfOnly reports whether e reads only the candidate event — no
// references to earlier bindings — so it can be evaluated with a nil
// binder. Such conjuncts are binding-free for the planner: they may be
// evaluated before binding-dependent conjuncts and hoisted into the
// intake prefilter.
func selfOnly(e expr) bool {
	switch n := e.(type) {
	case numLit, symLit:
		return true
	case fieldRef:
		return n.self
	case symRef:
		return n.self
	case arith:
		return selfOnly(n.l) && selfOnly(n.r)
	case neg:
		return selfOnly(n.e)
	case cmp:
		return selfOnly(n.l) && selfOnly(n.r)
	case inList:
		return selfOnly(n.e)
	case logical:
		return selfOnly(n.l) && selfOnly(n.r)
	case notExpr:
		return selfOnly(n.e)
	default:
		return false
	}
}

// fieldsOf collects every payload field index e reads — through the
// candidate event or any bound step — deduplicated, in first-read order.
// symRef reads the interned type id, not a payload field, so it
// contributes nothing. The list is exhaustive by construction (the AST
// has no other field access), which lets the distributed transport
// project shipped events down to exactly these fields.
func fieldsOf(e expr, out []int) []int {
	add := func(f int) []int {
		for _, have := range out {
			if have == f {
				return out
			}
		}
		return append(out, f)
	}
	switch n := e.(type) {
	case numLit, symLit, symRef:
		return out
	case fieldRef:
		return add(n.field)
	case arith:
		return fieldsOf(n.r, fieldsOf(n.l, out))
	case neg:
		return fieldsOf(n.e, out)
	case cmp:
		return fieldsOf(n.r, fieldsOf(n.l, out))
	case inList:
		return fieldsOf(n.e, out)
	case logical:
		return fieldsOf(n.r, fieldsOf(n.l, out))
	case notExpr:
		return fieldsOf(n.e, out)
	default:
		return out
	}
}

// flattenAnd splits a top-level AND chain into its operands in source
// order. OR and NOT subtrees are kept whole — only conjunction is safe
// to decompose and reorder.
func flattenAnd(e expr, out []expr) []expr {
	if lg, ok := e.(logical); ok && lg.and {
		out = flattenAnd(lg.l, out)
		return flattenAnd(lg.r, out)
	}
	return append(out, e)
}

// compileConjunct converts one boolean AST node into a
// pattern.Predicate. Every boolean node converts unresolved-binding
// operands to false internally, so eval's ok is always true here; the
// check is kept for defense.
func compileConjunct(e expr) pattern.Predicate {
	return func(ev *event.Event, b pattern.Binder) bool {
		v, ok := e.eval(evalCtx{ev: ev, b: b})
		return ok && v.b
	}
}
