package parser

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/internal/seqengine"
	"github.com/spectrecep/spectre/query"
)

func mustParse(t *testing.T, src string) (*pattern.Query, *event.Registry) {
	t.Helper()
	reg := event.NewRegistry()
	q, err := Parse(src, reg)
	if err != nil {
		t.Fatalf("Parse failed: %v", err)
	}
	return q, reg
}

func TestParseQ1Shape(t *testing.T) {
	src := `
		QUERY Q1
		PATTERN (MLE RE1 RE2)
		DEFINE MLE AS (MLE.symbol IN ('BLUE00','BLUE01') AND MLE.close > MLE.open),
		       RE1 AS RE1.close > RE1.open,
		       RE2 AS RE2.close > RE2.open
		WITHIN 8000 EVENTS FROM MLE
		CONSUME (MLE RE1 RE2)
	`
	q, reg := mustParse(t, src)
	if q.Name != "Q1" {
		t.Errorf("name = %q, want Q1", q.Name)
	}
	if got := len(q.Pattern.Elements); got != 3 {
		t.Fatalf("elements = %d, want 3", got)
	}
	if q.Window.StartKind != pattern.StartOnMatch || q.Window.EndKind != pattern.EndCount || q.Window.Count != 8000 {
		t.Errorf("window spec = %+v, want on-match / count 8000", q.Window)
	}
	if q.Window.StartPred == nil {
		t.Fatal("window start predicate missing")
	}
	if !q.Pattern.HasConsumption() {
		t.Error("CONSUME clause not applied")
	}
	// The MLE predicate must hold only for rising blue chips.
	openIdx, _ := reg.LookupField("open")
	closeIdx, _ := reg.LookupField("close")
	blue, _ := reg.LookupType("BLUE00")
	other := reg.TypeID("XYZ")
	mk := func(ty event.Type, open, close float64) *event.Event {
		f := make([]float64, 2)
		f[openIdx] = open
		f[closeIdx] = close
		return &event.Event{Type: ty, Fields: f}
	}
	if !q.Window.StartPred(mk(blue, 10, 11)) {
		t.Error("rising blue chip should open a window")
	}
	if q.Window.StartPred(mk(blue, 11, 10)) {
		t.Error("falling blue chip must not open a window")
	}
	if q.Window.StartPred(mk(other, 10, 11)) {
		t.Error("non-leader must not open a window")
	}
}

func TestParseKleeneAndSlide(t *testing.T) {
	src := `
		PATTERN (A B+ C)
		DEFINE A AS A.close < 10,
		       B AS (B.close > 10 AND B.close < 20),
		       C AS C.close > 20
		WITHIN 500 EVENTS FROM EVERY 100 EVENTS
		CONSUME ALL
	`
	q, _ := mustParse(t, src)
	if q.Pattern.Elements[1].Step.Quant != pattern.OneOrMore {
		t.Error("B+ should be Kleene-plus")
	}
	if q.Window.StartKind != pattern.StartEvery || q.Window.Every != 100 {
		t.Errorf("window = %+v, want StartEvery 100", q.Window)
	}
	if q.Pattern.MinLength() != 3 {
		t.Errorf("min length = %d, want 3", q.Pattern.MinLength())
	}
}

func TestParseSetAndDuration(t *testing.T) {
	src := `
		PATTERN (A SET(X1 X2 X3))
		DEFINE A AS A.symbol = 'S0000',
		       X1 AS X1.symbol = 'S0001',
		       X2 AS X2.symbol = 'S0002',
		       X3 AS X3.symbol = 'S0003'
		WITHIN 1 min FROM A
		CONSUME (A X1 X2 X3)
	`
	q, _ := mustParse(t, src)
	if q.Window.EndKind != pattern.EndDuration || q.Window.Duration != time.Minute {
		t.Errorf("window = %+v, want 1-minute duration", q.Window)
	}
	if q.Pattern.Elements[1].Kind != pattern.ElemSet || len(q.Pattern.Elements[1].Set) != 3 {
		t.Fatalf("second element should be a 3-member set, got %+v", q.Pattern.Elements[1])
	}
	if q.Pattern.MinLength() != 4 {
		t.Errorf("min length = %d, want 4", q.Pattern.MinLength())
	}
}

func TestParseNegationAndPolicies(t *testing.T) {
	src := `
		PATTERN (A !C B)
		DEFINE A AS A.symbol = 'A', B AS B.symbol = 'B', C AS C.symbol = 'C'
		WITHIN 100 EVENTS FROM A
		CONSUME (B)
		ON MATCH RESTART LEADER
		RUNS 2
	`
	q, _ := mustParse(t, src)
	if !q.Pattern.Elements[1].Step.Negated {
		t.Error("!C should be negated")
	}
	if q.Pattern.Selection.OnCompletion != pattern.RestartAfterLeader {
		t.Errorf("OnCompletion = %v, want restart-after-leader", q.Pattern.Selection.OnCompletion)
	}
	if q.Pattern.Selection.MaxConcurrentRuns != 2 {
		t.Errorf("MaxConcurrentRuns = %d, want 2", q.Pattern.Selection.MaxConcurrentRuns)
	}
	if q.Pattern.Elements[2].Step.Consume != true || q.Pattern.Elements[0].Step.Consume {
		t.Error("CONSUME (B) should flag only B")
	}
}

func TestParseCrossVariablePredicate(t *testing.T) {
	// The paper's QE computes Factor = B.change / A.change; here we gate B
	// on a relation to the bound A.
	src := `
		PATTERN (A B)
		DEFINE A AS A.symbol = 'A',
		       B AS (B.symbol = 'B' AND B.x > A.x)
		WITHIN 100 EVENTS FROM A
	`
	q, reg := mustParse(t, src)
	eng, err := seqengine.New(q)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := reg.LookupType("A")
	tb, _ := reg.LookupType("B")
	xIdx, _ := reg.LookupField("x")
	mk := func(ty event.Type, x float64) event.Event {
		f := make([]float64, xIdx+1)
		f[xIdx] = x
		return event.Event{Type: ty, Fields: f}
	}
	out, _, err := eng.Run([]event.Event{
		mk(ta, 5), mk(tb, 3), mk(tb, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	// B with x=3 fails (3 < 5); B with x=7 matches.
	if len(out) != 1 || out[0].Key() != "query@0:0,2" {
		t.Fatalf("got %v, want [query@0:0,2]", out)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty pattern", `PATTERN () WITHIN 10 EVENTS`, "empty PATTERN"},
		{"unknown define", `PATTERN (A) DEFINE B AS B.x > 1 WITHIN 10 EVENTS FROM A`, "unknown pattern variable"},
		{"dup variable", `PATTERN (A A) WITHIN 10 EVENTS FROM A`, "duplicate pattern variable"},
		{"later reference", `PATTERN (A B) DEFINE A AS A.x > B.x WITHIN 10 EVENTS FROM A`, "later step"},
		{"bad consume", `PATTERN (A B) WITHIN 10 EVENTS FROM A CONSUME (Z)`, "unknown pattern variable"},
		{"type mismatch", `PATTERN (A) DEFINE A AS A.symbol > 3 WITHIN 10 EVENTS FROM A`, "cannot compare"},
		{"sym order", `PATTERN (A) DEFINE A AS A.symbol < 'X' WITHIN 10 EVENTS FROM A`, "only = and !="},
		{"bool arith", `PATTERN (A) DEFINE A AS (A.x > 1) + 2 WITHIN 10 EVENTS FROM A`, "arithmetic"},
		{"trailing", `PATTERN (A) WITHIN 10 EVENTS FROM A garbage`, "trailing"},
		{"missing within", `PATTERN (A)`, "expected WITHIN"},
		{"unterminated string", `PATTERN (A) DEFINE A AS A.symbol = 'x`, "unterminated"},
		{"leading negation", `PATTERN (!A B) WITHIN 10 EVENTS FROM B`, "negated"},
	}
	reg := event.NewRegistry()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src, reg)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.wantSub)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.wantSub)) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseErrorPositions checks that parse errors are structured
// *query.Error values carrying line AND column plus a caret excerpt of
// the offending source line.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantLine int
		wantCol  int
		wantStub string // substring of the issue message
		caretAt  string // the excerpt's caret must sit under this text
	}{
		{
			name:     "unknown consume variable",
			src:      "PATTERN (A B)\nWITHIN 10 EVENTS FROM A\nCONSUME (Z)",
			wantLine: 3, wantCol: 10,
			wantStub: "unknown pattern variable",
			caretAt:  "Z",
		},
		{
			name:     "type mismatch in define",
			src:      "PATTERN (A)\nDEFINE A AS A.symbol > 3\nWITHIN 10 EVENTS FROM A",
			wantLine: 2, wantCol: 22,
			wantStub: "cannot compare",
			caretAt:  ">",
		},
		{
			name:     "duplicate variable",
			src:      "PATTERN (Alpha,\n         Alpha)\nWITHIN 10 EVENTS",
			wantLine: 2, wantCol: 10,
			wantStub: "duplicate pattern variable",
			caretAt:  "Alpha",
		},
		{
			name:     "unterminated string",
			src:      "PATTERN (A)\nDEFINE A AS A.symbol = 'x",
			wantLine: 2, wantCol: 24,
			wantStub: "unterminated string",
			caretAt:  "'x",
		},
		{
			name:     "trailing input",
			src:      "PATTERN (A) WITHIN 10 EVENTS FROM A garbage",
			wantLine: 1, wantCol: 37,
			wantStub: "trailing",
			caretAt:  "garbage",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src, event.NewRegistry())
			if err == nil {
				t.Fatalf("Parse(%q) succeeded", tc.src)
			}
			var qe *query.Error
			if !errors.As(err, &qe) {
				t.Fatalf("error %T is not *query.Error: %v", err, err)
			}
			if len(qe.Issues) != 1 {
				t.Fatalf("want 1 issue, got %d: %v", len(qe.Issues), err)
			}
			is := qe.Issues[0]
			if is.Line != tc.wantLine || is.Col != tc.wantCol {
				t.Errorf("position = %d:%d, want %d:%d (err: %v)", is.Line, is.Col, tc.wantLine, tc.wantCol, err)
			}
			if !strings.Contains(is.Msg, tc.wantStub) {
				t.Errorf("message %q does not contain %q", is.Msg, tc.wantStub)
			}
			lines := strings.Split(is.Excerpt, "\n")
			if len(lines) != 2 {
				t.Fatalf("excerpt %q is not line+caret", is.Excerpt)
			}
			caret := strings.IndexByte(lines[1], '^')
			if caret < 0 || caret+len(tc.caretAt) > len(lines[0]) ||
				!strings.HasPrefix(lines[0][caret:], tc.caretAt) {
				t.Errorf("caret not under %q:\n%s", tc.caretAt, is.Excerpt)
			}
		})
	}
}

// TestParsedQueryRuns runs a parsed query end to end through the
// sequential engine.
func TestParsedQueryRuns(t *testing.T) {
	src := `
		QUERY rising
		PATTERN (MLE RE1 RE2)
		DEFINE MLE AS (MLE.symbol = 'LEAD' AND MLE.close > MLE.open),
		       RE1 AS RE1.close > RE1.open,
		       RE2 AS RE2.close > RE2.open
		WITHIN 10 EVENTS FROM MLE
		CONSUME ALL
	`
	q, reg := mustParse(t, src)
	eng, err := seqengine.New(q)
	if err != nil {
		t.Fatal(err)
	}
	lead, _ := reg.LookupType("LEAD")
	other := reg.TypeID("OTHER")
	openIdx, _ := reg.LookupField("open")
	closeIdx, _ := reg.LookupField("close")
	nf := max(openIdx, closeIdx) + 1
	mk := func(ty event.Type, open, close float64) event.Event {
		f := make([]float64, nf)
		f[openIdx] = open
		f[closeIdx] = close
		return event.Event{Type: ty, Fields: f}
	}
	out, stats, err := eng.Run([]event.Event{
		mk(lead, 10, 11),  // MLE rising: opens window, starts run
		mk(other, 5, 4),   // falling: ignored
		mk(other, 7, 8),   // rising: RE1
		mk(other, 3, 3.5), // rising: RE2 → match
		mk(other, 1, 2),   // rising, but detection stopped
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Key() != "rising@0:0,2,3" {
		t.Fatalf("got %v, want [rising@0:0,2,3]", out)
	}
	if stats.EventsConsumed != 3 {
		t.Errorf("consumed %d events, want 3", stats.EventsConsumed)
	}
}

func TestParsePartitionBy(t *testing.T) {
	t.Run("by type with shards", func(t *testing.T) {
		q, _ := mustParse(t, `
			PATTERN (A B)
			WITHIN 100 EVENTS FROM A
			CONSUME ALL
			PARTITION BY TYPE SHARDS 16
		`)
		if q.Partition == nil {
			t.Fatal("PARTITION BY clause not applied")
		}
		if !q.Partition.ByType || q.Partition.Shards != 16 {
			t.Fatalf("partition spec = %+v, want by-type, 16 shards", q.Partition)
		}
	})
	t.Run("by field", func(t *testing.T) {
		q, reg := mustParse(t, `
			PATTERN (A B)
			WITHIN 100 EVENTS FROM A
			PARTITION BY account
		`)
		if q.Partition == nil || q.Partition.ByType {
			t.Fatalf("partition spec = %+v, want by-field", q.Partition)
		}
		idx, ok := reg.LookupField("account")
		if !ok || q.Partition.Field != idx {
			t.Fatalf("field %q not resolved: spec=%+v idx=%d", "account", q.Partition, idx)
		}
		if q.Partition.FieldName != "account" || q.Partition.Shards != 0 {
			t.Fatalf("partition spec = %+v", q.Partition)
		}
	})
	t.Run("absent", func(t *testing.T) {
		q, _ := mustParse(t, `PATTERN (A B) WITHIN 10 EVENTS FROM A`)
		if q.Partition != nil {
			t.Fatalf("unexpected partition spec %+v", q.Partition)
		}
	})
	t.Run("after selection clauses", func(t *testing.T) {
		q, _ := mustParse(t, `
			PATTERN (A B)
			WITHIN 10 EVENTS FROM A
			ON MATCH RESTART RUNS 2
			PARTITION BY TYPE
		`)
		if q.Partition == nil || !q.Partition.ByType {
			t.Fatalf("partition spec = %+v", q.Partition)
		}
	})
	t.Run("errors", func(t *testing.T) {
		for _, src := range []string{
			`PATTERN (A B) WITHIN 10 EVENTS FROM A PARTITION TYPE`,
			`PATTERN (A B) WITHIN 10 EVENTS FROM A PARTITION BY`,
			`PATTERN (A B) WITHIN 10 EVENTS FROM A PARTITION BY TYPE SHARDS 0`,
			`PATTERN (A B) WITHIN 10 EVENTS FROM A PARTITION BY TYPE SHARDS x`,
		} {
			if _, err := Parse(src, event.NewRegistry()); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", src)
			}
		}
	})
}

// stepBinder is a pointer-receiver Binder like the matcher's runs: one
// slice of bound events per flat step.
type stepBinder struct{ bound [][]*event.Event }

func (b *stepBinder) Bound(step int) []*event.Event {
	if step < 0 || step >= len(b.bound) {
		return nil
	}
	return b.bound[step]
}

// TestConjunctAllocs guards parsed predicate evaluation: a conjunct
// evaluates without touching the heap, whatever its node types.
func TestConjunctAllocs(t *testing.T) {
	q, reg := mustParse(t, `
		PATTERN (A B C D)
		DEFINE A AS A.close > A.open,
		       B AS B.close > A.close,
		       C AS C.symbol IN ('X', 'Y'),
		       D AS D.close * 2 - D.open >= (A.open + 1) / 2
		WITHIN 100 EVENTS FROM A
	`)
	open, _ := reg.LookupField("open")
	closeF, _ := reg.LookupField("close")
	fields := func(o, c float64) []float64 {
		f := make([]float64, max(open, closeF)+1)
		f[open], f[closeF] = o, c
		return f
	}
	tx, _ := reg.LookupType("X")
	a := &event.Event{Seq: 1, Type: tx, Fields: fields(1, 2)}
	ev := &event.Event{Seq: 2, Type: tx, Fields: fields(1, 3)}
	b := &stepBinder{bound: [][]*event.Event{{a}}}
	flat := q.Pattern.FlatSteps()
	for i, name := range []string{"self-only", "cross-variable", "IN list", "arithmetic"} {
		conj := flat[i].Step.Conjuncts
		if len(conj) != 1 {
			t.Fatalf("%s: %d conjuncts, want 1", name, len(conj))
		}
		pred := conj[0].Pred
		if !pred(ev, b) {
			t.Fatalf("%s: conjunct rejects its event", name)
		}
		var binder pattern.Binder = b
		if conj[0].BindingFree {
			binder = nil
		}
		if n := testing.AllocsPerRun(1000, func() { pred(ev, binder) }); n != 0 {
			t.Errorf("%s conjunct: %v allocs per evaluation, want 0", name, n)
		}
	}
}
