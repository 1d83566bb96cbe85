package parser

import (
	"errors"
	"math"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
	"github.com/spectrecep/spectre/query"
)

// FuzzParseQuery asserts four invariants over arbitrary input:
//
//  1. Parse never panics (garbage in, *query.Error out);
//  2. every error is a structured *query.Error with at least one issue;
//  3. accepted input round-trips its builder lowering: the compiled query
//     passes validation and re-parsing into a fresh registry yields a
//     structurally identical query (lowering is deterministic, and
//     interned ids depend only on first-use order);
//  4. accepted predicates evaluate: every step's Matches runs on a few
//     fixed events, with no binder and with one event bound per step,
//     without panicking, and the parse and the re-parse agree.
//
// CI runs it as a short -fuzztime smoke.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		`PATTERN (A B) WITHIN 10 EVENTS FROM A`,
		`QUERY Q1
		 PATTERN (MLE RE1 RE2)
		 DEFINE MLE AS (MLE.symbol IN ('BLUE00','BLUE01') AND MLE.close > MLE.open),
		        RE1 AS RE1.close > RE1.open,
		        RE2 AS RE2.close > RE2.open
		 WITHIN 8000 EVENTS FROM MLE
		 CONSUME (MLE RE1 RE2)`,
		`PATTERN (A B+ C)
		 DEFINE A AS A.close < 10, B AS (B.close > 10 AND B.close < 20), C AS C.close > 20
		 WITHIN 500 EVENTS FROM EVERY 100 EVENTS
		 CONSUME ALL`,
		`PATTERN (A SET(X1 X2 X3))
		 DEFINE A AS A.symbol = 'S0000'
		 WITHIN 1 min FROM A
		 CONSUME (A X1)`,
		`PATTERN (A !C B)
		 DEFINE A AS A.symbol = 'A', B AS NOT (B.x + 1 <= A.x * -2) OR B.x IN (1, 2), C AS C.symbol = 'C'
		 WITHIN 100 EVENTS FROM A
		 CONSUME (B)
		 ON MATCH RESTART LEADER
		 RUNS 2
		 PARTITION BY account SHARDS 4`,
		`-- comment
		 PATTERN (A) WITHIN 2.5 sec FROM A PARTITION BY TYPE`,
		`PATTERN () WITHIN 10 EVENTS`,
		`PATTERN (A B WITHIN`,
		"PATTERN (A)\nDEFINE A AS A.symbol = 'x",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src, event.NewRegistry())
		if err != nil {
			var qe *query.Error
			if !errors.As(err, &qe) {
				t.Fatalf("parse error is not *query.Error: %T %v", err, err)
			}
			if len(qe.Issues) == 0 {
				t.Fatalf("structured error with no issues: %v", err)
			}
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted query fails validation: %v", err)
		}
		q2, err := Parse(src, event.NewRegistry())
		if err != nil {
			t.Fatalf("accepted input fails to re-parse: %v", err)
		}
		if d := query.Diff(q, q2); d != "" {
			t.Fatalf("re-parse differs structurally: %s", d)
		}
		flat, flat2 := q.Pattern.FlatSteps(), q2.Pattern.FlatSteps()
		bound := &stepBinder{bound: make([][]*event.Event, len(flat))}
		for i := range bound.bound {
			bound.bound[i] = []*event.Event{&fuzzEvents[i%len(fuzzEvents)]}
		}
		for _, b := range []pattern.Binder{nil, bound} {
			for i := range fuzzEvents {
				ev := &fuzzEvents[i]
				for j := range flat {
					if got, want := flat[j].Step.Matches(ev, b), flat2[j].Step.Matches(ev, b); got != want {
						t.Fatalf("step %s on event %d (binder %t): parse %t, re-parse %t",
							flat[j].Step.Name, i, b != nil, got, want)
					}
				}
			}
		}
	})
}

// fuzzEvents are the fixed candidates FuzzParseQuery evaluates accepted
// predicates on: the first interned types, and payloads that are short,
// zero, negative, huge or NaN, so every comparison and division path runs.
var fuzzEvents = []event.Event{
	{Seq: 1, Type: 1},
	{Seq: 2, Type: 2, Fields: []float64{1, 2, 3}},
	{Seq: 3, Type: 3, Fields: []float64{0, -1, 0, -2.5, 7}},
	{Seq: 4, Type: 1, Fields: []float64{1e308, math.Inf(-1), math.NaN(), 1}},
}
