package stream

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"github.com/spectrecep/spectre/internal/event"
)

func TestSliceSource(t *testing.T) {
	evs := []event.Event{{TS: 1}, {TS: 2}}
	s := FromSlice(evs)
	if s.Len() != 2 {
		t.Fatal("len")
	}
	got := Collect(s)
	if len(got) != 2 || got[0].TS != 1 || got[1].TS != 2 {
		t.Fatalf("collect = %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source must report false")
	}
	s.Reset()
	if ev, ok := s.Next(); !ok || ev.TS != 1 {
		t.Fatal("reset must rewind")
	}
}

func TestChanSource(t *testing.T) {
	ch := make(chan event.Event, 2)
	ch <- event.Event{TS: 5}
	close(ch)
	got := Collect(FromChan(ch))
	if len(got) != 1 || got[0].TS != 5 {
		t.Fatalf("collect = %v", got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	reg := event.NewRegistry()
	a := reg.TypeID("AAPL")
	b := reg.TypeID("BRK.B")
	evs := []event.Event{
		{TS: 100, Type: a, Fields: []float64{1.25, -3}},
		{TS: 200, Type: b, Fields: []float64{0.5}},
		{TS: 300, Type: a},
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, reg, evs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("read %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i].TS != evs[i].TS || got[i].Type != evs[i].Type {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
		if len(got[i].Fields) != len(evs[i].Fields) {
			t.Fatalf("event %d fields: %v vs %v", i, got[i].Fields, evs[i].Fields)
		}
		for j := range evs[i].Fields {
			if got[i].Fields[j] != evs[i].Fields[j] {
				t.Fatalf("event %d field %d: %g vs %g", i, j, got[i].Fields[j], evs[i].Fields[j])
			}
		}
	}
}

// TestFileRoundTripProperty: arbitrary finite field values survive the
// text codec.
func TestFileRoundTripProperty(t *testing.T) {
	reg := event.NewRegistry()
	ty := reg.TypeID("X")
	check := func(ts int64, f1, f2 float64) bool {
		if f1 != f1 || f2 != f2 { // NaN
			return true
		}
		evs := []event.Event{{TS: ts, Type: ty, Fields: []float64{f1, f2}}}
		var buf bytes.Buffer
		if err := WriteEvents(&buf, reg, evs); err != nil {
			return false
		}
		got, err := ReadEvents(&buf, reg)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0].TS == ts && got[0].Fields[0] == f1 && got[0].Fields[1] == f2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEventsSkipsCommentsAndBlank(t *testing.T) {
	reg := event.NewRegistry()
	got, err := ReadEvents(strings.NewReader("# header\n\n10 A 1.5\n"), reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TS != 10 {
		t.Fatalf("got %v", got)
	}
}

// TestReadEventsBindsFieldsByName: the fields header names positions, so
// a registry that interned the names in another order still reads each
// value under its own name.
func TestReadEventsBindsFieldsByName(t *testing.T) {
	src := event.NewRegistry()
	src.FieldIndex("open")
	src.FieldIndex("close")
	var buf bytes.Buffer
	if err := WriteEvents(&buf, src, []event.Event{{TS: 1, Type: src.TypeID("A"), Fields: []float64{10, 12}}}); err != nil {
		t.Fatal(err)
	}
	reg := event.NewRegistry()
	closeIdx, openIdx := reg.FieldIndex("close"), reg.FieldIndex("open")
	got, err := ReadEvents(&buf, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Field(openIdx) != 10 || got[0].Field(closeIdx) != 12 {
		t.Fatalf("got %v, want open=10 close=12", got)
	}
}

func TestReadEventsErrors(t *testing.T) {
	reg := event.NewRegistry()
	for _, bad := range []string{"10\n", "xx A\n", "10 A zz\n"} {
		if _, err := ReadEvents(strings.NewReader(bad), reg); err == nil {
			t.Fatalf("input %q must fail", bad)
		}
	}
}

func TestEmptySliceSource(t *testing.T) {
	s := FromSlice(nil)
	if s.Len() != 0 {
		t.Fatal("empty source must report zero length")
	}
	if ev, ok := s.Next(); ok || ev.TS != 0 || ev.Type != event.NoType {
		t.Fatalf("empty source yielded (%+v, %v), want zero event and false", ev, ok)
	}
	// Next after exhaustion stays terminal and allocation-free.
	if _, ok := s.Next(); ok {
		t.Fatal("empty source must stay exhausted")
	}
	if got := Collect(s); len(got) != 0 {
		t.Fatalf("Collect(empty) = %v", got)
	}
	s.Reset()
	if _, ok := s.Next(); ok {
		t.Fatal("reset of an empty source must stay empty")
	}
}

func TestChanSourceClosedBeforeFirstRead(t *testing.T) {
	ch := make(chan event.Event)
	close(ch)
	s := FromChan(ch)
	if ev, ok := s.Next(); ok || ev.TS != 0 {
		t.Fatalf("closed channel yielded (%+v, %v), want zero event and false", ev, ok)
	}
	// Reading a closed channel repeatedly keeps returning end-of-stream.
	if _, ok := s.Next(); ok {
		t.Fatal("closed channel source must stay exhausted")
	}
	if got := Collect(s); len(got) != 0 {
		t.Fatalf("Collect over closed channel = %v", got)
	}
}
