package event

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers interning and lookup from many
// goroutines; run under -race it proves the registry is safe to share
// (e.g. between concurrent Runtime.Submit calls resolving partition
// fields).
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 8
		types      = 50
		fields     = 20
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				name := fmt.Sprintf("T%02d", (i+g)%types)
				id := reg.TypeID(name)
				if got, ok := reg.LookupType(name); !ok || got != id {
					t.Errorf("LookupType(%q) = %d,%v after TypeID returned %d", name, got, ok, id)
					return
				}
				if got := reg.TypeName(id); got != name {
					t.Errorf("TypeName(%d) = %q, want %q", id, got, name)
					return
				}
				fname := fmt.Sprintf("f%d", (i*7+g)%fields)
				idx := reg.FieldIndex(fname)
				if got := reg.FieldName(idx); got != fname {
					t.Errorf("FieldName(%d) = %q, want %q", idx, got, fname)
					return
				}
				_ = reg.NumTypes()
				_ = reg.NumFields()
			}
		}(g)
	}
	wg.Wait()
	if got := reg.NumTypes(); got != types {
		t.Fatalf("NumTypes = %d, want %d (ids must stay dense under contention)", got, types)
	}
	if got := reg.NumFields(); got != fields {
		t.Fatalf("NumFields = %d, want %d", got, fields)
	}
}

func TestRegistryInterning(t *testing.T) {
	reg := NewRegistry()
	a := reg.TypeID("AAPL")
	b := reg.TypeID("MSFT")
	if a == b || a == NoType || b == NoType {
		t.Fatalf("ids must be distinct and non-zero: %d %d", a, b)
	}
	if got := reg.TypeID("AAPL"); got != a {
		t.Fatal("interning must be stable")
	}
	if name := reg.TypeName(a); name != "AAPL" {
		t.Fatalf("name = %q", name)
	}
	if _, ok := reg.LookupType("GOOG"); ok {
		t.Fatal("lookup must not intern")
	}
	if reg.NumTypes() != 2 {
		t.Fatalf("NumTypes = %d, want 2", reg.NumTypes())
	}
	if reg.TypeName(Type(99)) != "" {
		t.Fatal("unknown id must render empty")
	}
}

func TestRegistryFields(t *testing.T) {
	reg := NewRegistry()
	open := reg.FieldIndex("open")
	closeIdx := reg.FieldIndex("close")
	if open == closeIdx {
		t.Fatal("field indices must be distinct")
	}
	if got := reg.FieldIndex("open"); got != open {
		t.Fatal("field interning must be stable")
	}
	if idx, ok := reg.LookupField("close"); !ok || idx != closeIdx {
		t.Fatal("lookup must find interned fields")
	}
	if reg.FieldName(open) != "open" || reg.FieldName(42) != "" {
		t.Fatal("FieldName mismatch")
	}
	if reg.NumFields() != 2 {
		t.Fatalf("NumFields = %d, want 2", reg.NumFields())
	}
}

func TestEventField(t *testing.T) {
	ev := Event{Fields: []float64{1.5, 2.5}}
	if ev.Field(0) != 1.5 || ev.Field(1) != 2.5 {
		t.Fatal("field access")
	}
	if ev.Field(2) != 0 || ev.Field(-1) != 0 {
		t.Fatal("out-of-range fields must read as 0")
	}
	c := ev.Clone()
	c.Fields[0] = 9
	if ev.Fields[0] != 1.5 {
		t.Fatal("clone must not share the fields slice")
	}
}

func TestComplexKey(t *testing.T) {
	ce := Complex{Query: "Q", WindowID: 3, Constituents: []uint64{1, 2, 5}}
	if ce.Key() != "Q@3:1,2,5" {
		t.Fatalf("key = %q", ce.Key())
	}
	other := Complex{Query: "Q", WindowID: 3, Constituents: []uint64{1, 2, 6}}
	if ce.Key() == other.Key() {
		t.Fatal("different constituents must yield different keys")
	}
	cl := ce.Clone()
	cl.Constituents[0] = 9
	if ce.Constituents[0] != 1 {
		t.Fatal("clone must deep-copy constituents")
	}
}

func TestFormat(t *testing.T) {
	reg := NewRegistry()
	ty := reg.TypeID("X")
	reg.FieldIndex("open")
	ev := Event{Seq: 7, Type: ty, Fields: []float64{3}}
	if got := reg.Format(&ev); got != "X#7(open=3)" {
		t.Fatalf("format = %q", got)
	}
}

// TestTranslationReordered: a peer that interned the same names in another
// order has its type ids and field indexes rewritten into the local
// assignment.
func TestTranslationReordered(t *testing.T) {
	local := NewRegistry()
	local.TypeID("C")
	local.TypeID("A")
	local.TypeID("B")
	local.FieldIndex("y")
	local.FieldIndex("x")
	tr := NewTranslation(local)
	tr.SetTypes([]string{"A", "B", "C"})
	tr.SetFields([]string{"x", "y"})
	evs := []Event{
		{Seq: 1, Type: 1, Fields: []float64{10, 20}},
		{Seq: 2, Type: 3, Fields: []float64{30}},
		{Seq: 3, Type: 2},
	}
	if err := tr.Apply(evs); err != nil {
		t.Fatal(err)
	}
	x, y := local.FieldIndex("x"), local.FieldIndex("y")
	for i, want := range []struct {
		name string
		x, y float64
	}{{"A", 10, 20}, {"C", 30, 0}, {"B", 0, 0}} {
		ev := &evs[i]
		if got := local.TypeName(ev.Type); got != want.name {
			t.Fatalf("event %d type %q, want %q", i, got, want.name)
		}
		if ev.Field(x) != want.x || ev.Field(y) != want.y {
			t.Fatalf("event %d fields %v, want x=%v y=%v", i, ev.Fields, want.x, want.y)
		}
	}
}

// TestTranslationFieldPastTable: field indexes past the announced table
// pass through unchanged while the announced ones move.
func TestTranslationFieldPastTable(t *testing.T) {
	local := NewRegistry()
	local.TypeID("A")
	local.FieldIndex("y")
	local.FieldIndex("x")
	tr := NewTranslation(local)
	tr.SetTypes([]string{"A"})
	tr.SetFields([]string{"x", "y"})
	evs := []Event{{Type: 1, Fields: []float64{1, 2, 3, 4}}}
	if err := tr.Apply(evs); err != nil {
		t.Fatal(err)
	}
	if got, want := evs[0].Fields, []float64{2, 1, 3, 4}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fields %v, want %v", got, want)
	}
}

// TestTranslationRejectsTypePastTable: a type id the announced table does
// not hold is an error on both the identity and the remapping path, and
// passes through only while no type table was announced.
func TestTranslationRejectsTypePastTable(t *testing.T) {
	for _, order := range [][]string{{"A", "B"}, {"B", "A"}} {
		local := NewRegistry()
		for _, name := range order {
			local.TypeID(name)
		}
		tr := NewTranslation(local)
		if err := tr.Apply([]Event{{Type: 9}}); err != nil {
			t.Fatalf("%v: no table announced yet, Apply = %v", order, err)
		}
		tr.SetTypes([]string{"A", "B"})
		if err := tr.Apply([]Event{{Type: 2}}); err != nil {
			t.Fatalf("%v: type 2 of 2: %v", order, err)
		}
		if err := tr.Apply([]Event{{Type: 3}}); err == nil {
			t.Fatalf("%v: type 3 past a 2-type table accepted", order)
		}
	}
}

// TestTranslationIdentity: a peer whose tables match the local assignment
// leaves events untouched — not even the field slices are copied.
func TestTranslationIdentity(t *testing.T) {
	local := NewRegistry()
	local.TypeID("A")
	local.TypeID("B")
	local.FieldIndex("x")
	tr := NewTranslation(local)
	tr.SetTypes(local.TypeNames())
	tr.SetFields(local.FieldNames())
	fields := []float64{7, 8}
	evs := []Event{{Type: 2, Fields: fields}}
	if err := tr.Apply(evs); err != nil {
		t.Fatal(err)
	}
	if evs[0].Type != 2 || &evs[0].Fields[0] != &fields[0] {
		t.Fatalf("identity translation rewrote the event: %+v", evs[0])
	}
}
