package deptree

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/matcher"
	"github.com/spectrecep/spectre/internal/pattern"
)

// TestRecycleResetsVersion: by reflection over every field of
// WindowVersion, a version recycled after a full life — attached to a
// tree, processed, rolled back, validated, dropped — equals a fresh one
// of the same id, window and suppression set except for buffer
// capacities, both right away and once ResetToStart started them. The
// recycled version keeps no complex event reachable.
func TestRecycleResetsVersion(t *testing.T) {
	c, err := matcher.Compile(pattern.Seq("recycle",
		pattern.Step{Name: "A", Types: []event.Type{1}, Consume: true},
		pattern.Step{Name: "B", Types: []event.Type{2}, Consume: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness()
	root := h.tree.NewWindow(h.window(0, 100))[0]
	used := h.tree.NewWindow(h.window(50, 150))[0]
	h.tree.CGCreated(h.cg(root))
	used.ResetToStart(c)
	var fb []matcher.Feedback
	for seq := uint64(50); seq < 53; seq++ {
		fb = used.State.Process(&event.Event{Seq: seq, Type: 1}, fb[:0])
	}
	if used.State.OpenRuns() == 0 {
		t.Fatal("setup: the used version has no open run")
	}
	used.Used = append(used.Used, 50, 51)
	used.Skipped = append(used.Skipped, 52)
	used.LocalConsumed = append(used.LocalConsumed, 49)
	used.Buffered = append(used.Buffered, event.Complex{Query: "q", Constituents: []uint64{1, 2}}, event.Complex{Query: "q"})
	used.Buffered = used.Buffered[:1]
	used.RunCGs[0] = h.cg(used)
	used.LastChecked = append(used.LastChecked, 7)
	used.Rollbacks, used.StatsEligible, used.SchedMark = 2, true, 9
	used.SetScheduledOn(1)
	used.MarkValidated()
	used.MarkFinished()
	used.SetPos(80)
	h.tree.dropSubtree(&used.node)

	win, sup := h.window(200, 300), []*CG{h.cg(root)}
	fresh := NewWindowVersion(41, win, sup)
	used.Recycle(41, win, sup)
	if err := sameExceptCapacity("WindowVersion", reflect.ValueOf(fresh).Elem(), reflect.ValueOf(used).Elem()); err != nil {
		t.Fatalf("recycled version: %v", err)
	}
	for i, ce := range used.Buffered[:cap(used.Buffered)] {
		if ce.Query != "" || ce.Constituents != nil {
			t.Fatalf("recycled version still holds buffered complex event %d", i)
		}
	}
	fresh.ResetToStart(c)
	used.ResetToStart(c)
	if err := sameExceptCapacity("WindowVersion", reflect.ValueOf(fresh).Elem(), reflect.ValueOf(used).Elem()); err != nil {
		t.Fatalf("recycled version once started: %v", err)
	}
}

// sameExceptCapacity compares a and b field by field. Slices compare by
// length and elements, maps by entries, a matcher state by behaviour (open
// runs, stop flag, and the feedback of one event that starts a run),
// other pointers by identity; the matcher state a recycled version keeps
// for its next start is a buffer and not compared.
func sameExceptCapacity(path string, a, b reflect.Value) error {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			f := a.Type().Field(i)
			if a.Type() == reflect.TypeFor[WindowVersion]() && f.Name == "kept" {
				continue
			}
			if err := sameExceptCapacity(path+"."+f.Name, a.Field(i), b.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: length %d, fresh %d", path, b.Len(), a.Len())
		}
		for i := range a.Len() {
			if err := sameExceptCapacity(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: %d entries, fresh %d", path, b.Len(), a.Len())
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || bv.Pointer() != a.MapIndex(k).Pointer() {
				return fmt.Errorf("%s: entry %v differs", path, k)
			}
		}
	case reflect.Pointer:
		if a.Type() == reflect.TypeFor[*matcher.State]() && !a.IsNil() && !b.IsNil() {
			return sameState(path, a.Interface().(*matcher.State), b.Interface().(*matcher.State))
		}
		if a.Pointer() != b.Pointer() {
			return fmt.Errorf("%s: pointer differs from the fresh version's", path)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Errorf("%s: %v, fresh %v", path, b.Bool(), a.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s: %d, fresh %d", path, b.Int(), a.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Errorf("%s: %d, fresh %d", path, b.Uint(), a.Uint())
		}
	default:
		return fmt.Errorf("%s: unhandled kind %v", path, a.Kind())
	}
	return nil
}

// sameState compares two matcher states by what they do next.
func sameState(path string, fresh, used *matcher.State) error {
	if fresh.OpenRuns() != used.OpenRuns() || fresh.Stopped() != used.Stopped() {
		return fmt.Errorf("%s: %d open runs, stopped %v; fresh %d, %v", path, used.OpenRuns(), used.Stopped(), fresh.OpenRuns(), fresh.Stopped())
	}
	ev := &event.Event{Seq: 210, Type: 1}
	want := fresh.Process(ev, nil)
	got := used.Process(ev, nil)
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d feedback items for one event, fresh %d", path, len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Run != want[i].Run || got[i].Delta != want[i].Delta {
			return fmt.Errorf("%s: feedback %d is %+v, fresh %+v", path, i, got[i], want[i])
		}
	}
	return nil
}
