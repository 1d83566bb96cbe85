package spectre_test

import (
	"context"
	"testing"

	spectre "github.com/spectrecep/spectre"
)

// TestSchedulerOptions runs the k-slot top-k walk under the learned
// completion model and under the Fig. 11 fixed-probability baseline:
// both must produce the sequential output and populate the slot
// utilization counters.
func TestSchedulerOptions(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{Symbols: 20, Leaders: 4, Minutes: 60, Seed: 3})
	q, err := buildQ1(reg, 5, 200, 4)
	if err != nil {
		t.Fatal(err)
	}

	want, _, err := spectre.RunSequential(q, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	schedulers := []struct {
		label string
		opts  []spectre.Option
	}{
		{"topk", nil},
		{"fixedprob", []spectre.Option{spectre.WithFixedProbability(0.5)}},
	}
	for _, sc := range schedulers {
		t.Run(sc.label, func(t *testing.T) {
			opts := append([]spectre.Option{spectre.WithInstances(4)}, sc.opts...)
			eng, err := spectre.NewEngine(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var got []spectre.ComplexEvent
			err = eng.Run(context.Background(), spectre.FromSlice(events), spectre.SinkFunc(func(ce spectre.ComplexEvent) {
				got = append(got, ce)
			}))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s emitted %d complex events, sequential %d", sc.label, len(got), len(want))
			}
			for i := range want {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("%s: event %d differs: %s vs %s", sc.label, i, got[i].Key(), want[i].Key())
				}
			}
			m := eng.Metrics()
			if m.SlotCyclesActive == 0 {
				t.Fatal("per-engine metrics must expose the slot-occupancy counters")
			}
			if u := m.SlotUtilization(); u < 0 || u > 1 {
				t.Fatalf("slot utilization %f out of range", u)
			}
		})
	}
}
