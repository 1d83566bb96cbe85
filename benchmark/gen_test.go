package main

import (
	"reflect"
	"testing"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/event"
)

// The seed decides which quotes move, never how many: that is what lets a
// metric hold its bound across seeds.
func TestQuoteStreamFixesTheCountsAndNotTheContent(t *testing.T) {
	const n = 20 * nyseSymbols
	regA, regB := event.NewRegistry(), event.NewRegistry()
	a := quoteStream(regA, 1, n, nyseSymbols, nyseLeaders)
	b := quoteStream(regB, 2, n, nyseSymbols, nyseLeaders)
	if len(a) != n || len(b) != n {
		t.Fatalf("lengths %d, %d, want %d", len(a), len(b), n)
	}
	openIdx, closeIdx := dataset.Fields(regA)
	risers := func(evs []event.Event, minute, lo, hi int) (n int) {
		for _, ev := range evs[minute*nyseSymbols+lo : minute*nyseSymbols+hi] {
			if ev.Fields[closeIdx] > ev.Fields[openIdx] {
				n++
			}
		}
		return n
	}
	same := 0
	for m := 0; m < n/nyseSymbols; m++ {
		for _, g := range [][2]int{{0, nyseLeaders}, {nyseLeaders, nyseSymbols}} {
			if ra, rb := risers(a, m, g[0], g[1]), risers(b, m, g[0], g[1]); ra != rb {
				t.Errorf("minute %d, symbols %d..%d: %d risers at seed 1, %d at seed 2", m, g[0], g[1], ra, rb)
			}
		}
		rich := m%richEvery == richEvery-1
		if got := risers(a, m, 0, nyseSymbols); (got > 4*640/16) != rich {
			t.Errorf("minute %d: %d risers, rich=%v", m, got, rich)
		}
		for s := 0; s < nyseSymbols; s++ {
			i := m*nyseSymbols + s
			if (a[i].Fields[closeIdx] > a[i].Fields[openIdx]) == (b[i].Fields[closeIdx] > b[i].Fields[openIdx]) {
				same++
			}
		}
	}
	if same == n {
		t.Error("two seeds moved exactly the same quotes")
	}
}

func TestQuoteStreamIsAFunctionOfTheSeedAndAPrefixOfALongerOne(t *testing.T) {
	reg := event.NewRegistry()
	a := quoteStream(reg, 7, 3000, nyseSymbols, nyseLeaders)
	b := quoteStream(reg, 7, 3000, nyseSymbols, nyseLeaders)
	long := quoteStream(reg, 7, 6000, nyseSymbols, nyseLeaders)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different streams")
	}
	if !reflect.DeepEqual(a, long[:3000]) {
		t.Error("the short stream is not a prefix of the long one")
	}
	if a[0].Type != reg.TypeID(dataset.LeaderSymbol(0)) || a[nyseLeaders].Type != reg.TypeID(dataset.Symbol(0)) {
		t.Error("a minute does not start with the leaders")
	}
}
