package shed

import (
	"testing"

	"github.com/spectrecep/spectre/internal/event"
)

const testCap = 1000 // watermarks at 500 / 900

func TestBelowLowWatermarkKeepsEverything(t *testing.T) {
	s := New(Config{QueueCap: testCap})
	for i := 0; i < 10_000; i++ {
		if !s.Offer(event.Type(i%4), 500) {
			t.Fatalf("event %d shed at depth == low watermark", i)
		}
	}
	if s.Shed() != 0 || s.Kept() != 10_000 {
		t.Fatalf("kept=%d shed=%d, want 10000/0", s.Kept(), s.Shed())
	}
}

func TestAboveHighWatermarkShedsEverything(t *testing.T) {
	s := New(Config{QueueCap: testCap})
	for i := 0; i < 10_000; i++ {
		if s.Offer(event.Type(i%4), 900) {
			t.Fatalf("event %d kept at depth == high watermark", i)
		}
	}
	if s.Kept() != 0 {
		t.Fatalf("kept=%d, want 0 above the high watermark", s.Kept())
	}
}

func TestShedFractionRampsWithDepth(t *testing.T) {
	// A single type at the mid-point between the watermarks: rank is
	// uniform over its own bucket, so roughly half the offers must shed.
	s := New(Config{QueueCap: testCap})
	const n = 20_000
	for i := 0; i < n; i++ {
		s.Offer(1, 700)
	}
	frac := float64(s.Shed()) / float64(n)
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("shed fraction %.3f at mid-ramp depth, want ~0.5", frac)
	}
}

func TestUtilityPrefersContributingType(t *testing.T) {
	// Type 1 contributes to matches, type 2 never does. After feedback
	// folds in, type 1's utility must dominate and type 2 must absorb
	// nearly all of the shedding at a moderate shed fraction.
	s := New(Config{QueueCap: testCap})
	for round := 0; round < 8; round++ {
		for i := 0; i < refreshEvery; i++ {
			tp := event.Type(1 + i%2)
			if s.Offer(tp, 100) && tp == 1 {
				s.NoteMatch(1)
			}
		}
	}
	if u1, u2 := s.Utility(1), s.Utility(2); u1 <= u2+0.2 {
		t.Fatalf("utility(contributing)=%.3f vs utility(idle)=%.3f, want clear separation", u1, u2)
	}

	kept1, shed1, kept2, shed2 := 0, 0, 0, 0
	for i := 0; i < 20_000; i++ {
		tp := event.Type(1 + i%2)
		keep := s.Offer(tp, 650) // ~3/8 shed fraction
		switch {
		case tp == 1 && keep:
			kept1++
			s.NoteMatch(1)
		case tp == 1:
			shed1++
		case keep:
			kept2++
		default:
			shed2++
		}
	}
	rate1 := float64(shed1) / float64(kept1+shed1)
	rate2 := float64(shed2) / float64(kept2+shed2)
	if rate1 >= rate2 {
		t.Fatalf("contributing type shed at %.3f, idle type at %.3f: utility ordering lost", rate1, rate2)
	}
	if rate1 > 0.10 {
		t.Fatalf("contributing type shed at %.3f, want near-zero while the idle type absorbs the load", rate1)
	}
}

func TestPriorSeedsUtilityBeforeFeedback(t *testing.T) {
	prior := func(tp event.Type) float64 {
		if tp == 1 {
			return 0.9
		}
		return 0.1
	}
	s := New(Config{QueueCap: testCap, Prior: prior})
	s.Offer(1, 0)
	s.Offer(2, 0)
	if u1, u2 := s.Utility(1), s.Utility(2); u1 != 0.9 || u2 != 0.1 {
		t.Fatalf("pre-feedback utilities %.2f/%.2f, want the plan priors 0.9/0.1", u1, u2)
	}
}

func TestWatermarkDefaultsAndClamping(t *testing.T) {
	s := New(Config{QueueCap: 100, LowFrac: 2.5, HighFrac: -1})
	if s.low != 50 || s.high != 90 {
		t.Fatalf("invalid fractions gave watermarks %d/%d, want defaults 50/90", s.low, s.high)
	}
	s = New(Config{QueueCap: 1})
	if s.high <= s.low {
		t.Fatalf("degenerate cap: high=%d low=%d, want high > low", s.high, s.low)
	}
}
