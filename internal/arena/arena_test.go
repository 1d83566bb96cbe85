package arena

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/spectrecep/spectre/internal/event"
)

func TestAppendGet(t *testing.T) {
	a := New()
	if a.Len() != 0 {
		t.Fatal("new arena must be empty")
	}
	const n = 3 * chunkSize / 2 // crosses a chunk boundary
	for i := 0; i < n; i++ {
		seq := a.Append(event.Event{TS: int64(i), Type: event.Type(i % 7)})
		if seq != uint64(i) {
			t.Fatalf("assigned seq %d, want %d", seq, i)
		}
	}
	if a.Len() != n {
		t.Fatalf("len = %d, want %d", a.Len(), n)
	}
	for i := 0; i < n; i += 97 {
		ev := a.Get(uint64(i))
		if ev.Seq != uint64(i) || ev.TS != int64(i) {
			t.Fatalf("Get(%d) = %+v", i, ev)
		}
	}
}

func TestPointerStability(t *testing.T) {
	a := New()
	a.Append(event.Event{TS: 42})
	p := a.Get(0)
	// Grow across many chunks; the first pointer must stay valid.
	for i := 0; i < 4*chunkSize; i++ {
		a.Append(event.Event{TS: int64(i)})
	}
	if p != a.Get(0) || p.TS != 42 {
		t.Fatal("event pointers must be stable across growth")
	}
}

// TestConcurrentReaders exercises the single-writer/multi-reader contract
// under the race detector.
func TestConcurrentReaders(t *testing.T) {
	a := New()
	const n = 2 * chunkSize
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := a.Len()
				if l == 0 {
					continue
				}
				ev := a.Get(l - 1)
				if ev.Seq != l-1 {
					t.Errorf("read seq %d at len %d", ev.Seq, l)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		a.Append(event.Event{TS: int64(i)})
	}
	close(stop)
	wg.Wait()
}

func TestConsumedSet(t *testing.T) {
	s := NewConsumedSet()
	if s.Contains(0) || s.Count() != 0 {
		t.Fatal("new set must be empty")
	}
	s.Mark(3)
	s.Mark(3) // idempotent
	s.Mark(64)
	s.Mark(100000)
	if !s.Contains(3) || !s.Contains(64) || !s.Contains(100000) {
		t.Fatal("marked seqs must be contained")
	}
	if s.Contains(4) || s.Contains(99999) {
		t.Fatal("unmarked seqs must not be contained")
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
}

// TestConsumedSetProperty: marking any set of seqs makes exactly those
// seqs contained.
func TestConsumedSetProperty(t *testing.T) {
	check := func(seqs []uint16) bool {
		s := NewConsumedSet()
		want := make(map[uint64]bool)
		for _, x := range seqs {
			s.Mark(uint64(x))
			want[uint64(x)] = true
		}
		for x := uint64(0); x < 1<<16; x += 13 {
			if s.Contains(x) != want[x] {
				return false
			}
		}
		return uint64(len(want)) == s.Count()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConsumedSetConcurrentReaders(t *testing.T) {
	s := NewConsumedSet()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Monotonicity: once visible, always visible.
				if s.Contains(10) && !s.Contains(10) {
					t.Error("consumed bit vanished")
					return
				}
			}
		}()
	}
	for i := 0; i < 10000; i++ {
		s.Mark(uint64(i))
	}
	close(stop)
	wg.Wait()
}

func TestAppendAtGapsReadAsZero(t *testing.T) {
	a := New()
	// Stamped substream 0,3,4 with gaps at 1,2 (dropped upstream).
	for _, seq := range []uint64{0, 3, 4} {
		a.AppendAt(event.Event{Seq: seq, Type: 7, TS: int64(seq)})
	}
	if got := a.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	for _, seq := range []uint64{0, 3, 4} {
		ev := a.Get(seq)
		if ev.Seq != seq || ev.Type != 7 {
			t.Fatalf("Get(%d) = %+v, want stamped event", seq, ev)
		}
	}
	for _, seq := range []uint64{1, 2} {
		ev := a.Get(seq)
		if ev.Seq != 0 || ev.Type != 0 {
			t.Fatalf("gap Get(%d) = %+v, want zero event", seq, ev)
		}
	}
	for seq, want := range []bool{true, false, false, true, true} {
		if _, ok := a.Lookup(uint64(seq)); ok != want {
			t.Fatalf("Lookup(%d) present = %v, want %v", seq, ok, want)
		}
	}
}

// TestLookupPositionZero: the zero event a gap reads back as has Seq 0,
// so only the arena knows whether position 0 was written — by Append or
// by AppendAt.
func TestLookupPositionZero(t *testing.T) {
	gap := New()
	gap.AppendAt(event.Event{Seq: 1, Type: 1})
	if _, ok := gap.Lookup(0); ok {
		t.Fatal("position 0 skipped by AppendAt reads as present")
	}
	appended := New()
	appended.Append(event.Event{Type: 1})
	stamped := New()
	stamped.AppendAt(event.Event{Seq: 0, Type: 1})
	for name, a := range map[string]*Arena{"Append": appended, "AppendAt": stamped} {
		if ev, ok := a.Lookup(0); !ok || ev.Type != 1 {
			t.Fatalf("position 0 written by %s: Lookup = %+v, %v", name, ev, ok)
		}
	}
}

func TestAppendAtAcrossChunkGap(t *testing.T) {
	a := New()
	a.AppendAt(event.Event{Seq: 0, Type: 1})
	// Jump several whole chunks: skipped chunks stay nil.
	far := uint64(3*chunkSize + 5)
	a.AppendAt(event.Event{Seq: far, Type: 2})
	if ev := a.Get(far); ev.Type != 2 || ev.Seq != far {
		t.Fatalf("Get(%d) = %+v", far, ev)
	}
	if ev := a.Get(uint64(chunkSize + 1)); ev != zeroEvent {
		t.Fatalf("skipped chunk should read the shared zero event")
	}
	allocs, _ := a.AllocStats()
	if allocs != 2 {
		t.Fatalf("allocs = %d, want 2 (skipped chunks must not materialize)", allocs)
	}
}

func TestReleaseBeforeRecyclesChunks(t *testing.T) {
	a := New()
	total := uint64(3 * chunkSize)
	for i := uint64(0); i < total; i++ {
		a.Append(event.Event{Type: event.Type(i%5 + 1)})
	}
	// Boundary inside chunk 2: chunks 0 and 1 are wholly below it.
	a.ReleaseBefore(2*chunkSize + 10)
	for _, seq := range []uint64{0, chunkSize, 2*chunkSize - 1} {
		if a.Get(seq) != zeroEvent {
			t.Fatalf("Get(%d) should be released", seq)
		}
	}
	if ev := a.Get(2 * chunkSize); ev.Seq != 2*chunkSize {
		t.Fatalf("live chunk lost: %+v", ev)
	}
	// New appends must reuse the freed chunks, zeroed.
	before, _ := a.AllocStats()
	for i := uint64(0); i < 2*chunkSize; i++ {
		a.Append(event.Event{Type: 9})
	}
	allocs, reuses := a.AllocStats()
	if allocs != before {
		t.Fatalf("allocs grew %d -> %d; want freelist reuse", before, allocs)
	}
	if reuses != 2 {
		t.Fatalf("reuses = %d, want 2", reuses)
	}
	if ev := a.Get(total); ev.Type != 9 || ev.Seq != total {
		t.Fatalf("recycled chunk returned stale data: %+v", ev)
	}
}

// TestReleaseBeforeBoundsAllocations is the alloc-count regression test
// for the recycling satellite: a long run with a sliding release
// boundary must allocate a bounded number of chunks, not O(stream).
func TestReleaseBeforeBoundsAllocations(t *testing.T) {
	a := New()
	const chunks = 64
	for c := uint64(0); c < chunks; c++ {
		for i := 0; i < chunkSize; i++ {
			a.Append(event.Event{Type: 1})
		}
		if c >= 1 {
			a.ReleaseBefore(c * chunkSize) // keep only the current chunk
		}
	}
	allocs, reuses := a.AllocStats()
	if allocs > maxFree+2 {
		t.Fatalf("allocs = %d for %d chunks; recycling should bound this at %d", allocs, chunks, maxFree+2)
	}
	if reuses == 0 {
		t.Fatalf("no freelist reuse in a %d-chunk run", chunks)
	}
}

// TestConsumedSetAppendRunsWordBoundary is the regression test for the
// skipped-word bug: when a word's top bit (seq 63 mod 64) is marked, the
// scan used to round seq past the *following* word, silently dropping up
// to 64 marks from cut-record snapshots — which surfaced as duplicate
// deliveries after crash recovery.
func TestConsumedSetAppendRunsWordBoundary(t *testing.T) {
	s := NewConsumedSet()
	for _, m := range []uint64{119, 127, 128, 130, 144, 191, 192, 200} {
		s.Mark(m)
	}
	for _, tc := range []struct {
		lo, hi uint64
		want   []uint64
	}{
		{0, 256, []uint64{119, 1, 127, 2, 130, 1, 144, 1, 191, 2, 200, 1}},
		// Sub-ranges around the boundary behave too.
		{128, 192, []uint64{128, 1, 130, 1, 144, 1, 191, 1}},
		{120, 128, []uint64{127, 1}},
	} {
		got := s.AppendRuns(tc.lo, tc.hi, nil)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("AppendRuns(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestConsumedSetAppendRuns(t *testing.T) {
	s := NewConsumedSet()
	marks := []uint64{3, 4, 5, 119, 127, 128, 129, 200}
	for _, seq := range marks {
		s.Mark(seq)
	}
	got := s.AppendRuns(0, 256, nil)
	want := []uint64{3, 3, 119, 1, 127, 3, 200, 1}
	if len(got) != len(want) {
		t.Fatalf("AppendRuns(0,256) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendRuns(0,256) = %v, want %v", got, want)
		}
	}
	// Sub-range splits a run at lo and drops marks past hi.
	got = s.AppendRuns(4, 128, nil)
	want = []uint64{4, 2, 119, 1, 127, 1}
	if len(got) != len(want) {
		t.Fatalf("AppendRuns(4,128) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendRuns(4,128) = %v, want %v", got, want)
		}
	}
}
