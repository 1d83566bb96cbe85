package arena

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/spectrecep/spectre/internal/event"
)

func TestAppendGet(t *testing.T) {
	a := New()
	if a.Len() != 0 {
		t.Fatal("new arena must be empty")
	}
	const n = 3 * ChunkSize / 2 // crosses a chunk boundary
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
	for i := 0; i < 4*ChunkSize; i++ {
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
	const n = 2 * ChunkSize
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

// TestConsumedSet: the consumption bits mark exactly what was marked,
// and MarkConsumed reports only the first mark of a position.
func TestConsumedSet(t *testing.T) {
	a := New()
	if a.Consumed(0) {
		t.Fatal("new arena must have no marks")
	}
	for _, seq := range []uint64{3, 64, 100000} {
		if !a.MarkConsumed(seq) {
			t.Fatalf("first MarkConsumed(%d) = false", seq)
		}
	}
	if a.MarkConsumed(3) {
		t.Fatal("MarkConsumed must be idempotent and report the repeat")
	}
	if !a.Consumed(3) || !a.Consumed(64) || !a.Consumed(100000) {
		t.Fatal("marked seqs must be consumed")
	}
	if a.Consumed(4) || a.Consumed(99999) {
		t.Fatal("unmarked seqs must not be consumed")
	}
}

// TestConsumedSetProperty: marking any set of seqs makes exactly those
// seqs consumed, and ConsumedRuns over any range agrees with a
// position-by-position scan.
func TestConsumedSetProperty(t *testing.T) {
	const span = 3 * ChunkSize
	check := func(seqs []uint16, spread uint8, lo, hi uint16) bool {
		a := New()
		want := make(map[uint64]bool)
		stride := uint64(spread%3) + 1 // spread marks over up to three chunks
		for _, x := range seqs {
			seq := uint64(x) * stride % span
			a.MarkConsumed(seq)
			want[seq] = true
		}
		for x := uint64(0); x < span; x += 13 {
			if a.Consumed(x) != want[x] {
				return false
			}
		}
		from, to := uint64(lo)*stride%span, uint64(hi)*stride%span
		if from > to {
			from, to = to, from
		}
		return fmt.Sprint(a.ConsumedRuns(from, to, nil)) == fmt.Sprint(naiveRuns(want, from, to))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// naiveRuns is ConsumedRuns one position at a time.
func naiveRuns(marked map[uint64]bool, lo, hi uint64) []uint64 {
	var runs []uint64
	for seq := lo; seq < hi; seq++ {
		if !marked[seq] {
			continue
		}
		if n := len(runs); n > 0 && runs[n-2]+runs[n-1] == seq {
			runs[n-1]++
		} else {
			runs = append(runs, seq, 1)
		}
	}
	return runs
}

// TestConsumedSetConcurrentReaders exercises the consumption bits'
// single-writer/multi-reader contract under the race detector while the
// writer materializes, marks and releases chunks. Each reader pins the
// lowest position it will read — the engine's root start — and the
// writer never releases past a pin.
func TestConsumedSetConcurrentReaders(t *testing.T) {
	a := New()
	const n = 16 * ChunkSize
	const readers = 3
	var pins [readers]atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := range pins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pin := &pins[r]
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := a.Len()
				for seq := pin.Load(); seq < l; seq += 61 {
					ev, ok := a.Lookup(seq)
					if !ok || ev.Seq != seq {
						t.Errorf("Lookup(%d) = %+v, %v below Len %d", seq, ev, ok, l)
						return
					}
					// Odd positions are never marked; a visible mark stays.
					if a.Consumed(seq) && (seq%2 == 1 || !a.Consumed(seq)) {
						t.Errorf("consumption bit of %d flickered", seq)
						return
					}
				}
				if l > ChunkSize/2 && l-ChunkSize/2 > pin.Load() {
					pin.Store(l - ChunkSize/2)
				}
			}
		}()
	}
	for i := uint64(0); i < n; i++ {
		a.Append(event.Event{TS: int64(i)})
		if i%2 == 0 {
			a.MarkConsumed(i)
		}
		if i%1024 == 0 {
			low := pins[0].Load()
			for r := 1; r < readers; r++ {
				low = min(low, pins[r].Load())
			}
			a.ReleaseBefore(low)
		}
	}
	close(stop)
	wg.Wait()
}

// TestMarkConsumedAllocs: one mark costs O(1) — marking every event as
// it is appended allocates the chunks and a few directory widenings,
// nothing per mark. A word slice that regrows on every new 64-position
// word made 32 771 allocations over this stream.
func TestMarkConsumedAllocs(t *testing.T) {
	a := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1<<20; i++ {
		a.MarkConsumed(a.Append(event.Event{Type: 1}))
	}
	runtime.ReadMemStats(&after)
	chunks, _ := a.AllocStats()
	if got := after.Mallocs - before.Mallocs; got > chunks+64 {
		t.Fatalf("%d allocations for 1<<20 marks over %d chunks; want at most %d", got, chunks, chunks+64)
	}
	if got := a.ConsumedRuns(0, a.Len(), nil); fmt.Sprint(got) != fmt.Sprint([]uint64{0, 1 << 20}) {
		t.Fatalf("ConsumedRuns = %v, want one run of every position", got)
	}
}

// TestRecycledChunkCarriesNoMarks: a chunk released with its marks and
// reused from the freelist for later positions reads as unconsumed.
func TestRecycledChunkCarriesNoMarks(t *testing.T) {
	a := New()
	for i := uint64(0); i < ChunkSize; i++ {
		a.MarkConsumed(a.Append(event.Event{Type: 1}))
	}
	a.Append(event.Event{Type: 1}) // chunk 1, so chunk 0 can go
	a.ReleaseBefore(ChunkSize)
	far := uint64(2 * ChunkSize)
	a.AppendAt(event.Event{Seq: far, Type: 2})
	if _, reuses := a.AllocStats(); reuses != 1 {
		t.Fatalf("reuses = %d, want the released chunk reused", reuses)
	}
	for seq := far; seq < far+ChunkSize; seq++ {
		if a.Consumed(seq) {
			t.Fatalf("recycled chunk reads position %d as consumed", seq)
		}
	}
	if got := a.ConsumedRuns(ChunkSize, far+ChunkSize, nil); len(got) != 0 {
		t.Fatalf("ConsumedRuns over the recycled chunk = %v, want none", got)
	}
}

// TestDirectorySlides: the directory drops released chunks instead of
// keeping a slot for every chunk ever appended, so a long stream whose
// chunks are released one at a time keeps it a few slots long.
func TestDirectorySlides(t *testing.T) {
	a := New()
	for c := uint64(0); c < 4096; c++ {
		a.AppendAt(event.Event{Seq: c * ChunkSize, Type: 1})
		a.ReleaseBefore(c * ChunkSize)
		if n := len(a.dir.Load().chunks); n > 4 {
			t.Fatalf("directory holds %d slots after chunk %d", n, c)
		}
		if ev, ok := a.Lookup(c * ChunkSize); !ok || ev.Type != 1 {
			t.Fatalf("live chunk %d lost", c)
		}
	}
	if allocs, _ := a.AllocStats(); allocs > maxFree+2 {
		t.Fatalf("allocs = %d; released chunks must be reused", allocs)
	}
}

func TestAppendAtGapsReadAsZero(t *testing.T) {
	a := New()
	// Stamped substream 0,3,4 with gaps at 1,2 (dropped upstream).
	for _, seq := range []uint64{0, 3, 4} {
		a.AppendAt(event.Event{Seq: seq, Type: 7, TS: int64(seq)})
	}
	if got := a.Len(); got != 0 {
		t.Fatalf("Len before Publish = %d, want 0", got)
	}
	a.Publish()
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
	far := uint64(3*ChunkSize + 5)
	a.AppendAt(event.Event{Seq: far, Type: 2})
	if ev := a.Get(far); ev.Type != 2 || ev.Seq != far {
		t.Fatalf("Get(%d) = %+v", far, ev)
	}
	if ev := a.Get(uint64(ChunkSize + 1)); ev != zeroEvent {
		t.Fatalf("skipped chunk should read the shared zero event")
	}
	allocs, _ := a.AllocStats()
	if allocs != 2 {
		t.Fatalf("allocs = %d, want 2 (skipped chunks must not materialize)", allocs)
	}
}

func TestReleaseBeforeRecyclesChunks(t *testing.T) {
	a := New()
	total := uint64(3 * ChunkSize)
	for i := uint64(0); i < total; i++ {
		a.Append(event.Event{Type: event.Type(i%5 + 1)})
	}
	// Boundary inside chunk 2: chunks 0 and 1 are wholly below it.
	a.ReleaseBefore(2*ChunkSize + 10)
	for _, seq := range []uint64{0, ChunkSize, 2*ChunkSize - 1} {
		if a.Get(seq) != zeroEvent {
			t.Fatalf("Get(%d) should be released", seq)
		}
	}
	if ev := a.Get(2 * ChunkSize); ev.Seq != 2*ChunkSize {
		t.Fatalf("live chunk lost: %+v", ev)
	}
	// New appends must reuse the freed chunks, zeroed.
	before, _ := a.AllocStats()
	for i := uint64(0); i < 2*ChunkSize; i++ {
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
		for i := 0; i < ChunkSize; i++ {
			a.Append(event.Event{Type: 1})
		}
		if c >= 1 {
			a.ReleaseBefore(c * ChunkSize) // keep only the current chunk
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
	a := New()
	for _, m := range []uint64{119, 127, 128, 130, 144, 191, 192, 200} {
		a.MarkConsumed(m)
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
		got := a.ConsumedRuns(tc.lo, tc.hi, nil)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("ConsumedRuns(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestConsumedSetAppendRuns(t *testing.T) {
	a := New()
	for _, seq := range []uint64{3, 4, 5, 119, 127, 128, 129, 200} {
		a.MarkConsumed(seq)
	}
	// Runs across a chunk boundary and into a chunk past an absent one.
	for seq := uint64(ChunkSize - 2); seq < ChunkSize+2; seq++ {
		a.MarkConsumed(seq)
	}
	far := uint64(3*ChunkSize + 5)
	a.MarkConsumed(far)
	a.MarkConsumed(far + 1)
	for _, tc := range []struct {
		lo, hi uint64
		want   []uint64
	}{
		{0, 256, []uint64{3, 3, 119, 1, 127, 3, 200, 1}},
		// A sub-range splits a run at lo and drops marks past hi.
		{4, 128, []uint64{4, 2, 119, 1, 127, 1}},
		{ChunkSize - 4, ChunkSize + 4, []uint64{ChunkSize - 2, 4}},
		{ChunkSize, ChunkSize + 1, []uint64{ChunkSize, 1}},
		// Chunk 2 was never materialized: all gaps.
		{2 * ChunkSize, 3 * ChunkSize, nil},
		{ChunkSize + 1, 4 * ChunkSize, []uint64{ChunkSize + 1, 1, far, 2}},
	} {
		got := a.ConsumedRuns(tc.lo, tc.hi, nil)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("ConsumedRuns(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	if allocs, _ := a.AllocStats(); allocs != 3 {
		t.Fatalf("allocs = %d, want 3 (marks materialize chunks 0, 1, 3; scans none)", allocs)
	}
	// Dst is appended to, never rewritten: an open run does not merge
	// into the caller's last pair.
	if got := a.ConsumedRuns(5, 6, []uint64{3, 2}); fmt.Sprint(got) != fmt.Sprint([]uint64{3, 2, 5, 1}) {
		t.Fatalf("ConsumedRuns appended %v", got)
	}
	// A released chunk reads as all gaps, its marks with it.
	a.AppendAt(event.Event{Seq: far + 2, Type: 1})
	a.ReleaseBefore(far)
	if got := a.ConsumedRuns(0, far+3, nil); fmt.Sprint(got) != fmt.Sprint([]uint64{far, 2}) {
		t.Fatalf("ConsumedRuns after release = %v, want only chunk 3's run", got)
	}
	if a.Consumed(ChunkSize) {
		t.Fatal("a released chunk still reads a mark")
	}
}

// TestConcurrentReleaseBoundsChunks runs the arena's two writers on two
// goroutines, as the engine does: the appender appends — leaving every
// seventh position a gap — materializes chunks and applies the release
// boundaries; the marker marks the even appended positions of chunks
// that exist and publishes boundaries. Readers look up events and
// consumption marks below the marker's cursor. Each reader pins the
// lowest position it will read, and the marker never releases past a
// pin. The appender stays within two chunks of the boundary, so at most
// three chunks are live at once, and the allocations stay under that
// bound while the stream grows 4×.
func TestConcurrentReleaseBoundsChunks(t *testing.T) {
	const (
		n       = 8 * ChunkSize
		readers = 2
		bound   = 3
	)
	gap := func(seq uint64) bool { return seq%7 == 3 }
	a := New()
	var (
		marked atomic.Uint64 // every position below is marked, if it is going to be
		pins   [readers]atomic.Uint64
		wg     sync.WaitGroup
		allocs [2]uint64 // after n and after 4n positions
	)
	stop := make(chan struct{})
	for r := range pins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pin := &pins[r]
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := marked.Load()
				for seq := pin.Load(); seq < m; seq += 29 {
					ev, ok := a.Lookup(seq)
					if ok == gap(seq) || ok && ev.Seq != seq {
						t.Errorf("Lookup(%d) = %+v, %v below the marker's cursor %d", seq, ev, ok, m)
						return
					}
					if a.Consumed(seq) != (ok && seq%2 == 0) {
						t.Errorf("Consumed(%d) = %v below the marker's cursor %d", seq, !(ok && seq%2 == 0), m)
						return
					}
				}
				if m > ChunkSize/2 {
					pin.Store(max(pin.Load(), m-ChunkSize/2))
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Add(1)
	go func() { // the marker
		defer wg.Done()
		for seq := uint64(0); seq < 4*n; {
			for l := a.Len(); seq < l; seq++ {
				if _, ok := a.Lookup(seq); ok && seq%2 == 0 {
					a.MarkConsumed(seq)
				}
			}
			marked.Store(seq)
			low := seq
			for r := range pins {
				low = min(low, pins[r].Load())
			}
			a.Release(low)
			runtime.Gosched()
		}
	}()
	for seq := uint64(0); seq < 4*n; seq++ { // the appender
		if seq == n {
			allocs[0], _ = a.AllocStats()
		}
		if gap(seq) {
			continue
		}
		for a.Len() >= a.released.Load()+2*ChunkSize {
			runtime.Gosched()
		}
		a.AppendAt(event.Event{Seq: seq, Type: 1})
		a.Publish()
	}
	for marked.Load() < 4*n {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	allocs[1], _ = a.AllocStats()
	if allocs[0] > bound || allocs[1] > bound {
		t.Fatalf("%d chunks allocated after %d positions, %d after %d; bound %d", allocs[0], n, allocs[1], 4*n, bound)
	}
	if _, reuses := a.AllocStats(); reuses == 0 {
		t.Fatal("no released chunk was reused")
	}
}

// TestPublishRunBoundaries: the appender appends in runs — gapped, of
// varying length, some crossing a chunk boundary — and publishes once
// after each run, while readers poll Len. Under the race detector it
// checks both halves of the publish contract: Len only ever lands on a
// run boundary, and every position below it is fully written (gaps read
// absent).
func TestPublishRunBoundaries(t *testing.T) {
	const runs = 400
	gap := func(seq uint64) bool { return seq%5 == 2 }
	// ends[i] is one past the last position of run i: Len's only values.
	ends := make([]uint64, runs)
	var end uint64
	for i := range ends {
		end += uint64(1 + (i*7919)%(ChunkSize/8))
		if gap(end - 1) {
			end++ // a run ends on an appended event, as admission's do
		}
		ends[i] = end
	}
	boundary := make(map[uint64]bool, runs+1)
	boundary[0] = true
	for _, e := range ends {
		boundary[e] = true
	}
	a := New()
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var checked uint64
			for checked < end {
				l := a.Len()
				if !boundary[l] {
					t.Errorf("Len = %d is not a run boundary", l)
					return
				}
				for ; checked < l; checked++ {
					ev, ok := a.Lookup(checked)
					if ok == gap(checked) || ok && (ev.Seq != checked || ev.TS != int64(3*checked) || len(ev.Fields) != 1 || ev.Fields[0] != float64(checked)) {
						t.Errorf("Lookup(%d) = %+v, %v below Len %d", checked, ev, ok, l)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	var seq uint64
	for _, e := range ends {
		for ; seq < e; seq++ {
			if !gap(seq) {
				a.AppendAt(event.Event{Seq: seq, TS: int64(3 * seq), Type: 1, Fields: []float64{float64(seq)}})
			}
		}
		a.Publish()
		runtime.Gosched()
	}
	wg.Wait()
	if a.Len() != end {
		t.Fatalf("Len = %d after the last run, want %d", a.Len(), end)
	}
}
