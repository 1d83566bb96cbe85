// Package arena provides the shared-memory event store of the
// parallelization framework (paper §2.2, Figure 2): a chunked, append-only
// arena with a single writer (the splitter) and many lock-free readers (the
// operator instances), plus an atomic bitset tracking finally consumed
// events.
//
// Events are addressed by their position in the shard's stream, which
// the feed layer stamps into ev.Seq at admission. Positions the intake
// filter spent on dropped events are never written: they stay gaps, and
// Lookup is the one test that tells a gap from an appended event.
// Chunking keeps addresses stable (no reallocation copies), so readers
// may hold *Event pointers across appends.
package arena

import (
	"sync/atomic"

	"github.com/spectrecep/spectre/internal/event"
)

const (
	// chunkBits sets the chunk size; 1<<chunkBits events per chunk.
	chunkBits = 14
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type chunk struct {
	events [chunkSize]event.Event
}

// maxFree caps the recycled-chunk freelist: enough for steady-state
// reuse after root pops without pinning a long burst's worth of memory.
const maxFree = 4

// zeroEvent backs Get for sequence positions whose chunk was never
// materialized (gaps left by AppendAt) or was recycled by ReleaseBefore.
// Shared and immutable: callers never write through Get's result.
var zeroEvent = &event.Event{}

// Arena is the append-only shared event store. Append/AppendAt/
// ReleaseBefore may be called by a single goroutine only; Get/Len are
// safe from any goroutine and observe a consistent prefix.
type Arena struct {
	// chunks is published atomically whenever the directory changes; the
	// chunks themselves are stable while reachable.
	chunks atomic.Pointer[[]*chunk]
	length atomic.Uint64 // number of appended events; published last
	// wrote0 records that position 0 holds an appended event: a gap reads
	// back as the zero event, whose Seq is 0 too.
	wrote0 atomic.Bool

	// free holds recycled chunks for reuse (single-writer, like Append).
	free []*chunk
	// allocs/reuses count fresh chunk allocations and freelist reuses;
	// atomics so metrics and regression tests can read them mid-run.
	allocs atomic.Uint64
	reuses atomic.Uint64
}

// New returns an empty arena.
func New() *Arena {
	a := &Arena{}
	dir := make([]*chunk, 0, 16)
	a.chunks.Store(&dir)
	return a
}

// newChunk pops the freelist or allocates. Recycled chunks are zeroed
// here, before the directory publishes them, so readers never observe
// stale events.
func (a *Arena) newChunk() *chunk {
	if n := len(a.free); n > 0 {
		c := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		clear(c.events[:])
		a.reuses.Add(1)
		return c
	}
	a.allocs.Add(1)
	return &chunk{}
}

// put stores ev at position seq, materializing its chunk if needed. The
// directory grows (and backfills nil entries) copy-on-write so readers
// never observe a partially updated slice.
func (a *Arena) put(seq uint64, ev event.Event) {
	ci := int(seq >> chunkBits)
	dir := *a.chunks.Load()
	if ci >= len(dir) || dir[ci] == nil {
		size := len(dir)
		if ci >= size {
			size = ci + 1
		}
		grown := make([]*chunk, size, max(cap(dir)*2+1, size))
		copy(grown, dir)
		grown[ci] = a.newChunk()
		a.chunks.Store(&grown)
		dir = grown
	}
	dir[ci].events[seq&chunkMask] = ev
	if seq == 0 {
		a.wrote0.Store(true)
	}
}

// Append stores ev at the next sequence position and returns its assigned
// sequence number (equal to the previous Len). The caller must be the
// arena's single writer. The event's Seq field is set to the assigned
// number.
func (a *Arena) Append(ev event.Event) uint64 {
	seq := a.length.Load()
	ev.Seq = seq
	a.put(seq, ev)
	// Publish after the write so readers that observe the new length also
	// observe the event contents.
	a.length.Store(seq + 1)
	return seq
}

// AppendAt stores ev at its stamped position ev.Seq, which must be at
// least Len() (the single writer only moves forward). Positions skipped
// over — events dropped upstream by the planner's intake prefilter —
// are gaps: Lookup reports them absent.
func (a *Arena) AppendAt(ev event.Event) uint64 {
	seq := ev.Seq
	a.put(seq, ev)
	a.length.Store(seq + 1)
	return seq
}

// Get returns a pointer to the event with the given sequence number,
// or a shared zero event when the position's chunk was skipped or
// recycled. The pointer stays valid while the chunk is reachable (for
// recycled ranges see ReleaseBefore's contract). Get must only be
// called with seq < Len().
func (a *Arena) Get(seq uint64) *event.Event {
	dir := *a.chunks.Load()
	c := dir[seq>>chunkBits]
	if c == nil {
		return zeroEvent
	}
	return &c.events[seq&chunkMask]
}

// Lookup returns Get(seq) and whether an event was appended at seq
// rather than skipped over as a gap. seq must be below Len().
func (a *Arena) Lookup(seq uint64) (*event.Event, bool) {
	ev := a.Get(seq)
	return ev, ev.Seq == seq && (seq != 0 || a.wrote0.Load())
}

// ReleaseBefore recycles every chunk wholly below boundary onto the
// freelist (beyond maxFree they are dropped for the GC). The caller —
// the arena's single writer — must guarantee that no reader holds, or
// will ever again request, a pointer to any event below boundary: the
// engine calls this after a root window version is popped, when every
// remaining window starts at or after the new root's start sequence.
func (a *Arena) ReleaseBefore(boundary uint64) {
	limit := int(boundary >> chunkBits) // first chunk that may still be live
	dir := *a.chunks.Load()
	if limit > len(dir) {
		limit = len(dir)
	}
	any := false
	for ci := 0; ci < limit; ci++ {
		if dir[ci] != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	grown := append([]*chunk(nil), dir...)
	for ci := 0; ci < limit; ci++ {
		if grown[ci] == nil {
			continue
		}
		if len(a.free) < maxFree {
			a.free = append(a.free, grown[ci])
		}
		grown[ci] = nil
	}
	a.chunks.Store(&grown)
}

// AllocStats reports how many chunks were freshly allocated and how
// many were reused from the freelist.
func (a *Arena) AllocStats() (allocs, reuses uint64) {
	return a.allocs.Load(), a.reuses.Load()
}

// Len reports the number of appended events. All events with Seq < Len()
// are fully visible.
func (a *Arena) Len() uint64 { return a.length.Load() }

// ConsumedSet is a grow-only atomic bitset keyed by event sequence number.
// Only the splitter marks events consumed (single writer); operator
// instances read concurrently. Marking is monotone: bits are never cleared.
type ConsumedSet struct {
	words atomic.Pointer[[]atomicWord]
	count atomic.Uint64
}

type atomicWord struct{ v atomic.Uint64 }

// NewConsumedSet returns an empty consumed set.
func NewConsumedSet() *ConsumedSet {
	s := &ConsumedSet{}
	w := make([]atomicWord, 0, 64)
	s.words.Store(&w)
	return s
}

// Mark records seq as consumed. Single-writer only.
func (s *ConsumedSet) Mark(seq uint64) {
	wi := int(seq >> 6)
	words := *s.words.Load()
	if wi >= len(words) {
		grown := make([]atomicWord, wi+1, (wi+1)*2)
		for i := range words {
			grown[i].v.Store(words[i].v.Load())
		}
		s.words.Store(&grown)
		words = grown
	}
	old := words[wi].v.Load()
	bit := uint64(1) << (seq & 63)
	if old&bit == 0 {
		words[wi].v.Store(old | bit)
		s.count.Add(1)
	}
}

// Contains reports whether seq has been marked consumed.
func (s *ConsumedSet) Contains(seq uint64) bool {
	words := *s.words.Load()
	wi := int(seq >> 6)
	if wi >= len(words) {
		return false
	}
	return words[wi].v.Load()&(uint64(1)<<(seq&63)) != 0
}

// Count returns the number of consumed events so far.
func (s *ConsumedSet) Count() uint64 { return s.count.Load() }

// AppendRuns appends every marked sequence number in [lo, hi) to dst as
// run-length pairs — start, count, start, count, … in ascending order —
// and returns it. Consumption marks are dense once windows complete
// (CONSUME ALL marks every constituent), so runs shrink a cut record's
// consumed snapshot by orders of magnitude versus an explicit list.
func (s *ConsumedSet) AppendRuns(lo, hi uint64, dst []uint64) []uint64 {
	words := *s.words.Load()
	if max := uint64(len(words)) << 6; hi > max {
		hi = max
	}
	var runStart, runLen uint64
	for seq := lo; seq < hi; {
		w := words[seq>>6].v.Load() >> (seq & 63)
		if w == 0 {
			seq = (seq | 63) + 1
			continue
		}
		for ; w != 0 && seq < hi; seq++ {
			if w&1 != 0 {
				switch {
				case runLen > 0 && runStart+runLen == seq:
					runLen++
				default:
					if runLen > 0 {
						dst = append(dst, runStart, runLen)
					}
					runStart, runLen = seq, 1
				}
			}
			w >>= 1
		}
		if w == 0 && seq&63 != 0 {
			// Skip the rest of the exhausted word — but only when seq is
			// still inside it: when the word's top bit was set, the inner
			// loop already advanced seq to the next word's first bit, and
			// rounding up again would skip that word entirely.
			seq = (seq | 63) + 1
		}
	}
	if runLen > 0 {
		dst = append(dst, runStart, runLen)
	}
	return dst
}
