// Package arena provides the shared-memory event store of the
// parallelization framework (paper §2.2, Figure 2): a chunked, append-only
// arena that every event is written into once, at admission, and that
// the splitter and the operator instances read lock-free. Each chunk
// holds its events and, beside them, one consumption bit per position —
// the finally consumed set. The bits are released with their chunk, so
// consumption memory is bounded by the live window span plus the unread
// tail, not by the length of the stream, and they follow the events'
// reader contract: nobody asks about a position below the release
// boundary.
//
// Two goroutines write, each its own part. The appender (the feed side)
// appends events, materializes chunks and is the only one to publish a
// new chunk directory. The marker (the splitter) sets consumption bits
// in chunks that already exist and publishes release boundaries with
// Release; the appender applies the latest boundary the next time it
// materializes a chunk, so the chunk freelist stays on one goroutine.
//
// Events are addressed by their position in the shard's stream, which
// the feed layer stamps into ev.Seq at admission. Positions the intake
// filter spent on dropped events are never written: they stay gaps, and
// Lookup is the one test that tells a gap from an appended event.
// Chunking keeps addresses stable (no reallocation copies), so readers
// may hold *Event pointers across appends.
package arena

import (
	"math/bits"
	"sync/atomic"

	"github.com/spectrecep/spectre/internal/event"
)

// chunkBits sets the chunk size; 1<<chunkBits events per chunk.
const chunkBits = 14

// ChunkSize is the number of positions one chunk holds: the unit in
// which the arena allocates, recycles and releases memory.
const ChunkSize = 1 << chunkBits

const chunkMask = ChunkSize - 1

type chunk struct {
	events [ChunkSize]event.Event
	// consumed holds one bit per position: set once the splitter marks
	// the event finally consumed, never cleared while the chunk is live.
	consumed [ChunkSize / 64]atomic.Uint64
}

// maxFree caps the recycled-chunk freelist: enough for steady-state
// reuse after cuts without pinning a long burst's worth of memory.
const maxFree = 4

// minDir is the directory length of a new arena.
const minDir = 4

// zeroEvent backs Get for sequence positions whose chunk was never
// materialized (gaps left by AppendAt) or was recycled by ReleaseBefore.
// Shared and immutable: callers never write through Get's result.
var zeroEvent = &event.Event{}

// view is one published chunk directory: chunks[i] holds the positions
// of chunk index base+i. Chunks below base were released. A slot is nil
// until its chunk is materialized; the appender fills slots in place, and
// publishes a new view only to drop released chunks or to widen the
// directory.
type view struct {
	base   uint64
	chunks []atomic.Pointer[chunk]
}

// Arena is the append-only shared event store. Append/AppendAt/
// ReleaseBefore belong to a single appender goroutine; MarkConsumed and
// Release to a single marker goroutine, which may be the appender (see
// MarkConsumed for the positions a separate marker may mark).
// Get/Lookup/Consumed/Len are safe from any goroutine and observe a
// consistent prefix.
type Arena struct {
	dir atomic.Pointer[view]
	// wrote0 records that position 0 holds an appended event: a gap reads
	// back as the zero event, whose Seq is 0 too.
	wrote0 atomic.Bool
	// released is the latest release boundary the marker published; the
	// appender applies it when it next materializes a chunk.
	released atomic.Uint64

	// free holds recycled chunks for reuse (appender only).
	free []*chunk
	// allocs/reuses count fresh chunk allocations and freelist reuses;
	// atomics so metrics and regression tests can read them mid-run.
	allocs atomic.Uint64
	reuses atomic.Uint64

	// length is stored once per append; the padding keeps it off the
	// cache line of dir, which readers load on every Get and Consumed.
	_      [64]byte
	length atomic.Uint64 // number of appended events; published last
}

// New returns an empty arena.
func New() *Arena {
	a := &Arena{}
	a.dir.Store(&view{chunks: make([]atomic.Pointer[chunk], minDir)})
	return a
}

// newChunk pops the freelist or allocates. Recycled chunks are zeroed
// here — events and consumption bits — before the directory publishes
// them, so readers never observe stale events or marks.
func (a *Arena) newChunk() *chunk {
	if n := len(a.free); n > 0 {
		c := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		clear(c.events[:])
		for i := range c.consumed {
			c.consumed[i].Store(0)
		}
		a.reuses.Add(1)
		return c
	}
	a.allocs.Add(1)
	return &chunk{}
}

// chunkOf returns the chunk holding seq, or nil when it was never
// materialized or has been released.
func (a *Arena) chunkOf(seq uint64) *chunk {
	d := a.dir.Load()
	// Below base the index wraps around and fails the bound check too.
	if i := seq>>chunkBits - d.base; i < uint64(len(d.chunks)) {
		return d.chunks[i].Load()
	}
	return nil
}

// chunkAt returns the chunk holding seq, materializing it if needed.
// Appender only; seq must not lie below the release boundary. Before it
// materializes a chunk it applies the published release boundary, so
// released chunks return to the freelist just in time for reuse. A slot
// inside the directory is filled in place; past its end the directory is
// reallocated at twice the needed length, carrying the live slots over.
func (a *Arena) chunkAt(seq uint64) *chunk {
	d := a.dir.Load()
	i := seq>>chunkBits - d.base
	if i < uint64(len(d.chunks)) {
		if c := d.chunks[i].Load(); c != nil {
			return c
		}
	}
	if b := a.released.Load(); b>>chunkBits > d.base {
		a.ReleaseBefore(b)
		d = a.dir.Load()
		i = seq>>chunkBits - d.base
	}
	if i < uint64(len(d.chunks)) {
		c := a.newChunk()
		d.chunks[i].Store(c)
		return c
	}
	grown := make([]atomic.Pointer[chunk], 2*(i+1))
	for j := range d.chunks {
		grown[j].Store(d.chunks[j].Load())
	}
	c := a.newChunk()
	grown[i].Store(c)
	a.dir.Store(&view{base: d.base, chunks: grown})
	return c
}

// Append stores ev at the next sequence position and returns its assigned
// sequence number (equal to the previous Len). The caller must be the
// arena's appender. The event's Seq field is set to the assigned number.
func (a *Arena) Append(ev event.Event) uint64 {
	ev.Seq = a.length.Load()
	return a.AppendAt(ev)
}

// AppendAt stores ev at its stamped position ev.Seq, which must be at
// least Len() (the appender only moves forward). Positions skipped
// over — events dropped upstream by the planner's intake prefilter —
// are gaps: Lookup reports them absent.
func (a *Arena) AppendAt(ev event.Event) uint64 {
	seq := ev.Seq
	a.chunkAt(seq).events[seq&chunkMask] = ev
	if seq == 0 {
		a.wrote0.Store(true)
	}
	// Publish after the write so readers that observe the new length also
	// observe the event contents.
	a.length.Store(seq + 1)
	return seq
}

// Get returns a pointer to the event with the given sequence number,
// or a shared zero event when the position's chunk was skipped or
// recycled. The pointer stays valid while the chunk is reachable (for
// recycled ranges see ReleaseBefore's contract). Get must only be
// called with seq < Len().
func (a *Arena) Get(seq uint64) *event.Event {
	if c := a.chunkOf(seq); c != nil {
		return &c.events[seq&chunkMask]
	}
	return zeroEvent
}

// Lookup returns Get(seq) and whether an event was appended at seq
// rather than skipped over as a gap. seq must be below Len().
func (a *Arena) Lookup(seq uint64) (*event.Event, bool) {
	ev := a.Get(seq)
	return ev, ev.Seq == seq && (seq != 0 || a.wrote0.Load())
}

// MarkConsumed records the event at seq as finally consumed and reports
// whether it was not marked before. Marking is monotone while the chunk
// is live. The position need not be appended yet: recovery marks a cut's
// positions before replay appends them, so marking materializes an
// absent chunk exactly as AppendAt does — which only the appender may
// do. A marker on another goroutine marks only appended positions at or
// above its last release boundary, whose chunks exist.
func (a *Arena) MarkConsumed(seq uint64) bool {
	w := &a.chunkAt(seq).consumed[(seq&chunkMask)>>6]
	old, bit := w.Load(), uint64(1)<<(seq&63)
	if old&bit != 0 {
		return false
	}
	w.Store(old | bit)
	return true
}

// Consumed reports whether seq has been marked consumed. A position in
// a chunk that was never materialized or has been released reads as
// unconsumed.
func (a *Arena) Consumed(seq uint64) bool {
	c := a.chunkOf(seq)
	return c != nil && c.consumed[(seq&chunkMask)>>6].Load()&(uint64(1)<<(seq&63)) != 0
}

// ConsumedRuns appends every marked position in [lo, hi) to dst as
// run-length pairs — start, count, start, count, … in ascending order —
// and returns it. Consumption marks are dense once windows complete
// (CONSUME ALL marks every constituent), so runs shrink a cut record's
// consumed snapshot by orders of magnitude versus an explicit list. The
// scan takes a word of 64 positions at a time and skips absent chunks
// whole.
func (a *Arena) ConsumedRuns(lo, hi uint64, dst []uint64) []uint64 {
	var start, n uint64 // the open run
	for seq := lo; seq < hi; {
		end := min(hi, (seq|chunkMask)+1)
		c := a.chunkOf(seq)
		for c != nil && seq < end {
			next := min(end, (seq|63)+1)
			w := c.consumed[(seq&chunkMask)>>6].Load() &^ (1<<(seq&63) - 1)
			if next&63 != 0 {
				w &= 1<<(next&63) - 1
			}
			for w != 0 {
				tz := uint64(bits.TrailingZeros64(w))
				ones := uint64(bits.TrailingZeros64(^(w >> tz)))
				at := seq&^63 + tz
				if n > 0 && start+n == at {
					n += ones
				} else {
					if n > 0 {
						dst = append(dst, start, n)
					}
					start, n = at, ones
				}
				w &^= (1<<ones - 1) << tz // a shift by 64 yields 0
			}
			seq = next
		}
		seq = end
	}
	if n > 0 {
		dst = append(dst, start, n)
	}
	return dst
}

// Release publishes boundary as the arena's release boundary: the
// marker's promise that no reader holds, or will ever again request, a
// pointer to or a mark of any event below it. The engine's splitter
// calls it at every cut of the shard's stream (internal/core/cut.go),
// when every window open or opened later starts at or after the
// boundary. The appender recycles the chunks wholly below it when it
// next materializes a chunk. Boundaries must not decrease.
func (a *Arena) Release(boundary uint64) { a.released.Store(boundary) }

// ReleaseBefore recycles every chunk wholly below boundary onto the
// freelist at once (beyond maxFree they are dropped for the GC),
// consumption bits included, and slides the directory past them.
// Appender only, under Release's promise for boundary.
func (a *Arena) ReleaseBefore(boundary uint64) {
	d := a.dir.Load()
	limit := boundary >> chunkBits // first chunk that may still be live
	if limit <= d.base {
		return
	}
	n := min(limit-d.base, uint64(len(d.chunks)))
	for i := range n {
		if c := d.chunks[i].Swap(nil); c != nil && len(a.free) < maxFree {
			a.free = append(a.free, c)
		}
	}
	a.dir.Store(&view{base: limit, chunks: d.chunks[n:]})
}

// AllocStats reports how many chunks were freshly allocated and how
// many were reused from the freelist.
func (a *Arena) AllocStats() (allocs, reuses uint64) {
	return a.allocs.Load(), a.reuses.Load()
}

// Len reports the number of appended events. All events with Seq < Len()
// are fully visible.
func (a *Arena) Len() uint64 { return a.length.Load() }
