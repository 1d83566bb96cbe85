package cluster

import (
	"github.com/spectrecep/spectre/internal/event"
)

// Ordered merge (DESIGN.md §12.3).
//
// Each shard's emission stream is already canonical: the §4.2 validation
// gate makes it exactly what sequential processing of that shard's
// substream would deliver. The merge interleaves the per-shard streams
// into one deterministic global order that is independent of where the
// shards run and of message timing.
//
// The key insight is that every emitted match belongs to its shard's
// current root window (internal/core drains outputs only for the tree
// root), and root windows pop in stream order. The coordinator therefore
// keys every match by the global stream position of the first event of
// the root window it was emitted under: the per-shard progress stream
// (Config.OnAdvance → kindProgress) announces each new root boundary in
// exact interleaving with the emissions, and the gpos table maps the
// shard-local boundary to the global position of the event routed there.
// Global positions are unique across shards (every event routes to
// exactly one shard), so keys never tie and the merge order is total.
//
// Release rule: the smallest buffered key may be delivered once every
// other live shard is known to be past it — a shard with a buffered match
// is past its own head key, and a shard with an empty buffer is past its
// low bound (the key of its current root window, advanced by emissions
// and progress frames, and infinite once the shard drains). Late progress
// frames only delay releases; they can never reorder them.

// mergeShard is the per-shard state of one ordered merge.
type mergeShard struct {
	// gpos maps the shard-local stream position of every event routed to
	// this shard to its global stream position. Never truncated: a match
	// regenerated after a crash handoff can detect below the resume
	// position, and its window key must still resolve.
	gpos []uint64
	// curWin is the shard-local start position of the shard's current
	// root window, as announced by the progress stream. It is not
	// monotone across a crash replay (the replayed suffix re-announces
	// earlier boundaries so regenerated matches key identically); the
	// release low bound below is.
	curWin uint64
	// low is the monotone release bound: every future *accepted* match of
	// this shard has a key at or above it.
	low uint64
	// drained marks end of stream: the bound is infinite.
	drained bool
	// buf holds accepted, not-yet-released matches in arrival (= key)
	// order; head is buf[next].
	buf  []keyedMatch
	next int
}

type keyedMatch struct {
	key   uint64
	match event.Complex
}

// orderedMerge interleaves per-shard emission streams. Callers own the
// locking; all methods are single-goroutine or externally serialized.
type orderedMerge struct {
	shards []mergeShard
	// fed counts globally routed events: the conservative bound for a
	// shard whose boundary points past everything routed to it so far.
	fed uint64
	out func(event.Complex)
}

func newOrderedMerge(n int, out func(event.Complex)) *orderedMerge {
	return &orderedMerge{shards: make([]mergeShard, n), out: out}
}

// route records that the next global event (position m.fed) was routed to
// shard s, and returns its shard-local position.
func (m *orderedMerge) route(s int) uint64 {
	sh := &m.shards[s]
	local := uint64(len(sh.gpos))
	sh.gpos = append(sh.gpos, m.fed)
	m.fed++
	return local
}

// keyAt resolves a shard-local boundary to a global release bound: the
// global position of the event at that local position, or — when the
// boundary points past everything routed so far — the number of globally
// fed events (any future event routed here lands at or past it).
func (m *orderedMerge) keyAt(s int, local uint64) uint64 {
	sh := &m.shards[s]
	if local < uint64(len(sh.gpos)) {
		return sh.gpos[local]
	}
	return m.fed
}

// emit accepts one match from shard s and buffers it under the current
// root-window key. It returns false when the match's detection position
// was never routed to this shard (a protocol violation).
func (m *orderedMerge) emit(s int, match event.Complex) bool {
	sh := &m.shards[s]
	if match.DetectedAt >= uint64(len(sh.gpos)) {
		return false
	}
	key := m.keyAt(s, sh.curWin)
	sh.buf = append(sh.buf, keyedMatch{key: key, match: match})
	if key > sh.low {
		sh.low = key
	}
	return true
}

// progress records a root-pop boundary from shard s.
func (m *orderedMerge) progress(s int, boundary uint64) {
	sh := &m.shards[s]
	sh.curWin = boundary
	if k := m.keyAt(s, boundary); k > sh.low {
		sh.low = k
	}
}

// drained marks shard s's stream as ended.
func (m *orderedMerge) drained(s int) {
	m.shards[s].drained = true
}

// release delivers every buffered match whose order is settled, in global
// order.
func (m *orderedMerge) release() {
	for {
		best := -1
		var bestKey uint64
		for i := range m.shards {
			sh := &m.shards[i]
			if sh.next < len(sh.buf) {
				if k := sh.buf[sh.next].key; best < 0 || k < bestKey {
					best, bestKey = i, k
				}
			}
		}
		if best < 0 {
			return
		}
		for i := range m.shards {
			sh := &m.shards[i]
			if i == best || sh.next < len(sh.buf) || sh.drained {
				continue
			}
			if sh.low < bestKey {
				// This shard may still produce a match ordered before the
				// candidate: hold the merge until its bound advances.
				return
			}
		}
		sh := &m.shards[best]
		km := sh.buf[sh.next]
		sh.buf[sh.next] = keyedMatch{}
		sh.next++
		if sh.next == len(sh.buf) {
			sh.buf = sh.buf[:0]
			sh.next = 0
		}
		m.out(km.match)
	}
}
