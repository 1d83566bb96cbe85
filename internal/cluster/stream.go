package cluster

// Shared-stream dedup (DESIGN.md §13.3). Several queries over the same
// source stream each route, filter and retain independently, but a
// worker that owns shards of more than one of them would receive every
// shared event once per shard. A Stream makes the copies explicit and
// collapses them: Stream.FeedBatch routes each event into every attached
// query, stages — per worker link — one physical copy of the event plus
// per-(query, shard) reference lists, and the flush ships the copy as a
// kindPage frame with one small kindPageRefs frame per consumer.
//
// Correctness never depends on a page landing: a staged reference list
// is used only when it still starts exactly at the shard's send cursor
// in the generation it was staged in (checked under the coordinator
// mutex at flush time); anything else is dropped and the ordinary pump
// ships those retained events as plain batches. The two paths are
// mutually exclusive by construction, so no event is sent twice.

import (
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

// Stream is a shared event source for several attached queries
// (Submission.Stream). All state is guarded by the coordinator mutex.
type Stream struct {
	c       *Coordinator
	queries []*queryState
}

// OpenStream creates a shared source. Attach queries by submitting them
// with Submission.Stream set, then feed events through FeedBatch —
// attached queries reject direct handle feeds.
func (c *Coordinator) OpenStream() *Stream {
	return &Stream{c: c}
}

// refKey identifies one (query, shard) consumer in a link's stage.
type refKey struct {
	query uint32
	shard uint32
}

// refList is one consumer's staged references: which staged events it
// needs (stageIdx) and the raw sequence numbers they carry (seqs).
// Entries record consecutive retained ordinals starting at start in
// generation gen; a reassignment in between marks the list broken.
type refList struct {
	q        *queryState
	shard    int
	gen      uint64
	start    uint64
	count    uint64
	broken   bool
	stageIdx []uint32
	seqs     []uint64
}

// pageStage accumulates one link's shared events between flushes.
type pageStage struct {
	events []event.Event
	refs   map[refKey]*refList
}

// FeedBatch routes a batch of source events into every attached query.
// Events whose routed shard is owned and ready are staged for page
// dedup; everything else ships through the plain pump.
func (st *Stream) FeedBatch(evs []event.Event) error {
	c := st.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range evs {
		ev := &evs[i]
		staged := -1 // stage index of ev on w, lazily created per link
		var stagedOn *workerLink
		for _, q := range st.queries {
			if q.closing || q.finished {
				continue
			}
			idx, ord, kept, err := c.routeOne(q, ev, true)
			if err != nil {
				return err
			}
			if !kept {
				continue
			}
			s := q.shards[idx]
			w := s.owner
			if w == nil || !s.ready {
				continue
			}
			if w.stage == nil {
				w.stage = &pageStage{refs: make(map[refKey]*refList)}
			}
			// One physical copy per link. A single source event lands on
			// at most one link's stage per query, and co-location makes
			// the attached queries' owners coincide — when they don't,
			// the second link gets its own copy.
			if stagedOn != w {
				w.stage.events = append(w.stage.events, *ev)
				staged = len(w.stage.events) - 1
				stagedOn = w
			}
			key := refKey{query: q.id, shard: uint32(idx)}
			rl := w.stage.refs[key]
			if rl == nil {
				rl = &refList{q: q, shard: idx, gen: s.gen, start: ord}
				w.stage.refs[key] = rl
			}
			if rl.gen != s.gen || rl.start+rl.count != ord {
				rl.broken = true
			}
			rl.count++
			rl.stageIdx = append(rl.stageIdx, uint32(staged))
			rl.seqs = append(rl.seqs, s.retained.at(ord).Seq)
		}
		if stagedOn != nil && len(stagedOn.stage.events) >= wire.PageEvents {
			c.flushStage(stagedOn)
		}
	}
	return nil
}

// Close closes every attached query's stream end. Call Wait on the
// individual handles (or track drains via OnDrain) afterwards.
func (st *Stream) Close() {
	c := st.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		c.flushStage(w)
	}
	for _, q := range st.queries {
		if q.closing || q.finished {
			continue
		}
		q.closing = true
		for idx := range q.shards {
			c.pump(q, idx, true)
		}
	}
}

// flushStage ships one link's staged page when at least two consumers
// still reference it validly; otherwise the stage is discarded and the
// plain pump covers the events. Valid reference lists advance their
// shard's send cursor past the referenced retained prefix (c.mu held).
func (c *Coordinator) flushStage(w *workerLink) {
	st := w.stage
	if st == nil || len(st.events) == 0 {
		if st != nil {
			clearStage(st)
		}
		return
	}
	valid := make([]*refList, 0, len(st.refs))
	var total uint64
	for _, rl := range st.refs {
		s := rl.q.shards[rl.shard]
		if rl.broken || rl.gen != s.gen || rl.start != s.sent ||
			s.owner != w || !s.ready || s.drained {
			continue
		}
		valid = append(valid, rl)
		total += rl.count
	}
	if len(valid) >= 2 {
		w.pageSeq++
		c.ensureTables(w)
		pm := pageMsg{PageID: w.pageSeq, Refs: uint32(len(valid)), Events: st.events}
		c.encBuf = pm.encode(c.encBuf[:0])
		w.enqueue(kindPage, c.encBuf)
		for _, rl := range valid {
			rm := pageRefsMsg{
				Query:  rl.q.id,
				Shard:  uint32(rl.shard),
				PageID: w.pageSeq,
				Idx:    rl.stageIdx,
				Seqs:   rl.seqs,
			}
			c.encBuf = rm.encode(c.encBuf[:0])
			w.enqueue(kindPageRefs, c.encBuf)
			rl.q.shards[rl.shard].sent += rl.count
		}
		w.eventsSent.Add(total)
		if n := uint64(len(st.events)); total > n {
			w.eventsDeduped.Add(total - n)
		}
	}
	clearStage(st)
}

func clearStage(st *pageStage) {
	st.events = st.events[:0]
	for k := range st.refs {
		delete(st.refs, k)
	}
}
