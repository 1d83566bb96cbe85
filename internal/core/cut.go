package core

import "github.com/spectrecep/spectre/internal/durable"

// Cuts (DESIGN.md §12). A cut at boundary b says that no window open now
// or opened later reads a position below b, so every shard runs this one
// rule and each cut releases the arena below its boundary. A shard has
// at most one consumer of its cuts, fixed at start (shardState.onCut):
// the feeder of a shard journaled upstream (Config.Upstream), or the WAL
// of a durable shard. Either restarts the shard from the latest cut it
// received, and the cluster's ordered merge keys every match by the
// boundary of the cut before it, so every cut must be a valid restart
// point and the cut stream must depend on the shard's stream alone,
// never on how far the splitter had ingested when a root popped. A root
// pop reports one cut:
//
//   - the new root's start when the new root overlaps the popped one;
//   - otherwise a gap cut at the popped root's end: nothing between it
//     and the next window's start lies in a window.
//
// Inside a gap, grid cuts follow at every multiple of idleCutEvery once
// an event past it arrived, so a shard that opens no window still
// releases its arena and lets its consumer drop what it kept. A window
// opening on an empty tree reports nothing: its matches key at the gap's
// last cut. Boundaries strictly increase, across restarts too: a shard
// primed from a cut starts with it as its last.

// idleCutEvery spaces the grid cuts inside a gap, in stream positions.
const idleCutEvery = 1024

// cutAt makes the cut at boundary b whose next window id is nextWin,
// unless b is not past the last cut (splitter only). The record is
// built only for a consumer, which must copy what it keeps.
func (s *shardState) cutAt(b, nextWin uint64) {
	if b <= s.lastCut {
		return
	}
	s.lastCut = b
	s.observeLag(b)
	s.ar.Release(b)
	if s.onCut == nil {
		return
	}
	s.cut = durable.CutRecord{
		Boundary:     b,
		NextWindowID: nextWin,
		Watermark:    s.emitted,
		Consumed:     s.ar.ConsumedRuns(b, s.cursor, s.cut.Consumed[:0]),
	}
	s.onCut(&s.cut)
}

// nextGrid is the first grid position past the last cut.
func (s *shardState) nextGrid() uint64 {
	return (s.lastCut/idleCutEvery + 1) * idleCutEvery
}

// gridCuts makes the grid cuts past the last cut and below to.
func (s *shardState) gridCuts(to, nextWin uint64) {
	for g := s.nextGrid(); g < to; g += idleCutEvery {
		s.cutAt(g, nextWin)
	}
}

// cutAfterPop makes the cuts due once the root ending at end popped.
// In a gap the grid cuts run to the next window's start or, with the tree
// empty, to the last ingested position; ingest makes the ones past it
// as events arrive (gridAt). A count window the stream's end cut short
// ends past the stream: its gap starts at the stream's length.
func (s *shardState) cutAfterPop(end uint64) {
	end = min(end, s.cursor)
	root := s.tree.Root()
	if root == nil {
		next := s.winMgr.Opened()
		s.cutAt(end, next)
		s.gridCuts(s.cursor-1, next)
		s.gridAt = s.nextGrid()
		return
	}
	w := root.WV.Win
	if w.StartSeq <= end {
		s.cutAt(w.StartSeq, w.ID)
		return
	}
	s.cutAt(end, w.ID)
	s.gridCuts(w.StartSeq, w.ID)
}
