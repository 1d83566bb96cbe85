// Package cluster distributes the shards of one SPECTRE query across
// remote worker processes while keeping the delivered output equal to
// local execution (DESIGN.md §12).
//
// Roles:
//
//   - A Coordinator owns the placement table (shard id → worker link),
//     routes the submitted stream per shard, batches events per worker
//     link, and re-interleaves the per-shard emission streams into one
//     deterministic, sequential-equivalent order (ordered merge). It is
//     also each shard's only journal: it keeps the shard's events from
//     the latest cut on, and drops the rest at every cut.
//   - A Worker joins a coordinator over TCP, runs each assigned shard as
//     a plain single-shard core runtime started from the cut the assign
//     frame carries (core.Upstream), and streams emissions and cuts
//     back.
//
// Every assignment starts from the shard's latest cut, with the retained
// events from its boundary replayed: a fresh shard, a crashed owner's
// shard and a rebalanced one alike. Moving a shard is a reassignment plus
// an abort to the old owner; matches the new owner regenerates below the
// accept cursor are dropped by emission ordinal at the coordinator.
package cluster

import (
	"io"
	"math"

	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

// protoVersion is the one frame grammar this build speaks. Hello and
// welcome both carry it and each end refuses a peer that differs. Bump it
// on any wire-incompatible change.
//
// v3: fixed-width integers little-endian (internal/wire). v4: the assign
// frame lost its flags byte (every shard trusts the coordinator's
// positions). v5: assign and progress frames carry a cut, the
// ready frame no resume position, and quiesce/handoff are retired.
const protoVersion = 5

// Frame kinds on a cluster link (the internal/wire frame; DESIGN.md "Wire
// formats"). Control frames are fixed-width: they are rare. The event
// volume travels on three compact kinds, coordinator → worker only
// (DESIGN.md §13):
//
//   - kindEvents: one shard's batch with varint scalars, delta-coded
//     sequence numbers and timestamps, and optional field projection
//     (only the payload fields some predicate reads are shipped).
//   - kindPage: a shared event page — one physical copy of a batch of
//     source events, shipped once per worker even when several
//     co-located (query, shard) consumers need it.
//   - kindPageRefs: one consumer's view of a page — indexes into the
//     page plus that shard's sequence numbers for them.
const (
	kindHello     byte = 1  // worker → coordinator: protocol, capacity, name
	kindWelcome   byte = 2  // coordinator → worker: protocol, worker id
	kindHeartbeat byte = 3  // both ways: liveness while idle
	kindTables    byte = 4  // coordinator → worker: full type/field name tables
	kindAssign    byte = 5  // coordinator → worker: run this shard from a cut
	kindReady     byte = 6  // worker → coordinator: assignment running; its frames follow
	_             byte = 7  // retired (the fixed-width event batch); never reuse
	kindEmit      byte = 8  // worker → coordinator: one match, with global ordinal
	kindProgress  byte = 9  // worker → coordinator: one cut of the shard's stream
	kindClose     byte = 10 // coordinator → worker: end of stream for shard
	kindDrained   byte = 11 // worker → coordinator: shard fully drained
	_             byte = 12 // retired (quiesce: park a shard for handoff); never reuse
	_             byte = 13 // retired (handoff: a parked shard's WAL); never reuse
	kindAbort     byte = 14 // coordinator → worker: discard shard immediately
	kindError     byte = 15 // either way: fatal protocol/assignment failure
	kindEvents    byte = 16 // compact per-shard event batch
	kindPage      byte = 17 // shared event page (sent once per worker)
	kindPageRefs  byte = 18 // per-(query,shard) references into a page
)

// maxPageIndex bounds a page reference's event index, far above any page a
// coordinator builds (a page is one frame).
const maxPageIndex = 1 << 24

type helloMsg struct {
	Proto    uint32
	Capacity uint32
	Name     string
}

type welcomeMsg struct {
	Proto    uint32
	WorkerID uint32
}

type tablesMsg struct {
	Types  []string
	Fields []string
}

// assignMsg starts a shard from Cut: the worker restores its consumption
// marks, next window id and emission watermark (the first ordinal it
// emits), and the coordinator replays the events from its boundary on.
type assignMsg struct {
	Query   uint32
	Shard   uint32
	NShards uint32
	Name    string
	Text    string
	Cut     durable.CutRecord
}

type emitMsg struct {
	Query   uint32
	Shard   uint32
	Ordinal uint64
	Match   event.Complex
}

// progressMsg is one cut of a shard's stream (core.Upstream.OnCut).
type progressMsg struct {
	Query uint32
	Shard uint32
	Cut   durable.CutRecord
}

// shardMsg is the shared body of kindReady, kindClose, kindDrained and
// kindAbort.
type shardMsg struct {
	Query uint32
	Shard uint32
}

type errorMsg struct {
	Msg string
}

// kindEvents flags.
const (
	evContig    byte = 1 << 0 // seqs are First..First+n-1; no deltas encoded
	evProjected byte = 1 << 1 // fields carry a fixed projection column set
)

// maxProjFields bounds a projection list; maxProjIndex bounds each
// projected field index. Registry field tables are tiny, so the index
// bound is deliberately harsh: the decoder reconstructs dense Fields
// arrays of width max(proj)+1 per event, and capping the width at 256
// keeps the slab proportional to the wire bytes backing it (Need(n,
// len(proj)*8) ⇒ slab ≤ 32× the unread body). The coordinator never
// projects a query whose plan reads a field at or above the bound
// (Submit falls back to full field shipping).
const (
	maxProjFields = 1 << 12
	maxProjIndex  = 1 << 8
)

// eventsMsg is the wire form of one shard's event batch. Events must be in
// strictly increasing Seq order (the coordinator's retained buffer
// guarantees it). Proj, when non-nil, lists the payload field indexes
// actually shipped; the decoder reconstructs dense Fields arrays with
// zeros elsewhere, which is output-equivalent because the query's plan
// proved no predicate reads an unlisted field and matches reference
// events by position, never payload.
type eventsMsg struct {
	Query  uint32
	Shard  uint32
	Proj   []int
	Events []event.Event
}

// pageMsg is one shared event page. Refs is the number of kindPageRefs
// frames that will reference the page — the worker frees it after that
// many arrive. Page events carry no sequence numbers; each consumer's
// refs frame supplies its own.
type pageMsg struct {
	PageID uint64
	Refs   uint32
	Events []event.Event
}

// pageRefsMsg maps a strictly increasing subset of a page's events into
// one (query, shard) substream: Idx[i] is the event's position in the
// page, Seqs[i] the shard-local sequence number it gets.
type pageRefsMsg struct {
	Query  uint32
	Shard  uint32
	PageID uint64
	Idx    []uint32
	Seqs   []uint64
}

// --- encoding -----------------------------------------------------------

func (m *helloMsg) encode(b []byte) []byte {
	b = wire.AppendU32(b, m.Proto)
	b = wire.AppendU32(b, m.Capacity)
	return wire.AppendStr(b, m.Name)
}

func (m *welcomeMsg) encode(b []byte) []byte {
	b = wire.AppendU32(b, m.Proto)
	return wire.AppendU32(b, m.WorkerID)
}

func (m *tablesMsg) encode(b []byte) []byte {
	b = wire.AppendStrs(b, m.Types)
	return wire.AppendStrs(b, m.Fields)
}

func (m *assignMsg) encode(b []byte) []byte {
	b = wire.AppendU32(b, m.Query)
	b = wire.AppendU32(b, m.Shard)
	b = wire.AppendU32(b, m.NShards)
	b = wire.AppendStr(b, m.Name)
	b = wire.AppendStr(b, m.Text)
	return durable.AppendCut(b, &m.Cut)
}

func (m *emitMsg) encode(b []byte) []byte {
	b = wire.AppendU32(b, m.Query)
	b = wire.AppendU32(b, m.Shard)
	b = wire.AppendU64(b, m.Ordinal)
	b = wire.AppendStr(b, m.Match.Query)
	b = wire.AppendU64(b, m.Match.WindowID)
	b = wire.AppendU64(b, m.Match.DetectedAt)
	b = wire.AppendU64s(b, m.Match.Constituents)
	return wire.AppendU64s(b, m.Match.Consumed)
}

func (m *progressMsg) encode(b []byte) []byte {
	b = wire.AppendU32(b, m.Query)
	b = wire.AppendU32(b, m.Shard)
	return durable.AppendCut(b, &m.Cut)
}

func (m *shardMsg) encode(b []byte) []byte {
	b = wire.AppendU32(b, m.Query)
	return wire.AppendU32(b, m.Shard)
}

func (m *errorMsg) encode(b []byte) []byte {
	return wire.AppendStr(b, m.Msg)
}

func (m *eventsMsg) encode(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Query))
	b = wire.AppendUvarint(b, uint64(m.Shard))
	contig := true
	for i := 1; i < len(m.Events); i++ {
		if m.Events[i].Seq != m.Events[i-1].Seq+1 {
			contig = false
			break
		}
	}
	var flags byte
	if contig {
		flags |= evContig
	}
	if m.Proj != nil {
		flags |= evProjected
	}
	b = append(b, flags)
	b = wire.AppendUvarint(b, uint64(len(m.Events)))
	if m.Proj != nil {
		b = wire.AppendUvarint(b, uint64(len(m.Proj)))
		for _, f := range m.Proj {
			b = wire.AppendUvarint(b, uint64(f))
		}
	}
	if len(m.Events) == 0 {
		return b
	}
	b = wire.AppendUvarint(b, m.Events[0].Seq)
	if !contig {
		for i := 1; i < len(m.Events); i++ {
			b = wire.AppendUvarint(b, m.Events[i].Seq-m.Events[i-1].Seq-1)
		}
	}
	return wire.AppendEventCols(b, m.Events, m.Proj)
}

func (m *pageMsg) encode(b []byte) []byte {
	b = wire.AppendUvarint(b, m.PageID)
	b = wire.AppendUvarint(b, uint64(m.Refs))
	return wire.AppendEvents(b, m.Events)
}

func (m *pageRefsMsg) encode(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Query))
	b = wire.AppendUvarint(b, uint64(m.Shard))
	b = wire.AppendUvarint(b, m.PageID)
	b = wire.AppendUvarint(b, uint64(len(m.Idx)))
	for i, v := range m.Idx {
		if i == 0 {
			b = wire.AppendUvarint(b, uint64(v))
		} else {
			b = wire.AppendUvarint(b, uint64(v-m.Idx[i-1]-1))
		}
	}
	for i, s := range m.Seqs {
		if i == 0 {
			b = wire.AppendUvarint(b, s)
		} else {
			b = wire.AppendUvarint(b, s-m.Seqs[i-1]-1)
		}
	}
	return b
}

// writeFrame sends one unqueued frame (handshake and rejection paths).
func writeFrame(w io.Writer, kind byte, body []byte) error {
	frame, err := wire.AppendFrame(nil, kind, body)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// --- decoding -----------------------------------------------------------

func decodeHello(b []byte) (helloMsg, error) {
	r := wire.NewReader(b)
	m := helloMsg{Proto: r.U32(), Capacity: r.U32(), Name: r.Str()}
	return m, r.Finish()
}

func decodeWelcome(b []byte) (welcomeMsg, error) {
	r := wire.NewReader(b)
	m := welcomeMsg{Proto: r.U32(), WorkerID: r.U32()}
	return m, r.Finish()
}

func decodeTables(b []byte) (tablesMsg, error) {
	r := wire.NewReader(b)
	m := tablesMsg{Types: r.Strs(), Fields: r.Strs()}
	return m, r.Finish()
}

func decodeAssign(b []byte) (assignMsg, error) {
	r := wire.NewReader(b)
	m := assignMsg{
		Query:   r.U32(),
		Shard:   r.U32(),
		NShards: r.U32(),
		Name:    r.Str(),
		Text:    r.Str(),
		Cut:     durable.ReadCut(&r),
	}
	return m, r.Finish()
}

func decodeEmit(b []byte) (emitMsg, error) {
	r := wire.NewReader(b)
	m := emitMsg{Query: r.U32(), Shard: r.U32(), Ordinal: r.U64()}
	m.Match.Query = r.Str()
	m.Match.WindowID = r.U64()
	m.Match.DetectedAt = r.U64()
	m.Match.Constituents = r.U64s()
	m.Match.Consumed = r.U64s()
	return m, r.Finish()
}

func decodeProgress(b []byte) (progressMsg, error) {
	r := wire.NewReader(b)
	m := progressMsg{Query: r.U32(), Shard: r.U32(), Cut: durable.ReadCut(&r)}
	return m, r.Finish()
}

func decodeShardMsg(b []byte) (shardMsg, error) {
	r := wire.NewReader(b)
	m := shardMsg{Query: r.U32(), Shard: r.U32()}
	return m, r.Finish()
}

func decodeError(b []byte) (errorMsg, error) {
	r := wire.NewReader(b)
	m := errorMsg{Msg: r.Str()}
	return m, r.Finish()
}

// decodeProj reads a projection field-index list (strictly bounded; the
// legal lists come from a registry field table).
func decodeProj(r *wire.Reader) []int {
	np := r.Uvcount(1)
	if np > maxProjFields {
		r.Fail("projection of %d fields exceeds limit %d", np, maxProjFields)
		return nil
	}
	if np == 0 {
		return nil
	}
	proj := make([]int, np)
	for i := range proj {
		f := r.Uvarint()
		if f >= maxProjIndex {
			r.Fail("projected field index %d exceeds limit %d", f, maxProjIndex)
			return nil
		}
		proj[i] = int(f)
	}
	return proj
}

// decodeEvents returns the batch with Seq set on every event and the
// projection already undone (dense Fields, Proj nil).
func decodeEvents(b []byte) (eventsMsg, error) {
	r := wire.NewReader(b)
	m := eventsMsg{Query: uint32(r.Uvarint()), Shard: uint32(r.Uvarint())}
	flags := r.U8()
	// Every event costs at least one type byte and one TS byte, so the
	// allocation below is proportional to delivered bytes.
	n := r.Uvcount(2)
	var proj []int
	if flags&evProjected != 0 {
		proj = decodeProj(&r)
	}
	if r.Err() != nil || n == 0 {
		return m, r.Finish()
	}
	evs := make([]event.Event, n)
	seq := r.Uvarint()
	evs[0].Seq = seq
	for i := 1; i < n && r.Err() == nil; i++ {
		if flags&evContig != 0 {
			seq++
		} else {
			gap := r.Uvarint()
			if gap > 1<<48 {
				r.Fail("seq gap %d out of range", gap)
				break
			}
			seq += gap + 1
		}
		evs[i].Seq = seq
	}
	wire.DecodeEventCols(&r, evs, proj)
	m.Events = evs
	return m, r.Finish()
}

func decodePage(b []byte) (pageMsg, error) {
	r := wire.NewReader(b)
	m := pageMsg{PageID: r.Uvarint()}
	refs := r.Uvarint()
	if refs > math.MaxUint32 {
		r.Fail("page ref count %d out of range", refs)
	}
	m.Refs = uint32(refs)
	m.Events = r.Events(nil)
	return m, r.Finish()
}

func decodePageRefs(b []byte) (pageRefsMsg, error) {
	r := wire.NewReader(b)
	m := pageRefsMsg{
		Query:  uint32(r.Uvarint()),
		Shard:  uint32(r.Uvarint()),
		PageID: r.Uvarint(),
	}
	// One index byte and one seq byte minimum per entry.
	n := r.Uvcount(2)
	if n == 0 {
		return m, r.Finish()
	}
	m.Idx = make([]uint32, n)
	var idx uint64
	for i := 0; i < n && r.Err() == nil; i++ {
		gap := r.Uvarint()
		if i == 0 {
			idx = gap
		} else {
			idx += gap + 1
		}
		if idx > maxPageIndex {
			r.Fail("page index %d exceeds limit %d", idx, maxPageIndex)
			break
		}
		m.Idx[i] = uint32(idx)
	}
	if r.Err() != nil {
		return m, r.Finish()
	}
	m.Seqs = make([]uint64, n)
	var seq uint64
	for i := 0; i < n && r.Err() == nil; i++ {
		gap := r.Uvarint()
		if i > 0 && gap > 1<<48 {
			r.Fail("seq gap %d out of range", gap)
			break
		}
		if i == 0 {
			seq = gap
		} else {
			seq += gap + 1
		}
		m.Seqs[i] = seq
	}
	return m, r.Finish()
}
