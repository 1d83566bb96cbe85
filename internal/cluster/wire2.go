package cluster

// The communication-minimizing part of the frame grammar (DESIGN.md
// §13): the event volume travels on three compact frame kinds.
//
//   - kindEvents2: one shard's batch with varint scalars, delta-coded
//     sequence numbers and timestamps, and optional field projection
//     (only the payload fields some predicate reads are shipped).
//   - kindPage: a shared event page — one physical copy of a batch of
//     source events, shipped once per worker even when several
//     co-located (query, shard) consumers need it.
//   - kindPageRefs: one consumer's view of a page — indexes into the
//     page plus that shard's sequence numbers for them.
//
// Control frames (wire.go) are fixed-width: they are rare.

import (
	"encoding/binary"
	"math"

	"github.com/spectrecep/spectre/internal/event"
)

// Event-carrying frame kinds (coordinator → worker only).
const (
	kindEvents2  byte = 16 // compact per-shard event batch
	kindPage     byte = 17 // shared event page (sent once per worker)
	kindPageRefs byte = 18 // per-(query,shard) references into a page
)

// events2 flags.
const (
	ev2Contig    byte = 1 << 0 // seqs are First..First+n-1; no deltas encoded
	ev2Projected byte = 1 << 1 // fields carry a fixed projection column set
)

// assign flags (trailing byte of kindAssign).
const assignPreStamped byte = 1 << 0

// maxProjFields bounds a projection list; maxProjIndex bounds each
// projected field index. Registry field tables are tiny, so the index
// bound is deliberately harsh: the decoder reconstructs dense Fields
// arrays of width max(proj)+1 per event, and capping the width at 256
// keeps the slab proportional to the wire bytes backing it (need(n,
// len(proj)*8) ⇒ slab ≤ 32× the unread body). The coordinator never
// projects a query whose plan reads a field at or above the bound
// (Submit falls back to full field shipping).
const (
	maxProjFields = 1 << 12
	maxProjIndex  = 1 << 8
)

// maxFrameFloats is the maxWireCount analog for decoded payload floats:
// a projected batch reconstructs dense field arrays (n events ×
// (maxProjIndex+1) floats), which can exceed the wire bytes that back
// them, so the decoded total is budgeted independently of frame size.
const maxFrameFloats = 1 << 22

// events2Msg is the wire form of one shard's event batch. Events must be in
// strictly increasing Seq order (the coordinator's retained buffer
// guarantees it). Proj, when non-nil, lists the payload field indexes
// actually shipped; the decoder reconstructs dense Fields arrays with
// zeros elsewhere, which is output-equivalent because the query's plan
// proved no predicate reads an unlisted field and matches reference
// events by position, never payload.
type events2Msg struct {
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

// --- varint plumbing ------------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func (r *wireReader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// uvcount reads a uvarint collection length, bounded like count().
func (r *wireReader) uvcount() int {
	v := r.uvarint()
	if v > maxWireCount {
		r.fail("count %d exceeds limit %d", v, maxWireCount)
		return 0
	}
	return int(v)
}

// need verifies that n entries of at least per bytes each can still fit
// in the unread frame body, so collection sizes stay proportional to
// bytes actually delivered.
func (r *wireReader) need(n, per int) bool {
	if r.err != nil {
		return false
	}
	if n*per > len(r.b)-r.off {
		r.fail("collection of %d×≥%dB overruns frame", n, per)
		return false
	}
	return true
}

// --- shared event columns -------------------------------------------------

// appendEventCols encodes n events column-major: types (uvarint), then
// timestamps (first absolute, then zigzag deltas), then payload fields —
// either the fixed proj columns (raw float64 bits) or per-event
// length-prefixed full field lists.
func appendEventCols(b []byte, evs []event.Event, proj []int) []byte {
	for i := range evs {
		b = appendUvarint(b, uint64(evs[i].Type))
	}
	var prev int64
	for i := range evs {
		b = appendVarint(b, evs[i].TS-prev)
		prev = evs[i].TS
	}
	if proj != nil {
		for i := range evs {
			for _, f := range proj {
				b = appendU64(b, math.Float64bits(evs[i].Field(f)))
			}
		}
		return b
	}
	for i := range evs {
		b = appendUvarint(b, uint64(len(evs[i].Fields)))
		for _, v := range evs[i].Fields {
			b = appendU64(b, math.Float64bits(v))
		}
	}
	return b
}

// decodeEventCols is the inverse of appendEventCols: it fills evs (len
// n, Seq already set by the caller or zero) in place. Projected frames
// reconstruct dense Fields arrays out of one slab; the decoded float
// total is budgeted by maxFrameFloats because dense reconstruction can
// exceed the wire bytes backing it.
func (r *wireReader) decodeEventCols(evs []event.Event, proj []int) {
	n := len(evs)
	for i := 0; i < n && r.err == nil; i++ {
		t := r.uvarint()
		if t > math.MaxUint32 {
			r.fail("event type %d out of range", t)
			return
		}
		evs[i].Type = event.Type(t)
	}
	var prev int64
	for i := 0; i < n && r.err == nil; i++ {
		prev += r.varint()
		evs[i].TS = prev
	}
	if r.err != nil {
		return
	}
	if proj != nil {
		width := 0
		for _, f := range proj {
			if f+1 > width {
				width = f + 1
			}
		}
		if n*width > maxFrameFloats {
			r.fail("projected batch of %d×%d floats exceeds limit %d", n, width, maxFrameFloats)
			return
		}
		if !r.need(n, len(proj)*8) {
			return
		}
		slab := make([]float64, n*width)
		for i := 0; i < n; i++ {
			fields := slab[i*width : (i+1)*width : (i+1)*width]
			for _, f := range proj {
				fields[f] = math.Float64frombits(r.u64())
			}
			evs[i].Fields = fields
		}
		return
	}
	for i := 0; i < n && r.err == nil; i++ {
		nf := r.uvcount()
		if nf == 0 || r.err != nil {
			continue
		}
		if !r.need(nf, 8) {
			return
		}
		fields := make([]float64, nf)
		for j := range fields {
			fields[j] = math.Float64frombits(r.u64())
		}
		evs[i].Fields = fields
	}
}

// decodeProj reads a projection field-index list (strictly bounded; the
// legal lists come from a registry field table).
func (r *wireReader) decodeProj() []int {
	np := r.uvcount()
	if np > maxProjFields {
		r.fail("projection of %d fields exceeds limit %d", np, maxProjFields)
		return nil
	}
	if r.err != nil || np == 0 {
		return nil
	}
	if !r.need(np, 1) {
		return nil
	}
	proj := make([]int, np)
	for i := range proj {
		f := r.uvarint()
		if f >= maxProjIndex {
			r.fail("projected field index %d exceeds limit %d", f, maxProjIndex)
			return nil
		}
		proj[i] = int(f)
	}
	return proj
}

// --- events2 --------------------------------------------------------------

func (m *events2Msg) encode(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Query))
	b = appendUvarint(b, uint64(m.Shard))
	contig := true
	for i := 1; i < len(m.Events); i++ {
		if m.Events[i].Seq != m.Events[i-1].Seq+1 {
			contig = false
			break
		}
	}
	var flags byte
	if contig {
		flags |= ev2Contig
	}
	if m.Proj != nil {
		flags |= ev2Projected
	}
	b = append(b, flags)
	b = appendUvarint(b, uint64(len(m.Events)))
	if m.Proj != nil {
		b = appendUvarint(b, uint64(len(m.Proj)))
		for _, f := range m.Proj {
			b = appendUvarint(b, uint64(f))
		}
	}
	if len(m.Events) == 0 {
		return b
	}
	b = appendUvarint(b, m.Events[0].Seq)
	if !contig {
		for i := 1; i < len(m.Events); i++ {
			b = appendUvarint(b, m.Events[i].Seq-m.Events[i-1].Seq-1)
		}
	}
	return appendEventCols(b, m.Events, m.Proj)
}

// decodeEvents2 returns the batch with Seq set on every event and the
// projection already undone (dense Fields, Proj nil).
func decodeEvents2(b []byte) (events2Msg, error) {
	r := wireReader{b: b}
	m := events2Msg{Query: uint32(r.uvarint()), Shard: uint32(r.uvarint())}
	flags := r.u8()
	n := r.uvcount()
	var proj []int
	if flags&ev2Projected != 0 {
		proj = r.decodeProj()
	}
	if r.err != nil || n == 0 {
		return m, r.finish()
	}
	// Every event costs at least one type byte and one TS byte, so the
	// allocation below is proportional to delivered bytes.
	if !r.need(n, 2) {
		return m, r.finish()
	}
	evs := make([]event.Event, n)
	seq := r.uvarint()
	evs[0].Seq = seq
	for i := 1; i < n && r.err == nil; i++ {
		if flags&ev2Contig != 0 {
			seq++
		} else {
			gap := r.uvarint()
			if gap > 1<<48 {
				r.fail("seq gap %d out of range", gap)
				break
			}
			seq += gap + 1
		}
		evs[i].Seq = seq
	}
	r.decodeEventCols(evs, proj)
	m.Events = evs
	return m, r.finish()
}

// --- pages ----------------------------------------------------------------

func (m *pageMsg) encode(b []byte) []byte {
	b = appendUvarint(b, m.PageID)
	b = appendUvarint(b, uint64(m.Refs))
	b = appendUvarint(b, uint64(len(m.Events)))
	return appendEventCols(b, m.Events, nil)
}

func decodePage(b []byte) (pageMsg, error) {
	r := wireReader{b: b}
	m := pageMsg{PageID: r.uvarint()}
	refs := r.uvarint()
	if refs > maxWireCount {
		r.fail("page ref count %d exceeds limit %d", refs, maxWireCount)
	}
	m.Refs = uint32(refs)
	n := r.uvcount()
	if r.err != nil || n == 0 {
		return m, r.finish()
	}
	// Type byte + TS byte + field-count byte minimum per event.
	if !r.need(n, 3) {
		return m, r.finish()
	}
	evs := make([]event.Event, n)
	r.decodeEventCols(evs, nil)
	m.Events = evs
	return m, r.finish()
}

func (m *pageRefsMsg) encode(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Query))
	b = appendUvarint(b, uint64(m.Shard))
	b = appendUvarint(b, m.PageID)
	b = appendUvarint(b, uint64(len(m.Idx)))
	for i, v := range m.Idx {
		if i == 0 {
			b = appendUvarint(b, uint64(v))
		} else {
			b = appendUvarint(b, uint64(v-m.Idx[i-1]-1))
		}
	}
	for i, s := range m.Seqs {
		if i == 0 {
			b = appendUvarint(b, s)
		} else {
			b = appendUvarint(b, s-m.Seqs[i-1]-1)
		}
	}
	return b
}

func decodePageRefs(b []byte) (pageRefsMsg, error) {
	r := wireReader{b: b}
	m := pageRefsMsg{
		Query:  uint32(r.uvarint()),
		Shard:  uint32(r.uvarint()),
		PageID: r.uvarint(),
	}
	n := r.uvcount()
	if r.err != nil || n == 0 {
		return m, r.finish()
	}
	// One index byte and one seq byte minimum per entry.
	if !r.need(n, 2) {
		return m, r.finish()
	}
	m.Idx = make([]uint32, n)
	var idx uint64
	for i := 0; i < n && r.err == nil; i++ {
		gap := r.uvarint()
		if i == 0 {
			idx = gap
		} else {
			idx += gap + 1
		}
		if idx > maxWireCount {
			r.fail("page index %d exceeds limit %d", idx, maxWireCount)
			break
		}
		m.Idx[i] = uint32(idx)
	}
	if r.err != nil {
		return m, r.finish()
	}
	m.Seqs = make([]uint64, n)
	var seq uint64
	for i := 0; i < n && r.err == nil; i++ {
		gap := r.uvarint()
		if i > 0 && gap > 1<<48 {
			r.fail("seq gap %d out of range", gap)
			break
		}
		if i == 0 {
			seq = gap
		} else {
			seq += gap + 1
		}
		m.Seqs[i] = seq
	}
	return m, r.finish()
}
