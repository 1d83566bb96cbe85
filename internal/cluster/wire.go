// Package cluster distributes the shards of one SPECTRE query across
// remote worker processes while keeping the delivered output equal to
// local execution (DESIGN.md §12).
//
// Roles:
//
//   - A Coordinator owns the placement table (shard id → worker link),
//     routes the submitted stream per shard, batches events per worker
//     link, and re-interleaves the per-shard emission streams into one
//     deterministic, sequential-equivalent order (ordered merge).
//   - A Worker joins a coordinator over TCP, runs each assigned shard as
//     an independent single-shard durable core runtime (WAL in memory),
//     and streams emissions and progress watermarks back.
//
// Rebalancing moves a shard between workers by shipping its WAL state
// (durable.ExportShard) inside a handoff frame; the receiving worker
// recovers through the ordinary crash-recovery path, with the
// already-delivered emission prefix suppressed by watermark and any
// crash-replayed overlap deduplicated by emission ordinal at the
// coordinator.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/spectrecep/spectre/internal/event"
)

// protoVersion is the newest frame grammar this build speaks;
// minProtoVersion the oldest it still accepts. The handshake negotiates
// per link: the worker's hello advertises its maximum, the coordinator
// answers with min(worker max, coordinator max), and a peer below
// minProtoVersion is refused. Bump protoVersion on any wire-incompatible
// change.
const (
	protoVersion    = 2
	minProtoVersion = 2
)

// Frame kinds on a cluster link (transport frame layer, internal/transport
// frame.go). Control frames are fixed-width: they are rare. The event
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
	kindAssign    byte = 5  // coordinator → worker: run this shard (opt. snapshot)
	kindReady     byte = 6  // worker → coordinator: shard recovered, resume position
	_             byte = 7  // retired (the fixed-width event batch); never reuse
	kindEmit      byte = 8  // worker → coordinator: one match, with global ordinal
	kindProgress  byte = 9  // worker → coordinator: root-pop boundary watermark
	kindClose     byte = 10 // coordinator → worker: end of stream for shard
	kindDrained   byte = 11 // worker → coordinator: shard fully drained
	kindQuiesce   byte = 12 // coordinator → worker: park shard and hand it off
	kindHandoff   byte = 13 // worker → coordinator: parked shard's WAL snapshot
	kindAbort     byte = 14 // coordinator → worker: discard shard immediately
	kindError     byte = 15 // either way: fatal protocol/assignment failure
	kindEvents    byte = 16 // compact per-shard event batch
	kindPage      byte = 17 // shared event page (sent once per worker)
	kindPageRefs  byte = 18 // per-(query,shard) references into a page
)

// maxWireCount bounds every decoded collection length so a corrupt frame
// cannot demand a huge allocation before its (length-capped) body runs out.
const maxWireCount = 1 << 24

// frameOverhead is the transport framing cost per frame: length and CRC
// words plus the kind byte (used by the link byte counters).
const frameOverhead = 9

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

type assignMsg struct {
	Query    uint32
	Shard    uint32
	NShards  uint32
	EmitBase uint64
	Name     string
	Text     string
	Snapshot []byte
	// PreStamped (carried in a trailing flags byte) tells the worker that the coordinator runs the plan's intake
	// prefilter before shipping: wire sequence numbers are raw
	// substream positions and must be trusted, not re-stamped.
	PreStamped bool
}

type readyMsg struct {
	Query  uint32
	Shard  uint32
	Resume uint64
}

type emitMsg struct {
	Query   uint32
	Shard   uint32
	Ordinal uint64
	Match   event.Complex
}

type progressMsg struct {
	Query    uint32
	Shard    uint32
	Boundary uint64
}

// shardMsg is the shared body of kindClose, kindDrained, kindQuiesce and
// kindAbort.
type shardMsg struct {
	Query uint32
	Shard uint32
}

type handoffMsg struct {
	Query     uint32
	Shard     uint32
	Watermark uint64
	Snapshot  []byte
}

type errorMsg struct {
	Msg string
}

// kindEvents flags.
const (
	evContig    byte = 1 << 0 // seqs are First..First+n-1; no deltas encoded
	evProjected byte = 1 << 1 // fields carry a fixed projection column set
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

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = appendU32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func appendU64s(b []byte, vs []uint64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU64(b, v)
	}
	return b
}

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func (m *helloMsg) encode(b []byte) []byte {
	b = appendU32(b, m.Proto)
	b = appendU32(b, m.Capacity)
	return appendStr(b, m.Name)
}

func (m *welcomeMsg) encode(b []byte) []byte {
	b = appendU32(b, m.Proto)
	return appendU32(b, m.WorkerID)
}

func (m *tablesMsg) encode(b []byte) []byte {
	b = appendStrs(b, m.Types)
	return appendStrs(b, m.Fields)
}

func (m *assignMsg) encode(b []byte) []byte {
	b = appendU32(b, m.Query)
	b = appendU32(b, m.Shard)
	b = appendU32(b, m.NShards)
	b = appendU64(b, m.EmitBase)
	b = appendStr(b, m.Name)
	b = appendStr(b, m.Text)
	b = appendBytes(b, m.Snapshot)
	var flags byte
	if m.PreStamped {
		flags |= assignPreStamped
	}
	return append(b, flags)
}

func (m *readyMsg) encode(b []byte) []byte {
	b = appendU32(b, m.Query)
	b = appendU32(b, m.Shard)
	return appendU64(b, m.Resume)
}

func (m *emitMsg) encode(b []byte) []byte {
	b = appendU32(b, m.Query)
	b = appendU32(b, m.Shard)
	b = appendU64(b, m.Ordinal)
	b = appendStr(b, m.Match.Query)
	b = appendU64(b, m.Match.WindowID)
	b = appendU64(b, m.Match.DetectedAt)
	b = appendU64s(b, m.Match.Constituents)
	return appendU64s(b, m.Match.Consumed)
}

func (m *progressMsg) encode(b []byte) []byte {
	b = appendU32(b, m.Query)
	b = appendU32(b, m.Shard)
	return appendU64(b, m.Boundary)
}

func (m *shardMsg) encode(b []byte) []byte {
	b = appendU32(b, m.Query)
	return appendU32(b, m.Shard)
}

func (m *handoffMsg) encode(b []byte) []byte {
	b = appendU32(b, m.Query)
	b = appendU32(b, m.Shard)
	b = appendU64(b, m.Watermark)
	return appendBytes(b, m.Snapshot)
}

func (m *errorMsg) encode(b []byte) []byte {
	return appendStr(b, m.Msg)
}

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

func (m *eventsMsg) encode(b []byte) []byte {
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
		flags |= evContig
	}
	if m.Proj != nil {
		flags |= evProjected
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

func (m *pageMsg) encode(b []byte) []byte {
	b = appendUvarint(b, m.PageID)
	b = appendUvarint(b, uint64(m.Refs))
	b = appendUvarint(b, uint64(len(m.Events)))
	return appendEventCols(b, m.Events, nil)
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

// --- decoding -----------------------------------------------------------

// wireReader is a sticky-error cursor over one frame body (mirrors the
// durable codec's decoder): the first malformed field poisons the reader
// and every later accessor returns a zero value, so message decoders read
// straight through and check err once.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: bad frame: "+format, args...)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *wireReader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *wireReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

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

func (r *wireReader) count() int {
	n := r.u32()
	if n > maxWireCount {
		r.fail("count %d exceeds limit %d", n, maxWireCount)
		return 0
	}
	return int(n)
}

func (r *wireReader) str() string {
	n := r.count()
	return string(r.take(n))
}

func (r *wireReader) bytes() []byte {
	n := r.count()
	p := r.take(n)
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

func (r *wireReader) strs() []string {
	n := r.count()
	if r.err != nil {
		return nil
	}
	out := make([]string, 0, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

func (r *wireReader) u64s() []uint64 {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	if n*8 > len(r.b)-r.off {
		r.fail("u64 list of %d overruns frame", n)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

// finish reports the sticky error, or a trailing-garbage error when the
// frame body was not fully consumed.
func (r *wireReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("cluster: bad frame: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

func decodeHello(b []byte) (helloMsg, error) {
	r := wireReader{b: b}
	m := helloMsg{Proto: r.u32(), Capacity: r.u32(), Name: r.str()}
	return m, r.finish()
}

func decodeWelcome(b []byte) (welcomeMsg, error) {
	r := wireReader{b: b}
	m := welcomeMsg{Proto: r.u32(), WorkerID: r.u32()}
	return m, r.finish()
}

func decodeTables(b []byte) (tablesMsg, error) {
	r := wireReader{b: b}
	m := tablesMsg{Types: r.strs(), Fields: r.strs()}
	return m, r.finish()
}

func decodeAssign(b []byte) (assignMsg, error) {
	r := wireReader{b: b}
	m := assignMsg{
		Query:    r.u32(),
		Shard:    r.u32(),
		NShards:  r.u32(),
		EmitBase: r.u64(),
		Name:     r.str(),
		Text:     r.str(),
		Snapshot: r.bytes(),
	}
	m.PreStamped = r.u8()&assignPreStamped != 0
	return m, r.finish()
}

func decodeReady(b []byte) (readyMsg, error) {
	r := wireReader{b: b}
	m := readyMsg{Query: r.u32(), Shard: r.u32(), Resume: r.u64()}
	return m, r.finish()
}

func decodeEmit(b []byte) (emitMsg, error) {
	r := wireReader{b: b}
	m := emitMsg{Query: r.u32(), Shard: r.u32(), Ordinal: r.u64()}
	m.Match.Query = r.str()
	m.Match.WindowID = r.u64()
	m.Match.DetectedAt = r.u64()
	m.Match.Constituents = r.u64s()
	m.Match.Consumed = r.u64s()
	return m, r.finish()
}

func decodeProgress(b []byte) (progressMsg, error) {
	r := wireReader{b: b}
	m := progressMsg{Query: r.u32(), Shard: r.u32(), Boundary: r.u64()}
	return m, r.finish()
}

func decodeShardMsg(b []byte) (shardMsg, error) {
	r := wireReader{b: b}
	m := shardMsg{Query: r.u32(), Shard: r.u32()}
	return m, r.finish()
}

func decodeHandoff(b []byte) (handoffMsg, error) {
	r := wireReader{b: b}
	m := handoffMsg{Query: r.u32(), Shard: r.u32(), Watermark: r.u64(), Snapshot: r.bytes()}
	return m, r.finish()
}

func decodeError(b []byte) (errorMsg, error) {
	r := wireReader{b: b}
	m := errorMsg{Msg: r.str()}
	return m, r.finish()
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

// decodeEvents returns the batch with Seq set on every event and the
// projection already undone (dense Fields, Proj nil).
func decodeEvents(b []byte) (eventsMsg, error) {
	r := wireReader{b: b}
	m := eventsMsg{Query: uint32(r.uvarint()), Shard: uint32(r.uvarint())}
	flags := r.u8()
	n := r.uvcount()
	var proj []int
	if flags&evProjected != 0 {
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
		if flags&evContig != 0 {
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
