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
// frame.go).
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
