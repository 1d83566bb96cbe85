package durable

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/matcher"
)

// maxRecordBytes bounds a single record's encoded payload; anything
// larger is treated as corruption, not allocated.
const maxRecordBytes = 64 << 20

// Minimum encoded size of one element of each decoded collection, the
// per argument of decoder.count: a collection is only allocated once the
// unread record still holds that many bytes for every element it claims.
const (
	minStringBytes  = 4             // length prefix
	minU64Bytes     = 8             // also one payload field, one matcher span
	minEventBytes   = 8 + 8 + 4 + 4 // seq, ts, type, field count
	minComplexBytes = 4 + 8 + 4 + 4 + 8
	minRunBytes     = 8 + 4 + 4 + 8 + 4 + 4 + 4
)

// encodeRecord appends rec's payload (kind byte + body) to buf.
func encodeRecord(buf []byte, rec *Record) ([]byte, error) {
	buf = append(buf, byte(rec.Kind))
	switch rec.Kind {
	case KindTypes:
		buf = appendStrings(buf, rec.Types)
	case KindFields:
		buf = appendStrings(buf, rec.Fields)
	case KindEvents:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Events)))
		for i := range rec.Events {
			buf = appendEvent(buf, &rec.Events[i])
		}
	case KindCheckpoint:
		buf = appendCheckpoint(buf, rec.Checkpoint)
	case KindCut:
		c := rec.Cut
		buf = binary.LittleEndian.AppendUint64(buf, c.Boundary)
		buf = binary.LittleEndian.AppendUint64(buf, c.NextWindowID)
		buf = binary.LittleEndian.AppendUint64(buf, c.Watermark)
		buf = appendU64s(buf, c.Consumed)
	case KindWatermark:
		buf = binary.LittleEndian.AppendUint64(buf, rec.Watermark)
	default:
		return nil, fmt.Errorf("durable: cannot encode record kind %d", rec.Kind)
	}
	return buf, nil
}

// decodeRecord parses one payload produced by encodeRecord.
func decodeRecord(p []byte) (*Record, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("durable: empty record")
	}
	d := &decoder{p: p[1:]}
	rec := &Record{Kind: Kind(p[0])}
	switch rec.Kind {
	case KindTypes:
		rec.Types = d.strings()
	case KindFields:
		rec.Fields = d.strings()
	case KindEvents:
		n := d.count(minEventBytes)
		if d.err == nil && n > 0 {
			rec.Events = make([]event.Event, n)
			for i := range rec.Events {
				rec.Events[i] = d.event()
			}
		}
	case KindCheckpoint:
		rec.Checkpoint = d.checkpoint()
	case KindCut:
		rec.Cut = &CutRecord{
			Boundary:     d.u64(),
			NextWindowID: d.u64(),
			Watermark:    d.u64(),
			Consumed:     d.u64s(),
		}
	case KindWatermark:
		rec.Watermark = d.u64()
	default:
		return nil, fmt.Errorf("durable: unknown record kind %d", rec.Kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.p) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after kind-%d record", len(d.p), rec.Kind)
	}
	return rec, nil
}

func appendEvent(buf []byte, ev *event.Event) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ev.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.TS))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ev.Fields)))
	for _, f := range ev.Fields {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

func appendCheckpoint(buf []byte, ck *CheckpointRecord) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ck.WindowID)
	buf = binary.LittleEndian.AppendUint64(buf, ck.WindowStart)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.WindowStartTS))
	buf = binary.LittleEndian.AppendUint64(buf, ck.Pos)
	buf = appendU64s(buf, ck.Used)
	buf = appendU64s(buf, ck.Skipped)
	buf = appendU64s(buf, ck.LocalConsumed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ck.Buffered)))
	for i := range ck.Buffered {
		buf = appendComplex(buf, &ck.Buffered[i])
	}
	sn := &ck.Matcher
	buf = binary.LittleEndian.AppendUint64(buf, uint64(sn.NextID))
	buf = appendBool(buf, sn.Stopped)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.Runs)))
	for i := range sn.Runs {
		r := &sn.Runs[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Elem))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.KCount))
		buf = binary.LittleEndian.AppendUint64(buf, r.SetMask)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.LastFlat))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Events)))
		for j := range r.Events {
			buf = appendEvent(buf, &r.Events[j])
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Spans)))
		for _, sp := range r.Spans {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(sp.Start))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(sp.N))
		}
	}
	return buf
}

func appendComplex(buf []byte, c *event.Complex) []byte {
	buf = appendString(buf, c.Query)
	buf = binary.LittleEndian.AppendUint64(buf, c.WindowID)
	buf = appendU64s(buf, c.Constituents)
	buf = appendU64s(buf, c.Consumed)
	buf = binary.LittleEndian.AppendUint64(buf, c.DetectedAt)
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendU64s(buf []byte, vs []uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// decoder is a cursor over a record body; the first error sticks and
// subsequent reads return zero values.
type decoder struct {
	p   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("durable: "+format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.p) < n {
		d.fail("short record: need %d bytes, have %d", n, len(d.p))
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads a collection length and checks that n elements of at least
// per encoded bytes each still fit in the unread record, so a corrupt but
// CRC-valid count cannot drive an allocation out of proportion to the
// bytes actually there (the cluster wire's wireReader.need).
func (d *decoder) count(per int) int {
	n := d.u32()
	if d.err == nil && uint64(n)*uint64(per) > uint64(len(d.p)) {
		d.fail("collection of %d×≥%dB overruns record (%d bytes left)", n, per, len(d.p))
		return 0
	}
	return int(n)
}

func (d *decoder) boolean() bool {
	b := d.take(1)
	if b != nil && b[0] > 1 {
		d.fail("bad bool byte %d", b[0])
	}
	return b != nil && b[0] == 1
}

func (d *decoder) str() string {
	n := d.count(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) strings() []string {
	n := d.count(minStringBytes)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *decoder) u64s() []uint64 {
	n := d.count(minU64Bytes)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u64()
	}
	return out
}

func (d *decoder) event() event.Event {
	ev := event.Event{
		Seq:  d.u64(),
		TS:   int64(d.u64()),
		Type: event.Type(d.u32()),
	}
	if nf := d.count(minU64Bytes); d.err == nil && nf > 0 {
		ev.Fields = make([]float64, nf)
		for i := range ev.Fields {
			ev.Fields[i] = math.Float64frombits(d.u64())
		}
	}
	return ev
}

func (d *decoder) complex() event.Complex {
	return event.Complex{
		Query:        d.str(),
		WindowID:     d.u64(),
		Constituents: d.u64s(),
		Consumed:     d.u64s(),
		DetectedAt:   d.u64(),
	}
}

func (d *decoder) checkpoint() *CheckpointRecord {
	ck := &CheckpointRecord{
		WindowID:      d.u64(),
		WindowStart:   d.u64(),
		WindowStartTS: int64(d.u64()),
		Pos:           d.u64(),
		Used:          d.u64s(),
		Skipped:       d.u64s(),
		LocalConsumed: d.u64s(),
	}
	if n := d.count(minComplexBytes); d.err == nil && n > 0 {
		ck.Buffered = make([]event.Complex, n)
		for i := range ck.Buffered {
			ck.Buffered[i] = d.complex()
		}
	}
	ck.Matcher.NextID = int(d.u64())
	ck.Matcher.Stopped = d.boolean()
	if n := d.count(minRunBytes); d.err == nil && n > 0 {
		ck.Matcher.Runs = make([]matcher.RunSnapshot, n)
		for i := range ck.Matcher.Runs {
			r := &ck.Matcher.Runs[i]
			r.ID = int(d.u64())
			r.Elem = int(d.u32())
			r.KCount = int(d.u32())
			r.SetMask = d.u64()
			r.LastFlat = int32(d.u32())
			if ne := d.count(minEventBytes); d.err == nil && ne > 0 {
				r.Events = make([]event.Event, ne)
				for j := range r.Events {
					r.Events[j] = d.event()
				}
			}
			if ns := d.count(minU64Bytes); d.err == nil && ns > 0 {
				r.Spans = make([]matcher.Span, ns)
				for j := range r.Spans {
					r.Spans[j] = matcher.Span{Start: int32(d.u32()), N: int32(d.u32())}
				}
			}
		}
	}
	return ck
}
