package durable

import (
	"fmt"
	"math"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/matcher"
	"github.com/spectrecep/spectre/internal/wire"
)

// Minimum encoded size of one element of each decoded collection, the
// per argument of wire.Reader.Count: a collection is only allocated once
// the unread record still holds that many bytes for every element it
// claims.
const (
	minU64Bytes     = 8             // one payload field, one matcher span
	minEventBytes   = 8 + 8 + 4 + 4 // seq, ts, type, field count
	minComplexBytes = 4 + 8 + 4 + 4 + 8
	minRunBytes     = 8 + 4 + 4 + 8 + 4 + 4 + 4
)

// encodeRecord appends rec's payload (kind byte + body) to buf.
func encodeRecord(buf []byte, rec *Record) ([]byte, error) {
	buf = append(buf, byte(rec.Kind))
	switch rec.Kind {
	case KindTypes:
		buf = wire.AppendStrs(buf, rec.Types)
	case KindFields:
		buf = wire.AppendStrs(buf, rec.Fields)
	case KindEvents:
		buf = wire.AppendU32(buf, uint32(len(rec.Events)))
		for i := range rec.Events {
			buf = appendEvent(buf, &rec.Events[i])
		}
	case KindCheckpoint:
		buf = appendCheckpoint(buf, rec.Checkpoint)
	case KindCut:
		c := rec.Cut
		buf = wire.AppendU64(buf, c.Boundary)
		buf = wire.AppendU64(buf, c.NextWindowID)
		buf = wire.AppendU64(buf, c.Watermark)
		buf = wire.AppendU64s(buf, c.Consumed)
	case KindWatermark:
		buf = wire.AppendU64(buf, rec.Watermark)
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
	d := wire.NewReader(p[1:])
	rec := &Record{Kind: Kind(p[0])}
	switch rec.Kind {
	case KindTypes:
		rec.Types = d.Strs()
	case KindFields:
		rec.Fields = d.Strs()
	case KindEvents:
		if n := d.Count(minEventBytes); n > 0 {
			rec.Events = make([]event.Event, n)
			for i := range rec.Events {
				rec.Events[i] = decodeEvent(&d)
			}
		}
	case KindCheckpoint:
		rec.Checkpoint = decodeCheckpoint(&d)
	case KindCut:
		rec.Cut = &CutRecord{
			Boundary:     d.U64(),
			NextWindowID: d.U64(),
			Watermark:    d.U64(),
			Consumed:     d.U64s(),
		}
	case KindWatermark:
		rec.Watermark = d.U64()
	default:
		return nil, fmt.Errorf("durable: unknown record kind %d", rec.Kind)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("durable: kind-%d record: %w", rec.Kind, err)
	}
	return rec, nil
}

func appendEvent(buf []byte, ev *event.Event) []byte {
	buf = wire.AppendU64(buf, ev.Seq)
	buf = wire.AppendU64(buf, uint64(ev.TS))
	buf = wire.AppendU32(buf, uint32(ev.Type))
	buf = wire.AppendU32(buf, uint32(len(ev.Fields)))
	for _, f := range ev.Fields {
		buf = wire.AppendU64(buf, math.Float64bits(f))
	}
	return buf
}

func appendCheckpoint(buf []byte, ck *CheckpointRecord) []byte {
	buf = wire.AppendU64(buf, ck.WindowID)
	buf = wire.AppendU64(buf, ck.WindowStart)
	buf = wire.AppendU64(buf, uint64(ck.WindowStartTS))
	buf = wire.AppendU64(buf, ck.Pos)
	buf = wire.AppendU64s(buf, ck.Used)
	buf = wire.AppendU64s(buf, ck.Skipped)
	buf = wire.AppendU64s(buf, ck.LocalConsumed)
	buf = wire.AppendU32(buf, uint32(len(ck.Buffered)))
	for i := range ck.Buffered {
		buf = appendComplex(buf, &ck.Buffered[i])
	}
	sn := &ck.Matcher
	buf = wire.AppendU64(buf, uint64(sn.NextID))
	buf = wire.AppendBool(buf, sn.Stopped)
	buf = wire.AppendU32(buf, uint32(len(sn.Runs)))
	for i := range sn.Runs {
		r := &sn.Runs[i]
		buf = wire.AppendU64(buf, uint64(r.ID))
		buf = wire.AppendU32(buf, uint32(r.Elem))
		buf = wire.AppendU32(buf, uint32(r.KCount))
		buf = wire.AppendU64(buf, r.SetMask)
		buf = wire.AppendU32(buf, uint32(r.LastFlat))
		buf = wire.AppendU32(buf, uint32(len(r.Events)))
		for j := range r.Events {
			buf = appendEvent(buf, &r.Events[j])
		}
		buf = wire.AppendU32(buf, uint32(len(r.Spans)))
		for _, sp := range r.Spans {
			buf = wire.AppendU32(buf, uint32(sp.Start))
			buf = wire.AppendU32(buf, uint32(sp.N))
		}
	}
	return buf
}

func appendComplex(buf []byte, c *event.Complex) []byte {
	buf = wire.AppendStr(buf, c.Query)
	buf = wire.AppendU64(buf, c.WindowID)
	buf = wire.AppendU64s(buf, c.Constituents)
	buf = wire.AppendU64s(buf, c.Consumed)
	buf = wire.AppendU64(buf, c.DetectedAt)
	return buf
}

func decodeEvent(d *wire.Reader) event.Event {
	ev := event.Event{
		Seq:  d.U64(),
		TS:   int64(d.U64()),
		Type: event.Type(d.U32()),
	}
	if nf := d.Count(minU64Bytes); nf > 0 {
		ev.Fields = make([]float64, nf)
		for i := range ev.Fields {
			ev.Fields[i] = math.Float64frombits(d.U64())
		}
	}
	return ev
}

func decodeComplex(d *wire.Reader) event.Complex {
	return event.Complex{
		Query:        d.Str(),
		WindowID:     d.U64(),
		Constituents: d.U64s(),
		Consumed:     d.U64s(),
		DetectedAt:   d.U64(),
	}
}

func decodeCheckpoint(d *wire.Reader) *CheckpointRecord {
	ck := &CheckpointRecord{
		WindowID:      d.U64(),
		WindowStart:   d.U64(),
		WindowStartTS: int64(d.U64()),
		Pos:           d.U64(),
		Used:          d.U64s(),
		Skipped:       d.U64s(),
		LocalConsumed: d.U64s(),
	}
	if n := d.Count(minComplexBytes); n > 0 {
		ck.Buffered = make([]event.Complex, n)
		for i := range ck.Buffered {
			ck.Buffered[i] = decodeComplex(d)
		}
	}
	ck.Matcher.NextID = int(d.U64())
	ck.Matcher.Stopped = d.Bool()
	if n := d.Count(minRunBytes); n > 0 {
		ck.Matcher.Runs = make([]matcher.RunSnapshot, n)
		for i := range ck.Matcher.Runs {
			r := &ck.Matcher.Runs[i]
			r.ID = int(d.U64())
			r.Elem = int(d.U32())
			r.KCount = int(d.U32())
			r.SetMask = d.U64()
			r.LastFlat = int32(d.U32())
			if ne := d.Count(minEventBytes); ne > 0 {
				r.Events = make([]event.Event, ne)
				for j := range r.Events {
					r.Events[j] = decodeEvent(d)
				}
			}
			if ns := d.Count(minU64Bytes); ns > 0 {
				r.Spans = make([]matcher.Span, ns)
				for j := range r.Spans {
					r.Spans[j] = matcher.Span{Start: int32(d.U32()), N: int32(d.U32())}
				}
			}
		}
	}
	return ck
}
