package durable

import (
	"fmt"
	"math"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

// Minimum encoded size of one element of each decoded collection, the
// per argument of wire.Reader.Count: a collection is only allocated once
// the unread record still holds that many bytes for every element it
// claims.
const (
	minU64Bytes   = 8             // one payload field
	minEventBytes = 8 + 8 + 4 + 4 // seq, ts, type, field count
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
	case KindCut:
		buf = AppendCut(buf, rec.Cut)
	case KindWatermark:
		buf = wire.AppendU64(buf, rec.Watermark)
	default:
		return nil, fmt.Errorf("durable: cannot encode record kind %d", rec.Kind)
	}
	return buf, nil
}

// decodeRecord parses one payload produced by encodeRecord. A reserved
// record is returned with its body unread.
func decodeRecord(p []byte) (*Record, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("durable: empty record")
	}
	d := wire.NewReader(p[1:])
	rec := &Record{Kind: Kind(p[0])}
	switch rec.Kind {
	case kindReserved:
		return rec, nil
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
	case KindCut:
		cut := ReadCut(&d)
		rec.Cut = &cut
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

// AppendCut appends c's encoding: the body of a KindCut record, and the
// cut a cluster link carries in its assign and progress frames.
func AppendCut(b []byte, c *CutRecord) []byte {
	b = wire.AppendU64(b, c.Boundary)
	b = wire.AppendU64(b, c.NextWindowID)
	b = wire.AppendU64(b, c.Watermark)
	return wire.AppendU64s(b, c.Consumed)
}

// ReadCut decodes one AppendCut encoding from r; errors stick to r.
func ReadCut(r *wire.Reader) CutRecord {
	return CutRecord{
		Boundary:     r.U64(),
		NextWindowID: r.U64(),
		Watermark:    r.U64(),
		Consumed:     r.U64s(),
	}
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
