package wire

import (
	"math"
	"slices"

	"github.com/spectrecep/spectre/internal/event"
)

// MaxFrameFloats budgets the payload floats one frame's events decode to:
// a projected batch reconstructs dense field arrays (n events × the
// widest projected index), which can exceed the wire bytes that back
// them, so the decoded total is budgeted independently of frame size.
const MaxFrameFloats = 1 << 22

// PageEvents is the event batch size of every link: the most a client
// page holds, and the cluster link's batch of a shard's events.
const PageEvents = 256

// minEventBytes is the least an unprojected event encodes to: one type
// byte, one timestamp byte and one field-count byte.
const minEventBytes = 3

// AppendEvents writes a uvarint count and then evs, unprojected: the
// event page of the client link and the tail of a cluster page.
func AppendEvents(b []byte, evs []event.Event) []byte {
	return AppendEventCols(AppendUvarint(b, uint64(len(evs))), evs, nil)
}

// Events undoes AppendEvents, decoding into buf's backing array when it
// is large enough; no events decode to nil when buf is nil.
func (r *Reader) Events(buf []event.Event) []event.Event {
	n := r.Uvcount(minEventBytes)
	evs := slices.Grow(buf[:0], n)[:n]
	clear(evs)
	DecodeEventCols(r, evs, nil)
	return evs
}

// AppendEventCols encodes evs column-major: types (uvarint), then
// timestamps (first absolute, then zigzag deltas), then payload fields —
// either the fixed proj columns (raw float64 bits) or per-event
// length-prefixed full field lists. Sequence numbers are not encoded;
// each grammar carries or assigns its own.
func AppendEventCols(b []byte, evs []event.Event, proj []int) []byte {
	for i := range evs {
		b = AppendUvarint(b, uint64(evs[i].Type))
	}
	var prev int64
	for i := range evs {
		b = AppendVarint(b, evs[i].TS-prev)
		prev = evs[i].TS
	}
	if proj != nil {
		for i := range evs {
			for _, f := range proj {
				b = AppendU64(b, math.Float64bits(evs[i].Field(f)))
			}
		}
		return b
	}
	for i := range evs {
		b = AppendUvarint(b, uint64(len(evs[i].Fields)))
		for _, v := range evs[i].Fields {
			b = AppendU64(b, math.Float64bits(v))
		}
	}
	return b
}

// DecodeEventCols is the inverse of AppendEventCols: it fills evs (len
// n, zeroed but for Seq) in place. Projected frames reconstruct dense
// Fields arrays out of one slab; the decoded float total is budgeted by
// MaxFrameFloats because dense reconstruction can exceed the wire bytes
// backing it.
func DecodeEventCols(r *Reader, evs []event.Event, proj []int) {
	n := len(evs)
	for i := 0; i < n && r.Err() == nil; i++ {
		t := r.Uvarint()
		if t > math.MaxUint32 {
			r.Fail("event type %d out of range", t)
			return
		}
		evs[i].Type = event.Type(t)
	}
	var prev int64
	for i := 0; i < n && r.Err() == nil; i++ {
		prev += r.Varint()
		evs[i].TS = prev
	}
	if r.Err() != nil {
		return
	}
	if proj != nil {
		width := 0
		for _, f := range proj {
			width = max(width, f+1)
		}
		if n*width > MaxFrameFloats {
			r.Fail("projected batch of %d×%d floats exceeds limit %d", n, width, MaxFrameFloats)
			return
		}
		if !r.Need(n, len(proj)*8) {
			return
		}
		slab := make([]float64, n*width)
		for i := 0; i < n; i++ {
			fields := slab[i*width : (i+1)*width : (i+1)*width]
			for _, f := range proj {
				fields[f] = math.Float64frombits(r.U64())
			}
			evs[i].Fields = fields
		}
		return
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		nf := r.Uvcount(8)
		if nf == 0 {
			continue
		}
		fields := make([]float64, nf)
		for j := range fields {
			fields[j] = math.Float64frombits(r.U64())
		}
		evs[i].Fields = fields
	}
}
