package durable

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
)

// sampleRecords is one record of every writable Kind, each collection
// populated.
func sampleRecords() []*Record {
	evs := []event.Event{
		{Seq: 5, TS: 100, Type: 2, Fields: []float64{1.5, -2}},
		{Seq: 6, TS: 101, Type: 3},
	}
	return []*Record{
		{Kind: KindTypes, Types: []string{"AAPL", "", "MSFT"}},
		{Kind: KindFields, Fields: []string{"open", "close"}},
		{Kind: KindEvents, Events: evs},
		{Kind: KindCut, Cut: &CutRecord{Boundary: 9, NextWindowID: 4, Watermark: 2, Consumed: []uint64{6, 8}}},
		{Kind: KindWatermark, Watermark: 11},
	}
}

// allocatedBy reports the heap bytes f allocates (freed or not).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRecordHostileCount: a CRC-valid body that claims a huge
// collection and carries none of it is an error, found before anything
// is allocated for it. A reserved (old checkpoint) record is skipped with
// its body unread, whatever that body claims.
func TestDecodeRecordHostileCount(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, 1<<26)
	zeros := make([]byte, 32)
	for _, tc := range []struct {
		label    string
		body     []byte
		reserved bool
	}{
		{"events", append([]byte{byte(KindEvents)}, huge...), false},
		{"types", append([]byte{byte(KindTypes)}, huge...), false},
		{"cut consumed", append(append([]byte{byte(KindCut)}, zeros[:24]...), huge...), false},
		{"checkpoint used", append(append([]byte{byte(kindReserved)}, zeros[:32]...), huge...), true},
		{"event fields", append(append(append([]byte{byte(KindEvents)}, 1, 0, 0, 0), zeros[:20]...), huge...), false},
	} {
		t.Run(tc.label, func(t *testing.T) {
			var err error
			got := allocatedBy(func() { _, err = decodeRecord(tc.body) })
			if tc.reserved != (err == nil) {
				t.Fatalf("decode error = %v; a reserved record is skipped, a count with no payload behind it is an error", err)
			}
			if got > 8<<10 {
				t.Fatalf("decoding %d hostile bytes allocated %d bytes", len(tc.body), got)
			}
		})
	}
}

// FuzzDecodeRecord drives the WAL record decoder with arbitrary bytes.
// It must never panic; whatever it accepts must re-encode to exactly the
// bytes it was given (the codec is canonical) — except a reserved record,
// which is accepted and ignored; and, accepted or not, the decode may only
// allocate in proportion to the input.
func FuzzDecodeRecord(f *testing.F) {
	var seeds [][]byte
	for _, rec := range sampleRecords() {
		b, err := encodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	// An old build's checkpoint payload, in its place among the kinds.
	seeds = slices.Insert(seeds, 3, legacyCheckpoint(f))
	for _, b := range seeds {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			rec *Record
			err error
		)
		// Decoded values are at most a few times their encoded size at
		// each of four nesting levels; the constant covers the error value
		// and what the fuzz worker's own goroutines allocate meanwhile.
		if got, limit := allocatedBy(func() { rec, err = decodeRecord(data) }), uint64(32*len(data)+(64<<10)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if rec.Kind == kindReserved {
			return // accepted and ignored; TestKindNumbering pins the encoder's refusal
		}
		again, err := encodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the record:\n in  %x\n out %x", data, again)
		}
	})
}

// TestDecodeEventsAllocs: an events record decodes into one event slice
// and one slab for all of its fields, whatever its length.
func TestDecodeEventsAllocs(t *testing.T) {
	evs := make([]event.Event, 1024)
	for i := range evs {
		evs[i] = event.Event{Seq: uint64(i), TS: int64(i), Type: 1, Fields: []float64{float64(i), -1}}
	}
	evs[7].Fields = nil
	b, err := encodeRecord(nil, &Record{Kind: KindEvents, Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	var rec *Record
	allocs := testing.AllocsPerRun(20, func() {
		if rec, err = decodeRecord(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("decoding a %d-event record made %v allocations, want at most 3 (record, events, field slab)", len(evs), allocs)
	}
	for i := range evs {
		got := rec.Events[i]
		if got.Seq != evs[i].Seq || !slices.Equal(got.Fields, evs[i].Fields) || (got.Fields == nil) != (evs[i].Fields == nil) {
			t.Fatalf("event %d decoded to %+v, want %+v", i, got, evs[i])
		}
	}
	// Each event's fields end at its own length: appending to one must
	// not overwrite its neighbour's.
	_ = append(rec.Events[0].Fields, 99)
	if rec.Events[1].Fields[0] != 1 {
		t.Fatal("an event's fields share capacity with the next event's")
	}
}
