package cluster

// Codec coverage: round-trips for the compact frame bodies (events,
// page, pageRefs, assign) and a fuzz target over every
// body decoder — corrupt input must come back as a structured error, no
// panics and no allocations disproportionate to the delivered bytes.

import (
	"reflect"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

func ev(seq uint64, ts int64, ty event.Type, fields ...float64) event.Event {
	return event.Event{Seq: seq, TS: ts, Type: ty, Fields: fields}
}

// wantProjected rebuilds the dense field array a projected decode
// produces: proj columns kept, everything else zeroed.
func wantProjected(evs []event.Event, proj []int) []event.Event {
	width := 0
	for _, f := range proj {
		if f+1 > width {
			width = f + 1
		}
	}
	out := make([]event.Event, len(evs))
	for i, e := range evs {
		out[i] = e
		fields := make([]float64, width)
		for _, f := range proj {
			fields[f] = e.Field(f)
		}
		out[i].Fields = fields
	}
	return out
}

func TestEventsRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		msg  eventsMsg
		want []event.Event // nil: expect msg.Events back unchanged
	}{
		{name: "empty", msg: eventsMsg{Query: 7, Shard: 3}},
		{name: "contig", msg: eventsMsg{Query: 1, Shard: 0, Events: []event.Event{
			ev(10, 100, 2, 1.5, -2.5),
			ev(11, 100, 2, 3.25),
			ev(12, 90, 4), // TS may go backwards: deltas are signed
		}}},
		{name: "sparse", msg: eventsMsg{Query: 1, Shard: 2, Events: []event.Event{
			ev(0, 5, 1, 9),
			ev(7, 6, 1),
			ev(8, 1000, 3, 0.5),
			ev(40, 1001, 3),
		}}},
		{
			name: "projected",
			msg: eventsMsg{Query: 9, Shard: 1, Proj: []int{0, 3}, Events: []event.Event{
				ev(5, 1, 2, 10, 20, 30, 40),
				ev(6, 2, 2, 11, 21), // short fields: Field(3) reads as 0
				ev(9, 3, 5),
			}},
			want: wantProjected([]event.Event{
				ev(5, 1, 2, 10, 20, 30, 40),
				ev(6, 2, 2, 11, 21),
				ev(9, 3, 5),
			}, []int{0, 3}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.msg.encode(nil)
			got, err := decodeEvents(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Query != tc.msg.Query || got.Shard != tc.msg.Shard {
				t.Fatalf("header (%d,%d) != (%d,%d)", got.Query, got.Shard, tc.msg.Query, tc.msg.Shard)
			}
			want := tc.want
			if want == nil {
				want = tc.msg.Events
			}
			if len(got.Events) != len(want) {
				t.Fatalf("%d events != %d", len(got.Events), len(want))
			}
			for i := range want {
				g, w := got.Events[i], want[i]
				if g.Seq != w.Seq || g.TS != w.TS || g.Type != w.Type {
					t.Fatalf("event %d header %+v != %+v", i, g, w)
				}
				if len(g.Fields) == 0 && len(w.Fields) == 0 {
					continue
				}
				if !reflect.DeepEqual(g.Fields, w.Fields) {
					t.Fatalf("event %d fields %v != %v", i, g.Fields, w.Fields)
				}
			}
		})
	}
}

func TestPageRoundTrip(t *testing.T) {
	m := pageMsg{PageID: 42, Refs: 3, Events: []event.Event{
		ev(0, 10, 1, 1, 2),
		ev(0, 11, 2),
		ev(0, -5, 3, 4),
	}}
	got, err := decodePage(m.encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.PageID != m.PageID || got.Refs != m.Refs || len(got.Events) != len(m.Events) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.Events {
		g, w := got.Events[i], m.Events[i]
		if g.TS != w.TS || g.Type != w.Type || (len(w.Fields) > 0 && !reflect.DeepEqual(g.Fields, w.Fields)) {
			t.Fatalf("event %d %+v != %+v", i, g, w)
		}
	}
}

func TestPageRefsRoundTrip(t *testing.T) {
	m := pageRefsMsg{
		Query: 3, Shard: 1, PageID: 42,
		Idx:  []uint32{0, 2, 3, 9},
		Seqs: []uint64{100, 101, 107, 108},
	}
	got, err := decodePageRefs(m.encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Query != m.Query || got.Shard != m.Shard || got.PageID != m.PageID ||
		!reflect.DeepEqual(got.Idx, m.Idx) || !reflect.DeepEqual(got.Seqs, m.Seqs) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, m)
	}
}

func TestAssignRoundTrip(t *testing.T) {
	m := assignMsg{
		Query: 2, Shard: 1, NShards: 4, EmitBase: 99,
		Name: "Q", Text: "QUERY Q ...", Snapshot: []byte{1, 2, 3},
	}
	got, err := decodeAssign(m.encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%+v != %+v", got, m)
	}
	// A v3 assign body ends in a flags byte; v4 has none and refuses it.
	if _, err := decodeAssign(append(m.encode(nil), 1)); err == nil {
		t.Fatal("assign body with a trailing flags byte decoded")
	}
}

func TestDecodeEventsCorrupt(t *testing.T) {
	base := eventsMsg{Query: 1, Shard: 0, Events: []event.Event{
		ev(10, 100, 2, 1.5), ev(20, 101, 2, 2.5),
	}}
	valid := base.encode(nil)
	cases := map[string][]byte{
		"truncated":        valid[:len(valid)-3],
		"empty":            {},
		"trailing garbage": append(append([]byte{}, valid...), 0xFF),
		// count far beyond the bytes backing it
		"count overrun": {1, 0, 0, 0xFF, 0xFF, 0xFF, 0x07},
		// projected flag with a projection list longer than maxProjFields
		"proj overrun": {1, 0, evProjected, 1, 0xFF, 0xFF, 0x7F},
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeEvents(b); err == nil {
				t.Fatalf("corrupt frame decoded without error")
			}
		})
	}
}

// FuzzDecodeFrame drives every cluster body decoder with arbitrary
// bytes: first byte selects the frame kind, the rest is the body. Decoders must return structured
// errors — never panic — and the proportionality guards must keep
// allocations bounded by the input size.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{kindHello})
	f.Add(append([]byte{kindWelcome}, (&welcomeMsg{Proto: protoVersion, WorkerID: 3}).encode(nil)...))
	f.Add(append([]byte{kindEvents},
		(&eventsMsg{Query: 1, Events: []event.Event{ev(5, 1, 2, 3), ev(9, 2, 2)}}).encode(nil)...))
	f.Add(append([]byte{kindEvents},
		(&eventsMsg{Query: 1, Proj: []int{1}, Events: []event.Event{ev(5, 1, 2, 3, 4)}}).encode(nil)...))
	f.Add(append([]byte{kindPage},
		(&pageMsg{PageID: 1, Refs: 2, Events: []event.Event{ev(0, 1, 2, 3)}}).encode(nil)...))
	f.Add(append([]byte{kindPageRefs},
		(&pageRefsMsg{Query: 1, PageID: 1, Idx: []uint32{0, 4}, Seqs: []uint64{7, 9}}).encode(nil)...))
	f.Add(append([]byte{kindAssign},
		(&assignMsg{Query: 1, NShards: 2, Text: "t"}).encode(nil)...))
	f.Add(append([]byte{kindHandoff},
		(&handoffMsg{Query: 1, Snapshot: []byte{1}}).encode(nil)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, body := data[0], data[1:]
		if len(body) > 1<<20 {
			return
		}
		var err error
		switch kind {
		case kindHello:
			_, err = decodeHello(body)
		case kindWelcome:
			_, err = decodeWelcome(body)
		case kindTables:
			_, err = decodeTables(body)
		case kindAssign:
			_, err = decodeAssign(body)
		case kindReady:
			_, err = decodeReady(body)
		case kindEvents:
			var m eventsMsg
			m, err = decodeEvents(body)
			checkEventBudget(t, m.Events, len(body))
			for i := 1; i < len(m.Events); i++ {
				if err == nil && m.Events[i].Seq <= m.Events[i-1].Seq {
					t.Fatalf("decoded seqs not strictly increasing: %d then %d",
						m.Events[i-1].Seq, m.Events[i].Seq)
				}
			}
		case kindPage:
			var m pageMsg
			m, err = decodePage(body)
			checkEventBudget(t, m.Events, len(body))
		case kindPageRefs:
			var m pageRefsMsg
			m, err = decodePageRefs(body)
			if err == nil {
				for _, ix := range m.Idx {
					if ix > maxPageIndex {
						t.Fatalf("page index %d above maxPageIndex", ix)
					}
				}
			}
		case kindEmit:
			_, err = decodeEmit(body)
		case kindProgress:
			_, err = decodeProgress(body)
		case kindClose, kindDrained, kindQuiesce, kindAbort:
			_, err = decodeShardMsg(body)
		case kindHandoff:
			_, err = decodeHandoff(body)
		case kindError:
			_, err = decodeError(body)
		default:
			return
		}
		_ = err // corrupt input legitimately errors; panics are the failure mode
	})
}

// checkEventBudget asserts the proportionality guards: a successful
// decode must not have produced more payload floats than the dense
// projection budget allows, nor more events than the body has bytes.
func checkEventBudget(t *testing.T, evs []event.Event, bodyLen int) {
	total := 0
	for i := range evs {
		total += len(evs[i].Fields)
	}
	if total > wire.MaxFrameFloats {
		t.Fatalf("decoded %d floats exceeds wire.MaxFrameFloats from %dB frame", total, bodyLen)
	}
	if len(evs) > bodyLen {
		t.Fatalf("decoded %d events from %dB frame", len(evs), bodyLen)
	}
}
