package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/stream"
)

func TestRoundTrip(t *testing.T) {
	sendReg := event.NewRegistry()
	a := sendReg.TypeID("AAPL")
	b := sendReg.TypeID("MSFT")
	events := []event.Event{
		{TS: 100, Type: a, Fields: []float64{1.5, 2.5}},
		{TS: 200, Type: b},
		{TS: 300, Type: a, Fields: []float64{-7}},
	}

	var buf bytes.Buffer
	w := NewWriter(&buf, sendReg)
	for i := range events {
		if err := w.WriteEvent(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// The receiver interns into its own registry (ids may differ).
	recvReg := event.NewRegistry()
	recvReg.TypeID("ZZZ") // shift id assignment
	r := NewReader(&buf, recvReg)
	for i := range events {
		got, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got.TS != events[i].TS {
			t.Fatalf("event %d ts = %d", i, got.TS)
		}
		wantName := sendReg.TypeName(events[i].Type)
		if recvReg.TypeName(got.Type) != wantName {
			t.Fatalf("event %d type = %q, want %q", i, recvReg.TypeName(got.Type), wantName)
		}
		if len(got.Fields) != len(events[i].Fields) {
			t.Fatalf("event %d fields = %v", i, got.Fields)
		}
		for j := range got.Fields {
			if got.Fields[j] != events[i].Fields[j] {
				t.Fatalf("event %d field %d = %g", i, j, got.Fields[j])
			}
		}
	}
	if _, err := r.ReadEvent(); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

// TestWriteEventLimits: the Writer refuses what its own Reader would
// reject (type name or field count past 4096) and what would wrap the
// uint16 counts, before anything reaches the stream.
func TestWriteEventLimits(t *testing.T) {
	for _, tc := range []struct {
		label           string
		nameLen, fields int
		ok              bool
	}{
		{"name=4096", maxTypeLen, 1, true},
		{"name=4097", maxTypeLen + 1, 1, false},
		{"fields=4096", 4, maxFieldLen, true},
		{"fields=4097", 4, maxFieldLen + 1, false},
		{"fields=65536", 4, 1 << 16, false},
	} {
		t.Run(tc.label, func(t *testing.T) {
			reg := event.NewRegistry()
			name := string(bytes.Repeat([]byte{'n'}, tc.nameLen))
			ev := event.Event{TS: 7, Type: reg.TypeID(name), Fields: make([]float64, tc.fields)}
			ev.Fields[tc.fields-1] = 2.5
			var buf bytes.Buffer
			w := NewWriter(&buf, reg)
			err := w.WriteEvent(&ev)
			if ferr := w.Flush(); ferr != nil {
				t.Fatal(ferr)
			}
			if !tc.ok {
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("want ErrFrameTooLarge, got %v", err)
				}
				if buf.Len() != 0 {
					t.Fatalf("rejected event put %d bytes on the stream", buf.Len())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			recvReg := event.NewRegistry()
			got, err := NewReader(&buf, recvReg).ReadEvent()
			if err != nil {
				t.Fatalf("the writer's own frame was rejected: %v", err)
			}
			if recvReg.TypeName(got.Type) != name || len(got.Fields) != tc.fields || got.Fields[tc.fields-1] != 2.5 {
				t.Fatalf("round trip lost the event: name %d bytes, %d fields", len(recvReg.TypeName(got.Type)), len(got.Fields))
			}
		})
	}
}

func TestCorruptFrames(t *testing.T) {
	reg := event.NewRegistry()
	// Oversized frame length.
	r := NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0x7f}), reg)
	if _, err := r.ReadEvent(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// Oversized control frame mid-stream.
	r = NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), reg)
	if _, err := r.ReadEvent(); err == nil {
		t.Fatal("oversized control frame must fail")
	}
	// Non-heartbeat control frame mid-stream.
	var buf bytes.Buffer
	w := NewWriter(&buf, reg)
	if err := w.WriteResume(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r = NewReader(&buf, reg)
	if _, err := r.ReadEvent(); err == nil {
		t.Fatal("resume frame mid event stream must fail")
	}
	// Truncated frame.
	r = NewReader(bytes.NewReader([]byte{10, 0, 0, 0, 1, 2}), reg)
	if _, err := r.ReadEvent(); err == nil {
		t.Fatal("truncated frame must fail")
	}
	// Frame too short for the header.
	r = NewReader(bytes.NewReader([]byte{2, 0, 0, 0, 1, 2}), reg)
	if _, err := r.ReadEvent(); err == nil {
		t.Fatal("short frame must fail")
	}
}

func TestSendOverTCP(t *testing.T) {
	sendReg := event.NewRegistry()
	ty := sendReg.TypeID("X")
	events := make([]event.Event, 500)
	for i := range events {
		events[i] = event.Event{TS: int64(i), Type: ty, Fields: []float64{float64(i)}}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- Send(context.Background(), conn, sendReg, events)
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	recvReg := event.NewRegistry()
	src, srcErr := SourceFromConn(conn, recvReg)
	got := stream.Collect(src)
	if err := srcErr(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("received %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i].TS != int64(i) || got[i].Fields[0] != float64(i) {
			t.Fatalf("event %d corrupted: %+v", i, got[i])
		}
	}
}

// TestQueryFrameRoundTrip covers the multi-query protocol: a query
// control frame followed by events on the same buffered reader.
func TestQueryFrameRoundTrip(t *testing.T) {
	const queryText = "PATTERN (A B)\nWITHIN 10 EVENTS FROM A\nPARTITION BY TYPE"
	reg := event.NewRegistry()
	var buf bytes.Buffer
	w := NewWriter(&buf, reg)
	if err := w.WriteQuery(queryText); err != nil {
		t.Fatal(err)
	}
	events := []event.Event{
		{TS: 1, Type: reg.TypeID("A"), Fields: []float64{1.5}},
		{TS: 2, Type: reg.TypeID("B")},
	}
	for i := range events {
		if err := w.WriteEvent(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	recvReg := event.NewRegistry()
	r := NewReader(&buf, recvReg)
	got, _, ok, err := r.ReadQuery()
	if err != nil || !ok {
		t.Fatalf("ReadQuery = (%q, %v, %v)", got, ok, err)
	}
	if got != queryText {
		t.Fatalf("query text corrupted: %q", got)
	}
	src, srcErr := SourceFromReader(r)
	decoded := stream.Collect(src)
	if err := srcErr(); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	if recvReg.TypeName(decoded[0].Type) != "A" || decoded[0].Fields[0] != 1.5 {
		t.Fatalf("event corrupted: %+v", decoded[0])
	}
}

// TestReadQueryLegacyStream checks that event-only streams (legacy
// clients) pass ReadQuery untouched.
func TestReadQueryLegacyStream(t *testing.T) {
	reg := event.NewRegistry()
	var buf bytes.Buffer
	w := NewWriter(&buf, reg)
	ev := event.Event{TS: 7, Type: reg.TypeID("X")}
	if err := w.WriteEvent(&ev); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf, event.NewRegistry())
	if q, _, ok, err := r.ReadQuery(); err != nil || ok || q != "" {
		t.Fatalf("ReadQuery on event stream = (%q, %v, %v), want not-a-query", q, ok, err)
	}
	got, err := r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if got.TS != 7 {
		t.Fatalf("event not preserved after peek: %+v", got)
	}

	// Empty stream: no query, no error.
	r = NewReader(bytes.NewReader(nil), event.NewRegistry())
	if q, _, ok, err := r.ReadQuery(); err != nil || ok || q != "" {
		t.Fatalf("ReadQuery on empty stream = (%q, %v, %v)", q, ok, err)
	}
}

// TestReadQueryCorruptControl checks control-frame validation.
func TestReadQueryCorruptControl(t *testing.T) {
	// Unknown control kind.
	var buf bytes.Buffer
	frame := binary.LittleEndian.AppendUint32(nil, (uint32(1)<<31)|2)
	frame = append(frame, 0xEE, 0x00)
	buf.Write(frame)
	r := NewReader(&buf, event.NewRegistry())
	if _, _, _, err := r.ReadQuery(); err == nil {
		t.Fatal("unknown control kind must error")
	}

	// Oversized control frame.
	buf.Reset()
	buf.Write(binary.LittleEndian.AppendUint32(nil, (uint32(1)<<31)|(2<<20)))
	r = NewReader(&buf, event.NewRegistry())
	if _, _, _, err := r.ReadQuery(); err == nil {
		t.Fatal("oversized control frame must error")
	}

	// Truncated control frame body.
	buf.Reset()
	buf.Write(binary.LittleEndian.AppendUint32(nil, (uint32(1)<<31)|100))
	buf.WriteByte(1)
	r = NewReader(&buf, event.NewRegistry())
	if _, _, _, err := r.ReadQuery(); err == nil {
		t.Fatal("truncated control frame must error")
	}
}

// TestHeartbeatSkipped checks that heartbeat frames interleaved with
// events are invisible to ReadEvent.
func TestHeartbeatSkipped(t *testing.T) {
	reg := event.NewRegistry()
	var buf bytes.Buffer
	w := NewWriter(&buf, reg)
	if err := w.WriteHeartbeat(); err != nil {
		t.Fatal(err)
	}
	ev := event.Event{TS: 42, Type: reg.TypeID("X")}
	if err := w.WriteEvent(&ev); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeartbeat(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf, event.NewRegistry())
	got, err := r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if got.TS != 42 {
		t.Fatalf("event corrupted across heartbeats: %+v", got)
	}
	if _, err := r.ReadEvent(); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF after trailing heartbeat, got %v", err)
	}
}

// TestResumeHandshake covers the reconnect handshake: a kind-3 query
// frame, the kind-4 resume reply (possibly preceded by a heartbeat), and
// the event stream continuing on the same readers.
func TestResumeHandshake(t *testing.T) {
	reg := event.NewRegistry()

	// Client -> server: query + resume request.
	var c2s bytes.Buffer
	cw := NewWriter(&c2s, reg)
	if err := cw.WriteQueryResume("PATTERN (A B)\nWITHIN 10 EVENTS FROM A"); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	sr := NewReader(&c2s, event.NewRegistry())
	q, resume, ok, err := sr.ReadQuery()
	if err != nil || !ok || !resume {
		t.Fatalf("ReadQuery = (%q, resume=%v, ok=%v, %v)", q, resume, ok, err)
	}

	// Plain kind-1 queries must not request resume.
	c2s.Reset()
	if err := cw.WriteQuery("PATTERN (A B)\nWITHIN 10 EVENTS FROM A"); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, resume, ok, err := NewReader(&c2s, event.NewRegistry()).ReadQuery(); err != nil || !ok || resume {
		t.Fatalf("plain query: resume=%v ok=%v err=%v", resume, ok, err)
	}

	// Server -> client: heartbeat then the resume offset.
	var s2c bytes.Buffer
	sw := NewWriter(&s2c, reg)
	if err := sw.WriteHeartbeat(); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteResume(12345); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	pos, err := NewReader(&s2c, event.NewRegistry()).ReadResume()
	if err != nil {
		t.Fatal(err)
	}
	if pos != 12345 {
		t.Fatalf("resume pos = %d, want 12345", pos)
	}

	// An event frame where the resume reply belongs is a protocol error.
	s2c.Reset()
	ev := event.Event{TS: 1, Type: reg.TypeID("A")}
	if err := sw.WriteEvent(&ev); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&s2c, event.NewRegistry()).ReadResume(); err == nil {
		t.Fatal("event frame in place of resume reply must error")
	}
}

// TestBackoff checks the reconnect delay schedule: bounded by [Min, Max]
// with exponential growth and jitter.
func TestBackoff(t *testing.T) {
	b := Backoff{Min: 100 * time.Millisecond, Max: time.Second}
	prevMax := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		for i := 0; i < 50; i++ {
			d := b.Next(attempt)
			if d < b.Min {
				t.Fatalf("attempt %d: delay %v below Min", attempt, d)
			}
			if d > b.Max+b.Max/4 {
				t.Fatalf("attempt %d: delay %v beyond jittered Max", attempt, d)
			}
			if d > prevMax {
				prevMax = d
			}
		}
	}
	if prevMax < b.Max/2 {
		t.Fatalf("backoff never grew near Max: peak %v", prevMax)
	}
	// Zero-valued config still yields sane delays.
	var zero Backoff
	if d := zero.Next(3); d <= 0 || d > time.Minute {
		t.Fatalf("zero-config delay %v", d)
	}
}
