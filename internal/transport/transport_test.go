package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/stream"
	"github.com/spectrecep/spectre/internal/wire"
)

// encode writes query (when non-empty) and events through a Writer.
func encode(t testing.TB, reg *event.Registry, query string, events []event.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, reg)
	if query != "" {
		if err := w.WriteQuery(query); err != nil {
			t.Fatal(err)
		}
	}
	for i := range events {
		if err := w.WriteEvent(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frames concatenates wire frames.
func frames(t testing.TB, kinds []byte, bodies ...[]byte) []byte {
	t.Helper()
	var out []byte
	for i, k := range kinds {
		var err error
		if out, err = wire.AppendFrame(out, k, bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	sendReg := event.NewRegistry()
	a := sendReg.TypeID("AAPL")
	b := sendReg.TypeID("MSFT")
	sendReg.FieldIndex("x")
	sendReg.FieldIndex("y")
	// Three pages: two full, one partial; the registry grows mid-stream.
	events := make([]event.Event, 2*wire.PageEvents+3)
	for i := range events {
		events[i] = event.Event{TS: int64(100 * i), Type: a, Fields: []float64{float64(i), -float64(i) / 2}}
	}
	events[1] = event.Event{TS: 100, Type: b}
	events[2].Fields = []float64{-7}
	var buf bytes.Buffer
	w := NewWriter(&buf, sendReg)
	for i := range events {
		if i == wire.PageEvents+5 {
			c := sendReg.TypeID("NVDA")
			events[i].Type = c
		}
		if err := w.WriteEvent(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// The receiver interns into its own registry (ids differ).
	recvReg := event.NewRegistry()
	recvReg.TypeID("ZZZ")
	r := NewReader(&buf, recvReg)
	for i := range events {
		got, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got.TS != events[i].TS {
			t.Fatalf("event %d ts = %d", i, got.TS)
		}
		if want := sendReg.TypeName(events[i].Type); recvReg.TypeName(got.Type) != want {
			t.Fatalf("event %d type = %q, want %q", i, recvReg.TypeName(got.Type), want)
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

// TestFieldsBindByName: the reader's registry interned the same fields in
// the other order, and still reads each value under its own name.
func TestFieldsBindByName(t *testing.T) {
	sendReg := event.NewRegistry()
	open, close := sendReg.FieldIndex("open"), sendReg.FieldIndex("close")
	fields := make([]float64, 2)
	fields[open], fields[close] = 10, 12
	events := []event.Event{{TS: 1, Type: sendReg.TypeID("X"), Fields: fields}}

	recvReg := event.NewRegistry()
	rClose, rOpen := recvReg.FieldIndex("close"), recvReg.FieldIndex("open")
	r := NewReader(bytes.NewReader(encode(t, sendReg, "", events)), recvReg)
	evs, err := r.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Field(rOpen) != 10 || evs[0].Field(rClose) != 12 {
		t.Fatalf("got %+v, want open=10 close=12 at indexes %d, %d", evs, rOpen, rClose)
	}
}

// TestRequireFields: a tables frame that lacks a required field fails the
// read with a *MissingFieldError instead of yielding zeros.
func TestRequireFields(t *testing.T) {
	sendReg := event.NewRegistry()
	sendReg.FieldIndex("open")
	events := []event.Event{{TS: 1, Type: sendReg.TypeID("X"), Fields: []float64{1}}}
	data := encode(t, sendReg, "Q", events)

	r := NewReader(bytes.NewReader(data), event.NewRegistry())
	if _, _, _, err := r.ReadQuery(); err != nil {
		t.Fatal(err)
	}
	r.RequireFields([]string{"open", "close"})
	var mf *MissingFieldError
	if _, err := r.ReadBatch(); !errors.As(err, &mf) || mf.Field != "close" {
		t.Fatalf("err = %v, want *MissingFieldError for close", err)
	}

	r = NewReader(bytes.NewReader(data), event.NewRegistry())
	r.ReadQuery()
	r.RequireFields([]string{"open"})
	if evs, err := r.ReadBatch(); err != nil || len(evs) != 1 {
		t.Fatalf("all required fields announced: %v, %v", evs, err)
	}
}

// TestWriteEventLimits: the Writer refuses an event past the page limit
// (maxEventFields, so that a full page decodes within wire.MaxFrameFloats)
// before anything reaches the stream. Type names have no limit of their
// own: they travel once, in the tables frame.
func TestWriteEventLimits(t *testing.T) {
	for _, tc := range []struct {
		label           string
		nameLen, fields int
		ok              bool
	}{
		{"name=4096", 4096, 1, true},
		{"name=4097", 4097, 1, true},
		{"fields=4096", 4, 4096, true},
		{"fields=4097", 4, 4097, true},
		{"fields=16384", 4, maxEventFields, true},
		{"fields=16385", 4, maxEventFields + 1, false},
		{"fields=65536", 4, 1 << 16, false},
	} {
		t.Run(tc.label, func(t *testing.T) {
			reg := event.NewRegistry()
			name := strings.Repeat("n", tc.nameLen)
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
				t.Fatalf("the writer's own page was rejected: %v", err)
			}
			if recvReg.TypeName(got.Type) != name || len(got.Fields) != tc.fields || got.Fields[tc.fields-1] != 2.5 {
				t.Fatalf("round trip lost the event: name %d bytes, %d fields", len(recvReg.TypeName(got.Type)), len(got.Fields))
			}
		})
	}
}

func TestCorruptFrames(t *testing.T) {
	reg := event.NewRegistry()
	reg.FieldIndex("x")
	good := encode(t, reg, "", []event.Event{{TS: 1, Type: reg.TypeID("A"), Fields: []float64{1}}})
	tables := wire.AppendStrs(wire.AppendStrs(nil, []string{"A"}), []string{"x"})
	page := func(typ byte) []byte { return []byte{1, typ, 2, 0} } // one event, no fields
	var resume bytes.Buffer
	rw := NewWriter(&resume, reg)
	if err := rw.WriteResume(7); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x40
	for name, data := range map[string][]byte{
		"oversized length":     append(wire.AppendU32(nil, wire.MaxFrameBytes+1), make([]byte, 8)...),
		"bad checksum":         flipped,
		"truncated":            good[:len(good)-2],
		"resume mid-stream":    resume.Bytes(),
		"page before tables":   frames(t, []byte{kindPage}, page(1)),
		"type past table":      frames(t, []byte{kindTables, kindPage}, tables, page(2)),
		"count overrun":        frames(t, []byte{kindTables, kindPage}, tables, []byte{200, 1, 2, 0}),
		"trailing bytes":       frames(t, []byte{kindTables, kindPage}, tables, append(page(1), 9)),
		"corrupt tables":       frames(t, []byte{kindTables}, tables[:len(tables)-1]),
		"unknown kind":         frames(t, []byte{0xEE}, nil),
		"page past 256":        frames(t, []byte{kindTables, kindPage}, tables, wire.AppendEvents(nil, make([]event.Event, wire.PageEvents+1))),
		"field bound too high": remapped(t, maxEventFields),
	} {
		r := NewReader(bytes.NewReader(data), event.NewRegistry())
		if _, err := r.ReadEvent(); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v, want a decode error", name, err)
		}
	}
}

// remapped is a stream whose first tables frame interns "open" and n
// more field names, whose second announces only the last of them as peer
// field 0, and whose page then carries one-field events: each decodes to
// n+1 floats.
func remapped(t testing.TB, n int) []byte {
	t.Helper()
	fields := []string{"open"}
	for i := 1; i <= n; i++ {
		fields = append(fields, fmt.Sprintf("f%d", i))
	}
	types := []string{"A"}
	evs := make([]event.Event, wire.PageEvents)
	for i := range evs {
		evs[i] = event.Event{TS: int64(i), Type: 1, Fields: []float64{float64(i)}}
	}
	return frames(t, []byte{kindTables, kindTables, kindPage},
		wire.AppendStrs(wire.AppendStrs(nil, types), fields),
		wire.AppendStrs(wire.AppendStrs(nil, types), []string{fields[n], "open"}),
		wire.AppendEvents(nil, evs))
}

// TestFieldRemapLimit: a tables frame may bind a peer field anywhere below
// maxEventFields in the reader's registry, so a full page decodes to at
// most wire.MaxFrameFloats floats; one index higher is refused before
// anything is interned or decoded.
func TestFieldRemapLimit(t *testing.T) {
	reg := event.NewRegistry()
	evs, err := NewReader(bytes.NewReader(remapped(t, maxEventFields-1)), reg).ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != wire.PageEvents || len(evs[9].Fields) != maxEventFields || evs[9].Fields[maxEventFields-1] != 9 {
		t.Fatalf("%d events, event 9 = %d fields", len(evs), len(evs[9].Fields))
	}

	reg = event.NewRegistry()
	_, err = NewReader(bytes.NewReader(remapped(t, maxEventFields)), reg).ReadBatch()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if reg.NumFields() != 0 {
		t.Fatalf("the refused table interned %d fields", reg.NumFields())
	}

	// A name a shared registry already binds that high is refused too.
	reg.FieldIndex("open")
	for i := 1; i <= maxEventFields; i++ {
		reg.FieldIndex(fmt.Sprintf("f%d", i))
	}
	_, err = NewReader(bytes.NewReader(remapped(t, maxEventFields)), reg).ReadBatch()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("known name: err = %v, want ErrFrameTooLarge", err)
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

// TestQueryFrameRoundTrip covers the multi-query protocol: a query frame
// followed by events on the same buffered reader.
func TestQueryFrameRoundTrip(t *testing.T) {
	const queryText = "PATTERN (A B)\nWITHIN 10 EVENTS FROM A\nPARTITION BY TYPE"
	reg := event.NewRegistry()
	events := []event.Event{
		{TS: 1, Type: reg.TypeID("A"), Fields: []float64{1.5}},
		{TS: 2, Type: reg.TypeID("B")},
	}
	recvReg := event.NewRegistry()
	r := NewReader(bytes.NewReader(encode(t, reg, queryText, events)), recvReg)
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

// TestReadQueryLegacyStream checks that event-only streams pass ReadQuery
// untouched: the first frame it read is kept for the event reads.
func TestReadQueryLegacyStream(t *testing.T) {
	reg := event.NewRegistry()
	data := encode(t, reg, "", []event.Event{{TS: 7, Type: reg.TypeID("X")}})

	r := NewReader(bytes.NewReader(data), event.NewRegistry())
	if q, _, ok, err := r.ReadQuery(); err != nil || ok || q != "" {
		t.Fatalf("ReadQuery on event stream = (%q, %v, %v), want not-a-query", q, ok, err)
	}
	got, err := r.ReadEvent()
	if err != nil {
		t.Fatal(err)
	}
	if got.TS != 7 {
		t.Fatalf("event not preserved after ReadQuery: %+v", got)
	}

	// Empty stream: no query, no error.
	r = NewReader(bytes.NewReader(nil), event.NewRegistry())
	if q, _, ok, err := r.ReadQuery(); err != nil || ok || q != "" {
		t.Fatalf("ReadQuery on empty stream = (%q, %v, %v)", q, ok, err)
	}
}

// TestReadQueryCorruptControl checks query-frame validation: a corrupt
// frame fails ReadQuery, and an unknown kind fails the event read that
// reaches it.
func TestReadQueryCorruptControl(t *testing.T) {
	query := frames(t, []byte{kindQuery}, []byte("PATTERN (A)"))
	flipped := append([]byte(nil), query...)
	flipped[len(flipped)-1] ^= 1
	for name, data := range map[string][]byte{
		"bad checksum":     flipped,
		"truncated body":   query[:len(query)-3],
		"oversized length": append(wire.AppendU32(nil, wire.MaxFrameBytes+1), 0, 0, 0, 0, kindQuery),
	} {
		if _, _, _, err := NewReader(bytes.NewReader(data), event.NewRegistry()).ReadQuery(); err == nil {
			t.Errorf("%s: ReadQuery accepted a corrupt frame", name)
		}
	}

	r := NewReader(bytes.NewReader(frames(t, []byte{0xEE}, []byte{0})), event.NewRegistry())
	if _, _, ok, err := r.ReadQuery(); ok || err != nil {
		t.Fatalf("ReadQuery on an unknown kind = (%v, %v), want it kept for the event reads", ok, err)
	}
	if _, err := r.ReadEvent(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("unknown kind: err = %v", err)
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
	if err := w.Flush(); err != nil {
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

// TestResumeHandshake covers the reconnect handshake: a query frame that
// asks for resume, the resume reply (possibly preceded by a heartbeat),
// and the event stream continuing on the same readers.
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

	// Plain queries must not request resume.
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

	// An event page where the resume reply belongs is a protocol error.
	data := encode(t, reg, "", []event.Event{{TS: 1, Type: reg.TypeID("A")}})
	if _, err := NewReader(bytes.NewReader(data), event.NewRegistry()).ReadResume(); err == nil {
		t.Fatal("event page in place of resume reply must error")
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

// FuzzReader reads arbitrary client-link bytes the way spectre-server
// does (ReadQuery, then ReadBatch to the end), twice: over the input as
// it is, and over the input cut into chunks [kind][n][n body bytes] that
// are framed with valid checksums, so the fuzzer reaches the body
// decoders. Reads must end in io.EOF or an error — never a panic — and
// what they allocate must stay proportional to the input, but for the
// floats a remapping tables frame widens events to, which each page
// bounds by wire.MaxFrameFloats.
func FuzzReader(f *testing.F) {
	reg := event.NewRegistry()
	reg.FieldIndex("open")
	reg.FieldIndex("close")
	events := []event.Event{
		{TS: 5, Type: reg.TypeID("A"), Fields: []float64{1, 2}},
		{TS: 9, Type: reg.TypeID("B"), Fields: []float64{3}},
	}
	f.Add(encode(f, reg, "PATTERN (A)", events))
	tables := wire.AppendStrs(wire.AppendStrs(nil, reg.TypeNames()), reg.FieldNames())
	page := wire.AppendEventCols([]byte{2}, events, nil)
	f.Add(append(append([]byte{kindTables, byte(len(tables))}, tables...), append([]byte{kindPage, byte(len(page))}, page...)...))
	f.Add([]byte{kindHeartbeat, 0, kindQuery, 1, 'Q'})
	f.Add(remapped(f, 1000))
	f.Add(remapped(f, maxEventFields))
	f.Fuzz(func(t *testing.T, data []byte) {
		var chunked []byte
		for rest := data; len(rest) >= 2; {
			kind, n := rest[0], min(int(rest[1]), len(rest)-2)
			chunked, _ = wire.AppendFrame(chunked, kind, rest[2:2+n])
			rest = rest[2+n:]
		}
		for _, in := range [][]byte{data, chunked} {
			var decoded, floats int
			recv := event.NewRegistry()
			alloc := allocatedBy(func() {
				r := NewReader(bytes.NewReader(in), recv)
				if _, _, _, err := r.ReadQuery(); err != nil {
					return
				}
				r.RequireFields([]string{"open"})
				for {
					evs, err := r.ReadBatch()
					if err != nil {
						return
					}
					// A tables frame may bind peer fields to higher
					// indexes, widening each event past its wire floats;
					// the page limits bound that per page.
					page := 0
					for i := range evs {
						page += len(evs[i].Fields)
					}
					if len(evs) > wire.PageEvents || page > wire.MaxFrameFloats+len(in)/8 {
						t.Fatalf("a page of %d events with %d floats from %d bytes", len(evs), page, len(in))
					}
					decoded += len(evs)
					floats += page
				}
			})
			if decoded > len(in) {
				t.Fatalf("%d events from %d bytes", decoded, len(in))
			}
			// wire.ReadFrame may grow its buffer two chunks past the bytes
			// a frame delivered before it fails; the decoded floats are
			// budgeted per page above.
			if limit := uint64(4<<20 + 128*len(in) + 8*floats); alloc > limit {
				t.Fatalf("reading %d bytes allocated %d", len(in), alloc)
			}
		}
	})
}

// allocatedBy reports the bytes fn allocates on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
