// Package transport implements the client link of the paper's evaluation
// setup (§4.1): "a client program that reads events from a source file
// and sends them to SPECTRE over a TCP connection", extended with a query
// frame so one server can host many client queries against a shared
// runtime.
//
// The link is a sequence of internal/wire frames; this package owns only
// the kinds and their bodies. A client opens with at most one query
// frame; an event-only stream runs the server's fallback query. Events
// then travel in pages of up to 256, with no sequence numbers (the
// receiver's admission stamps positions).
// Types and fields are ids and indexes of the sender's registry: a tables
// frame announces the names behind them before the first page and again
// whenever the sender's registry grew, and the reader binds them by name
// into its own registry (event.Translation), so the two ends share no id
// assignment or field order.
//
// Reconnect handshake (durable servers, spectre-server -state-dir): the
// client opens with kindQueryResume; the server recovers the query's WAL
// state and answers with kindResume carrying the position the client
// must re-send events from. Heartbeats keep otherwise idle connections
// failing fast when the peer dies.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"time"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/stream"
	"github.com/spectrecep/spectre/internal/wire"
)

// Frame kinds on the client link.
const (
	kindQuery       byte = 1 // client → server: the query text
	kindHeartbeat   byte = 2 // either way, empty: skipped by readers
	kindQueryResume byte = 3 // client → server: the query text, asking for a resume offset
	kindResume      byte = 4 // server → client: u64 stream position to re-send from
	kindTables      byte = 5 // client → server: type names, field names (wire.AppendStrs)
	kindPage        byte = 6 // client → server: wire.AppendEvents
)

// maxEventFields bounds one event's payload, sent or bound by name into
// the reader's registry, so that a full page decodes within
// wire.MaxFrameFloats.
const maxEventFields = wire.MaxFrameFloats / wire.PageEvents

// ErrFrameTooLarge is returned for an event or a page past the page
// limits: more than wire.PageEvents events, or a field at or above
// index maxEventFields on either end.
var ErrFrameTooLarge = errors.New("transport: beyond the page limits")

// MissingFieldError reports a stream whose announced field table lacks a
// field the reader requires (Reader.RequireFields). Reading it anyway
// would evaluate a missing field as zero: a wrong answer, not an error.
type MissingFieldError struct{ Field string }

func (e *MissingFieldError) Error() string {
	return fmt.Sprintf("transport: the stream announces no field %q, which the query reads", e.Field)
}

// Writer encodes events onto a stream, buffering them into pages.
type Writer struct {
	w    *bufio.Writer
	reg  *event.Registry
	page []event.Event // buffered events; their Fields point into vals
	vals []float64
	// types and fields are the table sizes last announced (-1: none yet).
	types, fields int
	body, frame   []byte
}

// NewWriter returns a Writer that announces names from reg.
func NewWriter(w io.Writer, reg *event.Registry) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64*1024), reg: reg, types: -1, fields: -1}
}

// WriteEvent buffers a copy of one event, whose type must be registered
// in the Writer's registry, and writes a page once wire.PageEvents are
// buffered.
func (w *Writer) WriteEvent(ev *event.Event) error {
	if len(ev.Fields) > maxEventFields {
		return ErrFrameTooLarge
	}
	e, start := *ev, len(w.vals)
	w.vals = append(w.vals, ev.Fields...)
	e.Fields = w.vals[start:len(w.vals):len(w.vals)]
	w.page = append(w.page, e)
	if len(w.page) == wire.PageEvents {
		return w.writePage()
	}
	return nil
}

// writePage writes the buffered events as one page, preceded by the name
// tables when the registry grew past what was announced.
func (w *Writer) writePage() error {
	if w.reg.NumTypes() > w.types || w.reg.NumFields() > w.fields {
		types, fields := w.reg.TypeNames(), w.reg.FieldNames()
		if err := w.writeFrame(kindTables, wire.AppendStrs(wire.AppendStrs(w.body[:0], types), fields)); err != nil {
			return err
		}
		w.types, w.fields = len(types), len(fields)
	}
	w.body = wire.AppendEvents(w.body[:0], w.page)
	w.page, w.vals = w.page[:0], w.vals[:0]
	return w.writeFrame(kindPage, w.body)
}

func (w *Writer) writeFrame(kind byte, body []byte) error {
	var err error
	if w.frame, err = wire.AppendFrame(w.frame[:0], kind, body); err != nil {
		return err
	}
	_, err = w.w.Write(w.frame)
	return err
}

// Flush writes the buffered partial page, then flushes the stream.
func (w *Writer) Flush() error {
	if len(w.page) > 0 {
		if err := w.writePage(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// WriteQuery encodes a query-submission frame. Clients send it once,
// before the first event.
func (w *Writer) WriteQuery(query string) error {
	return w.writeFrame(kindQuery, append(w.body[:0], query...))
}

// WriteQueryResume encodes a query-submission frame that requests a
// resume offset: the server answers with a resume frame (ReadResume)
// once its durable state is recovered. An empty query selects the
// server's fallback query, like sending no query frame at all.
func (w *Writer) WriteQueryResume(query string) error {
	return w.writeFrame(kindQueryResume, append(w.body[:0], query...))
}

// WriteHeartbeat encodes a keepalive frame.
func (w *Writer) WriteHeartbeat() error { return w.writeFrame(kindHeartbeat, nil) }

// WriteResume encodes the server's resume-offset reply to a
// WriteQueryResume handshake.
func (w *Writer) WriteResume(pos uint64) error {
	return w.writeFrame(kindResume, wire.AppendU64(w.body[:0], pos))
}

// Reader decodes a stream, binding announced names into its registry.
type Reader struct {
	r       *bufio.Reader
	reg     *event.Registry
	tr      *event.Translation
	tables  bool     // a tables frame has been applied
	require []string // field names every tables frame must carry
	scratch []byte
	page    []event.Event // the last decoded page; next is ReadEvent's cursor
	next    int
}

// NewReader returns a Reader binding into reg.
func NewReader(r io.Reader, reg *event.Registry) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64*1024), reg: reg, tr: event.NewTranslation(reg)}
}

// RequireFields makes every tables frame that lacks one of names fail the
// read with a *MissingFieldError.
func (r *Reader) RequireFields(names []string) { r.require = names }

// frame reads the next frame; io.EOF comes only on a frame boundary.
func (r *Reader) frame() (byte, []byte, error) {
	kind, body, err := wire.ReadFrame(r.r, r.scratch)
	r.scratch = body[:0]
	return kind, body, err
}

// ReadQuery consumes the query frame when the stream starts with one. ok
// is false, and nothing is consumed, when the stream is empty or starts
// with another frame (an event-only stream). resume reports whether the
// client asked for a resume offset (WriteQueryResume); the server must
// answer with WriteResume before reading events.
func (r *Reader) ReadQuery() (query string, resume bool, ok bool, err error) {
	// The kind byte ends the frame overhead; the CRC covering it is
	// checked once the frame is read.
	head, err := r.r.Peek(wire.FrameOverhead)
	if errors.Is(err, io.EOF) || err == nil && head[len(head)-1] != kindQuery && head[len(head)-1] != kindQueryResume {
		return "", false, false, nil
	}
	kind, body, err := r.frame()
	if err != nil {
		return "", false, false, err
	}
	return string(body), kind == kindQueryResume, true, nil
}

// ReadResume consumes the server's resume-offset reply. Heartbeats
// arriving first are skipped.
func (r *Reader) ReadResume() (uint64, error) {
	for {
		kind, body, err := r.frame()
		if err != nil {
			return 0, err
		}
		if kind == kindHeartbeat {
			continue
		}
		d := wire.NewReader(body)
		if pos := d.U64(); kind == kindResume && d.Finish() == nil {
			return pos, nil
		}
		return 0, fmt.Errorf("transport: expected a resume frame, got kind %d with %d body bytes", kind, len(body))
	}
}

// ReadBatch returns the next events of the stream — the rest of the page
// ReadEvent is in, or the next page — in the reader's registry. The slice
// is valid until the next read. io.EOF signals a clean end of stream.
func (r *Reader) ReadBatch() ([]event.Event, error) {
	if err := r.fill(); err != nil {
		return nil, err
	}
	evs := r.page[r.next:]
	r.next = len(r.page)
	return evs, nil
}

// ReadEvent returns the next event of the stream; io.EOF signals a clean
// end of stream.
func (r *Reader) ReadEvent() (event.Event, error) {
	if err := r.fill(); err != nil {
		return event.Event{}, err
	}
	r.next++
	return r.page[r.next-1], nil
}

// fill reads frames until r.page has unread events: heartbeats are
// skipped, tables bind the names they announce, and a page replaces
// r.page.
func (r *Reader) fill() error {
	for r.next == len(r.page) {
		kind, body, err := r.frame()
		if err != nil {
			return err
		}
		d := wire.NewReader(body)
		switch kind {
		case kindHeartbeat:
		case kindTables:
			types, fields := d.Strs(), d.Strs()
			if err := d.Finish(); err != nil {
				return fmt.Errorf("transport: tables: %w", err)
			}
			for _, name := range r.require {
				if !slices.Contains(fields, name) {
					return &MissingFieldError{Field: name}
				}
			}
			if err := r.checkFields(fields); err != nil {
				return err
			}
			r.tr.SetTypes(types)
			r.tr.SetFields(fields)
			r.tables = true
		case kindPage:
			if !r.tables {
				return errors.New("transport: event page before any tables frame")
			}
			// The page decodes into r.page's backing but replaces r.page
			// only once it is valid: until then r.page reads as used up.
			page := d.Events(r.page)
			if err := d.Finish(); err != nil {
				return fmt.Errorf("transport: page: %w", err)
			}
			if len(page) > wire.PageEvents {
				return fmt.Errorf("%w: a page of %d events", ErrFrameTooLarge, len(page))
			}
			if err := r.tr.Apply(page); err != nil {
				return fmt.Errorf("transport: page: %w", err)
			}
			r.page, r.next = page, 0
		default:
			return fmt.Errorf("transport: unexpected frame kind %d in the event stream", kind)
		}
	}
	return nil
}

// checkFields refuses, before interning any of it, a field table that
// would bind a name at or above maxEventFields: Apply widens each event
// to its highest bound index, so this and the page's event limit keep a
// page within wire.MaxFrameFloats whatever indexes the table remaps to.
func (r *Reader) checkFields(names []string) error {
	next := r.reg.NumFields() // where the next new name is interned
	for _, name := range names {
		i, ok := r.reg.LookupField(name)
		if !ok {
			i, next = next, next+1
		}
		if i >= maxEventFields {
			return fmt.Errorf("%w: field %q binds to index %d", ErrFrameTooLarge, name, i)
		}
	}
	return nil
}

// Send streams events over conn and closes the write side when done. A
// done ctx stops mid-stream: already-buffered events are flushed and the
// write side is closed cleanly (the receiver sees a short but valid
// stream), then ctx.Err() is returned.
func Send(ctx context.Context, conn net.Conn, reg *event.Registry, events []event.Event) error {
	w := NewWriter(conn, reg)
	sendErr := func() error {
		for i := range events {
			// Poll cheaply: one Err check per event beats a select per
			// event and still stops within one event.
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := w.WriteEvent(&events[i]); err != nil {
				return err
			}
		}
		return nil
	}()
	if err := w.Flush(); err != nil && sendErr == nil {
		sendErr = err
	}
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		if err := cw.CloseWrite(); err != nil && sendErr == nil {
			sendErr = err
		}
	}
	return sendErr
}

// AbortReadsOnDone arranges for blocked reads on conn to fail once ctx is
// done, by snapping the read deadline to the past. It returns a stop
// function releasing the watcher (call it when the connection is done
// regardless of cancellation). This is how a server unwedges connection
// streams on shutdown: the read loop fails with a deadline error, the
// serving goroutine drains what was admitted and exits.
func AbortReadsOnDone(ctx context.Context, conn net.Conn) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		conn.SetReadDeadline(time.Now())
	})
}

// AppendFrame and ReadFrame forward to internal/wire, where the frame
// lives; their one remaining caller is benchmark/layers.go.
func AppendFrame(buf []byte, kind byte, body []byte) ([]byte, error) {
	return wire.AppendFrame(buf, kind, body)
}

func ReadFrame(r io.Reader, buf []byte) (byte, []byte, error) { return wire.ReadFrame(r, buf) }

// IsClosedOrCanceled reports whether err looks like the read-side fallout
// of a cancelled connection: a snapped deadline (AbortReadsOnDone) or a
// concurrently closed socket.
func IsClosedOrCanceled(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, net.ErrClosed)
}

// connSource adapts a Reader into a stream.Source; a decode error ends
// the stream and is kept in err (nil on clean EOF).
type connSource struct {
	r   *Reader
	err error
}

// Next implements stream.Source.
func (s *connSource) Next() (event.Event, bool) {
	ev, err := s.r.ReadEvent()
	if err != nil && !errors.Is(err, io.EOF) {
		s.err = err
	}
	return ev, err == nil
}

// SourceFromConn exposes a network connection as an engine Source. Call
// the returned error function after the engine finishes to learn whether
// the stream ended cleanly.
func SourceFromConn(conn io.Reader, reg *event.Registry) (stream.Source, func() error) {
	return SourceFromReader(NewReader(conn, reg))
}

// SourceFromReader exposes an existing Reader as an engine Source — used
// after ReadQuery consumed the leading query frame, so the event stream
// continues on the same buffered reader.
func SourceFromReader(r *Reader) (stream.Source, func() error) {
	s := &connSource{r: r}
	return s, func() error { return s.err }
}

// Backoff computes capped exponential reconnect delays with jitter:
// attempt 0 waits about Min, each further attempt doubles, clamped to
// Max, and every delay is scattered uniformly over ±25% so a fleet of
// clients does not reconnect in lockstep after a server restart.
type Backoff struct {
	Min time.Duration
	Max time.Duration
}

// Next returns the delay before reconnect attempt (0-based).
func (b Backoff) Next(attempt int) time.Duration {
	min, max := b.Min, b.Max
	if min <= 0 {
		min = 100 * time.Millisecond
	}
	if max < min {
		max = 30 * time.Second
	}
	d := min
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter in [0.75, 1.25), floored at Min so the first retry is never
	// immediate.
	d = time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
	if d < min {
		d = min
	}
	return d
}
