// Package transport implements the TCP event transport of the paper's
// evaluation setup (§4.1): "a client program that reads events from a
// source file and sends them to SPECTRE over a TCP connection", extended
// with a query control frame so one server can host many client queries
// against a shared runtime.
//
// Wire format (all integers little-endian):
//
//	frame   := length:uint32 payload
//	payload := ts:int64 typeLen:uint16 type:[typeLen]byte
//	           nFields:uint16 fields:[nFields]float64
//
// A length word with the high bit set marks a control frame instead:
//
//	ctrl    := (ctrlFlag|length):uint32 kind:uint8 body:[length-1]byte
//	kind 1  := query submission; body is the query text
//	kind 2  := heartbeat (empty body); readers skip it silently
//	kind 3  := query submission requesting a resume offset (reconnect)
//	kind 4  := resume offset reply; body is a uint64 stream position
//
// Clients may send one query control frame before their event stream
// (spectre-client -query); event-only streams remain valid (the legacy
// single-query deployment). Event types travel as names and are interned
// into the receiver's registry, so client and server need not share id
// assignments.
//
// Reconnect handshake (durable servers, spectre-server -state-dir): the
// client opens with kind 3 instead of kind 1; the server recovers the
// query's WAL state and answers with kind 4 carrying the position the
// client must re-send events from. Heartbeats (kind 2) keep otherwise
// idle connections failing fast when the peer dies.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"time"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/stream"
)

// Limits guard against corrupt frames.
const (
	maxFrame    = 1 << 20
	maxTypeLen  = 1 << 12
	maxFieldLen = 1 << 12
)

// Control-frame encoding.
const (
	// ctrlFlag marks a control frame in the length word. Event frames
	// never set it (maxFrame is far below).
	ctrlFlag = uint32(1) << 31
	// ctrlQuery is the query-submission control kind.
	ctrlQuery = byte(1)
	// ctrlHeartbeat is an application-level keepalive. Readers skip it
	// silently; its only job is to make a dead peer surface as a write
	// error at the sender within one heartbeat interval.
	ctrlHeartbeat = byte(2)
	// ctrlQueryResume is a query submission that additionally asks the
	// server for a resume offset (a ctrlResume reply) before events flow —
	// the reconnect handshake of a durable deployment (-state-dir).
	ctrlQueryResume = byte(3)
	// ctrlResume carries the server's answer: the stream position
	// (uint64) the client must re-send events from.
	ctrlResume = byte(4)
)

// ErrFrameTooLarge is returned for frames exceeding the limits.
var ErrFrameTooLarge = errors.New("transport: frame exceeds limit")

// Writer encodes events onto a stream.
type Writer struct {
	w   *bufio.Writer
	reg *event.Registry
	buf []byte
}

// NewWriter returns a Writer that resolves type names through reg.
func NewWriter(w io.Writer, reg *event.Registry) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64*1024), reg: reg}
}

// WriteEvent encodes one event.
func (w *Writer) WriteEvent(ev *event.Event) error {
	name := w.reg.TypeName(ev.Type)
	// The same per-field limits the Reader enforces: past them the peer
	// drops the connection, and past 65535 the uint16 counts wrap.
	if len(name) > maxTypeLen || len(ev.Fields) > maxFieldLen {
		return ErrFrameTooLarge
	}
	need := 8 + 2 + len(name) + 2 + 8*len(ev.Fields)
	if need > maxFrame {
		return ErrFrameTooLarge
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(need))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(ev.TS))
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(name)))
	w.buf = append(w.buf, name...)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(ev.Fields)))
	for _, f := range ev.Fields {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
	}
	_, err := w.w.Write(w.buf)
	return err
}

// Flush flushes buffered frames.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteQuery encodes a query-submission control frame. Clients send it
// once, before the first event frame.
func (w *Writer) WriteQuery(query string) error {
	return w.writeQueryKind(ctrlQuery, query)
}

// WriteQueryResume encodes a query-submission frame that requests a
// resume offset: the server answers with a ctrlResume frame (ReadResume)
// once its durable state is recovered. An empty query selects the
// server's fallback query, like sending no query frame at all.
func (w *Writer) WriteQueryResume(query string) error {
	return w.writeQueryKind(ctrlQueryResume, query)
}

func (w *Writer) writeQueryKind(kind byte, query string) error {
	need := 1 + len(query)
	if need > maxFrame {
		return ErrFrameTooLarge
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, ctrlFlag|uint32(need))
	w.buf = append(w.buf, kind)
	w.buf = append(w.buf, query...)
	_, err := w.w.Write(w.buf)
	return err
}

// WriteHeartbeat encodes a keepalive control frame.
func (w *Writer) WriteHeartbeat() error {
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, ctrlFlag|1)
	w.buf = append(w.buf, ctrlHeartbeat)
	_, err := w.w.Write(w.buf)
	return err
}

// WriteResume encodes the server's resume-offset reply to a
// WriteQueryResume handshake.
func (w *Writer) WriteResume(pos uint64) error {
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, ctrlFlag|9)
	w.buf = append(w.buf, ctrlResume)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, pos)
	_, err := w.w.Write(w.buf)
	return err
}

// Reader decodes events from a stream, interning types into reg.
type Reader struct {
	r   *bufio.Reader
	reg *event.Registry
	buf []byte
}

// NewReader returns a Reader interning into reg.
func NewReader(r io.Reader, reg *event.Registry) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64*1024), reg: reg}
}

// ReadQuery consumes the query control frame when the stream starts with
// one. ok is false — and nothing is consumed — when the next frame is an
// event frame (a legacy event-only client) or the stream is empty.
// resume reports whether the client asked for a resume offset
// (WriteQueryResume); the server must answer with WriteResume before
// reading events.
func (r *Reader) ReadQuery() (query string, resume bool, ok bool, err error) {
	head, err := r.r.Peek(4)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return "", false, false, nil
		}
		return "", false, false, err
	}
	n := binary.LittleEndian.Uint32(head)
	if n&ctrlFlag == 0 {
		return "", false, false, nil
	}
	_, _ = r.r.Discard(4) // just peeked, so buffered
	if err := r.readCtrl(n); err != nil {
		return "", false, false, err
	}
	switch r.buf[0] {
	case ctrlQuery:
		return string(r.buf[1:]), false, true, nil
	case ctrlQueryResume:
		return string(r.buf[1:]), true, true, nil
	default:
		return "", false, false, fmt.Errorf("transport: unknown control kind %d", r.buf[0])
	}
}

// ReadResume consumes the server's resume-offset reply. Heartbeats
// arriving first are skipped.
func (r *Reader) ReadResume() (uint64, error) {
	for {
		head, err := r.r.Peek(4)
		if err != nil {
			return 0, err
		}
		n := binary.LittleEndian.Uint32(head)
		if n&ctrlFlag == 0 {
			return 0, fmt.Errorf("transport: expected resume frame, got an event frame")
		}
		_, _ = r.r.Discard(4) // just peeked, so buffered
		if err := r.readCtrl(n); err != nil {
			return 0, err
		}
		switch r.buf[0] {
		case ctrlHeartbeat:
			continue
		case ctrlResume:
			if len(r.buf) != 9 {
				return 0, fmt.Errorf("transport: resume frame has %d body bytes, want 8", len(r.buf)-1)
			}
			return binary.LittleEndian.Uint64(r.buf[1:]), nil
		default:
			return 0, fmt.Errorf("transport: expected resume frame, got control kind %d", r.buf[0])
		}
	}
}

// readCtrl reads into r.buf the body of a control frame whose length word
// n is already off the stream.
func (r *Reader) readCtrl(n uint32) error {
	n &^= ctrlFlag
	if n > maxFrame || n < 1 {
		return fmt.Errorf("transport: bad control frame length %d", n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return fmt.Errorf("transport: short control frame: %w", err)
	}
	return nil
}

// ReadEvent decodes one event, silently skipping heartbeat control
// frames; io.EOF signals a clean end of stream.
func (r *Reader) ReadEvent() (event.Event, error) {
	var n uint32
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r.r, lenBuf[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return event.Event{}, io.ErrUnexpectedEOF
			}
			return event.Event{}, err
		}
		n = binary.LittleEndian.Uint32(lenBuf[:])
		if n&ctrlFlag != 0 {
			// Only heartbeats are legal mid-stream.
			if err := r.readCtrl(n); err != nil {
				return event.Event{}, err
			}
			if r.buf[0] != ctrlHeartbeat {
				return event.Event{}, fmt.Errorf("transport: unexpected control kind %d mid-stream", r.buf[0])
			}
			continue
		}
		break
	}
	if n > maxFrame {
		return event.Event{}, ErrFrameTooLarge
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return event.Event{}, fmt.Errorf("transport: short frame: %w", err)
	}
	p := r.buf
	if len(p) < 12 {
		return event.Event{}, fmt.Errorf("transport: frame too short (%d bytes)", len(p))
	}
	ts := int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	tl := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if tl > maxTypeLen || len(p) < tl+2 {
		return event.Event{}, fmt.Errorf("transport: bad type length %d", tl)
	}
	name := string(p[:tl])
	p = p[tl:]
	nf := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if nf > maxFieldLen || len(p) != 8*nf {
		return event.Event{}, fmt.Errorf("transport: bad field count %d for %d payload bytes", nf, len(p))
	}
	ev := event.Event{TS: ts, Type: r.reg.TypeID(name)}
	if nf > 0 {
		ev.Fields = make([]float64, nf)
		for i := 0; i < nf; i++ {
			ev.Fields[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
	return ev, nil
}

// Send streams events over conn and closes the write side when done. A
// done ctx stops mid-stream: already-buffered frames are flushed and the
// write side is closed cleanly (the receiver sees a short but valid
// stream), then ctx.Err() is returned.
func Send(ctx context.Context, conn net.Conn, reg *event.Registry, events []event.Event) error {
	w := NewWriter(conn, reg)
	sendErr := func() error {
		for i := range events {
			// Poll cheaply: one atomic-ish Err check per frame beats a
			// select per frame and still stops within one event.
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

// IsClosedOrCanceled reports whether err looks like the read-side fallout
// of a cancelled connection: a snapped deadline (AbortReadsOnDone) or a
// concurrently closed socket.
func IsClosedOrCanceled(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, net.ErrClosed)
}

// connSource adapts a Reader into a stream.Source; decode errors end the
// stream and are reported through Err.
type connSource struct {
	r   *Reader
	err error
}

var _ stream.Source = (*connSource)(nil)

// Next implements stream.Source.
func (s *connSource) Next() (event.Event, bool) {
	ev, err := s.r.ReadEvent()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return event.Event{}, false
	}
	return ev, true
}

// Err returns the first decode error (nil on clean EOF).
func (s *connSource) Err() error { return s.err }

// SourceFromConn exposes a network connection as an engine Source. Call
// the returned error function after the engine finishes to learn whether
// the stream ended cleanly.
func SourceFromConn(conn io.Reader, reg *event.Registry) (stream.Source, func() error) {
	return SourceFromReader(NewReader(conn, reg))
}

// SourceFromReader exposes an existing Reader as an engine Source — used
// after ReadQuery consumed the leading control frame, so the event stream
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
