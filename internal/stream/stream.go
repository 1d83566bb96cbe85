// Package stream provides event sources and sinks: in-memory slices,
// channels, and a line-oriented file codec used by the dataset tools.
package stream

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/spectrecep/spectre/internal/event"
)

// Source yields events in stream order. Implementations need not assign
// sequence numbers; the consuming engine does that at ingest.
type Source interface {
	// Next returns the next event and true, or a zero event and false at
	// end of stream.
	Next() (event.Event, bool)
}

// ContextSource is implemented by sources whose Next can block
// indefinitely (channels, network reads). NextCtx behaves like Next but
// returns early — reporting end of stream — once ctx is done, so a
// cancelled engine run is not stuck waiting for an event that never
// arrives.
type ContextSource interface {
	Source
	// NextCtx returns the next event, or false at end of stream or when
	// ctx is done first.
	NextCtx(ctx context.Context) (event.Event, bool)
}

// SliceSource streams a slice of events.
type SliceSource struct {
	events []event.Event
	pos    int
}

var _ Source = (*SliceSource)(nil)

// FromSlice returns a source over events.
func FromSlice(events []event.Event) *SliceSource {
	return &SliceSource{events: events}
}

// Next implements Source.
func (s *SliceSource) Next() (event.Event, bool) {
	if s.pos >= len(s.events) {
		return event.Event{}, false
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of events.
func (s *SliceSource) Len() int { return len(s.events) }

// ChanSource streams events from a channel (closed channel = end of
// stream).
type ChanSource struct{ C <-chan event.Event }

var _ Source = (*ChanSource)(nil)

// FromChan returns a source over ch.
func FromChan(ch <-chan event.Event) *ChanSource { return &ChanSource{C: ch} }

// Next implements Source.
func (s *ChanSource) Next() (event.Event, bool) {
	ev, ok := <-s.C
	return ev, ok
}

var _ ContextSource = (*ChanSource)(nil)

// NextCtx implements ContextSource: a done ctx ends the stream instead of
// blocking on a quiet channel.
func (s *ChanSource) NextCtx(ctx context.Context) (event.Event, bool) {
	select {
	case ev, ok := <-s.C:
		return ev, ok
	case <-ctx.Done():
		return event.Event{}, false
	}
}

// Collect drains a source into a slice.
func Collect(s Source) []event.Event {
	var out []event.Event
	for {
		ev, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// fieldsHeader starts the comment line that names the payload fields.
const fieldsHeader = "# fields:"

// WriteEvents encodes events in the repository's line format:
//
//	# fields: name0 name1 ...
//	ts type field0 field1 ...
//
// where type is the registry name and the header, written when reg names
// any field, names the field positions. The format is the on-disk dataset
// format of cmd/datagen and the input of spectre-client.
func WriteEvents(w io.Writer, reg *event.Registry, events []event.Event) error {
	bw := bufio.NewWriter(w)
	if names := reg.FieldNames(); len(names) > 0 {
		fmt.Fprintln(bw, fieldsHeader, strings.Join(names, " ")) // an error sticks to bw
	}
	for i := range events {
		ev := &events[i]
		if _, err := fmt.Fprintf(bw, "%d %s", ev.TS, reg.TypeName(ev.Type)); err != nil {
			return fmt.Errorf("stream: write: %w", err)
		}
		for _, f := range ev.Fields {
			if _, err := bw.WriteString(" " + strconv.FormatFloat(f, 'g', -1, 64)); err != nil {
				return fmt.Errorf("stream: write: %w", err)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("stream: write: %w", err)
		}
	}
	return bw.Flush()
}

// ReadEvents decodes the line format produced by WriteEvents, interning
// event types in reg. Fields named by a header bind by name into reg's
// field indexes; without one they stay positional.
func ReadEvents(r io.Reader, reg *event.Registry) ([]event.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []event.Event
	tr := event.NewTranslation(reg)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if names, ok := strings.CutPrefix(text, fieldsHeader); ok {
			tr.SetFields(strings.Fields(names))
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Fields(text)
		if len(parts) < 2 {
			return nil, fmt.Errorf("stream: line %d: need at least ts and type", line)
		}
		ts, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad timestamp: %w", line, err)
		}
		ev := event.Event{TS: ts, Type: reg.TypeID(parts[1])}
		for _, p := range parts[2:] {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return nil, fmt.Errorf("stream: line %d: bad field %q: %w", line, p, err)
			}
			ev.Fields = append(ev.Fields, f)
		}
		out = append(out, ev)
		tr.Apply(out[len(out)-1:]) // no type table: cannot fail
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return out, nil
}
