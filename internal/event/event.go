// Package event defines the event model shared by every engine in this
// repository: primitive events flowing on streams, interned event types,
// numeric field schemas, and complex (derived) events produced by pattern
// detection.
//
// Events are deliberately compact: a type id, an event-time timestamp, a
// globally unique sequence number and a dense slice of numeric fields whose
// meaning is given by a Schema. This mirrors the attribute-value model of
// the SPECTRE paper (§2.1) while keeping the hot path allocation-free.
package event

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Type is an interned event type identifier. In the algorithmic-trading
// workloads of the paper a type corresponds to a stock symbol.
type Type uint32

// NoType is the zero Type; it never names a registered type.
const NoType Type = 0

// Event is a single primitive event. Events are totally ordered by Seq;
// sources must emit events so that Seq increases monotonically (the paper
// assumes a well-defined global ordering by timestamps plus tie-breaker
// rules, which the ingest layer collapses into Seq).
type Event struct {
	// Seq is the global sequence number, assigned at ingest. It is the
	// total order used for window membership and consumption bookkeeping.
	Seq uint64
	// TS is the event time in nanoseconds since the Unix epoch.
	TS int64
	// Type identifies the event type (e.g. the stock symbol).
	Type Type
	// Fields holds the numeric payload, indexed by a Schema.
	Fields []float64
}

// Field returns the idx-th payload field, or 0 when the event carries fewer
// fields. The zero default matches map-lookup semantics and keeps predicate
// evaluation total.
func (e *Event) Field(idx int) float64 {
	if idx < 0 || idx >= len(e.Fields) {
		return 0
	}
	return e.Fields[idx]
}

// Clone returns a deep copy of the event. The fields slice is copied so the
// clone can outlive arena reuse.
func (e *Event) Clone() Event {
	c := *e
	if e.Fields != nil {
		c.Fields = append([]float64(nil), e.Fields...)
	}
	return c
}

// Complex is a derived event emitted when a pattern instance completes.
// Two complex events are the same detection iff their Query, WindowID and
// Constituents agree; String renders a canonical form used by tests to
// compare engine outputs.
type Complex struct {
	// Query names the query that produced this detection.
	Query string
	// WindowID is the id of the window the detection happened in.
	WindowID uint64
	// Constituents are the sequence numbers of the participating primitive
	// events, in ascending order.
	Constituents []uint64
	// Consumed are the sequence numbers consumed by the consumption policy
	// (a subset of Constituents), in ascending order.
	Consumed []uint64
	// DetectedAt is the sequence number of the event that completed the
	// pattern instance.
	DetectedAt uint64
}

// Key returns a canonical string identity for the detection, suitable for
// set comparison between engines.
func (c *Complex) Key() string {
	var b strings.Builder
	b.WriteString(c.Query)
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(c.WindowID, 10))
	b.WriteByte(':')
	for i, s := range c.Constituents {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(s, 10))
	}
	return b.String()
}

// String implements fmt.Stringer.
func (c *Complex) String() string { return c.Key() }

// Clone returns a deep copy of the complex event.
func (c *Complex) Clone() Complex {
	out := *c
	out.Constituents = append([]uint64(nil), c.Constituents...)
	out.Consumed = append([]uint64(nil), c.Consumed...)
	return out
}

// Registry interns event type names and payload field names. A single
// Registry is shared by the query, the dataset and the engine so that ids
// are consistent. The zero value is not usable; call NewRegistry.
//
// A Registry is safe for concurrent use: interning and lookups may race
// freely across goroutines (e.g. two Runtime.Submit calls resolving
// partition fields against a shared registry), and an id handed out once
// is never reassigned.
type Registry struct {
	mu        sync.RWMutex
	typeIDs   map[string]Type
	typeNames []string

	fieldIdx   map[string]int
	fieldNames []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		typeIDs:   make(map[string]Type),
		typeNames: []string{""}, // reserve id 0 == NoType
		fieldIdx:  make(map[string]int),
	}
}

// TypeID interns name and returns its id. Ids start at 1; NoType (0) is
// never returned.
func (r *Registry) TypeID(name string) Type {
	r.mu.RLock()
	id, ok := r.typeIDs[name]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.typeIDs[name]; ok {
		return id
	}
	id = Type(len(r.typeNames))
	r.typeNames = append(r.typeNames, name)
	r.typeIDs[name] = id
	return id
}

// LookupType returns the id for name and whether it is registered.
func (r *Registry) LookupType(name string) (Type, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.typeIDs[name]
	return id, ok
}

// TypeName returns the name for id, or "" for unknown ids.
func (r *Registry) TypeName(id Type) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(id) >= len(r.typeNames) {
		return ""
	}
	return r.typeNames[id]
}

// NumTypes reports the number of registered types (excluding NoType).
func (r *Registry) NumTypes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.typeNames) - 1
}

// FieldIndex interns a payload field name and returns its dense index.
func (r *Registry) FieldIndex(name string) int {
	r.mu.RLock()
	idx, ok := r.fieldIdx[name]
	r.mu.RUnlock()
	if ok {
		return idx
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx, ok := r.fieldIdx[name]; ok {
		return idx
	}
	idx = len(r.fieldNames)
	r.fieldNames = append(r.fieldNames, name)
	r.fieldIdx[name] = idx
	return idx
}

// LookupField returns the index for a field name and whether it exists.
func (r *Registry) LookupField(name string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	idx, ok := r.fieldIdx[name]
	return idx, ok
}

// FieldName returns the name of field idx, or "" when out of range.
func (r *Registry) FieldName(idx int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if idx < 0 || idx >= len(r.fieldNames) {
		return ""
	}
	return r.fieldNames[idx]
}

// NumFields reports the number of registered payload fields.
func (r *Registry) NumFields() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.fieldNames)
}

// TypeNames snapshots the type-name table: element i names type id i+1.
func (r *Registry) TypeNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.typeNames[1:]...)
}

// FieldNames snapshots the field-name table: element i names field i.
func (r *Registry) FieldNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.fieldNames...)
}

// Translation maps events encoded against a peer registry — a remote
// coordinator, or the process that wrote a log — into a local registry's
// assignment. The peer announces its tables (TypeNames/FieldNames
// snapshots) through SetTypes and SetFields; Apply then rewrites events.
// Until a type table is announced, type ids pass through unchecked.
type Translation struct {
	reg         *Registry
	types       []Type // peer id → local id (index 0 is NoType); nil until announced
	fields      []int  // peer index → local index
	fieldsMoved bool   // some announced field index maps elsewhere
}

// NewTranslation returns a translation into reg that has seen no tables.
func NewTranslation(reg *Registry) *Translation {
	return &Translation{reg: reg}
}

// SetTypes installs the peer's type-name table, interning every name.
func (t *Translation) SetTypes(names []string) {
	t.types = make([]Type, len(names)+1)
	for i, name := range names {
		t.types[i+1] = t.reg.TypeID(name)
	}
}

// SetFields installs the peer's field-name table, interning every name.
func (t *Translation) SetFields(names []string) {
	t.fields = make([]int, len(names))
	t.fieldsMoved = false
	for i, name := range names {
		t.fields[i] = t.reg.FieldIndex(name)
		t.fieldsMoved = t.fieldsMoved || t.fields[i] != i
	}
}

// field maps one peer field index; an index past the announced table
// passes through.
func (t *Translation) field(i int) int {
	if i < len(t.fields) {
		return t.fields[i]
	}
	return i
}

// Apply rewrites evs in place into the local assignment. A type id past
// the announced type table is an error (evs may then be partly
// rewritten). Field slices are copied only when some field index moves,
// widened to the highest local index they land on.
func (t *Translation) Apply(evs []Event) error {
	for i := range evs {
		ev := &evs[i]
		if t.types != nil {
			if int(ev.Type) >= len(t.types) {
				return fmt.Errorf("event: type id %d past announced table (%d types)", ev.Type, len(t.types)-1)
			}
			ev.Type = t.types[ev.Type]
		}
		if !t.fieldsMoved || len(ev.Fields) == 0 {
			continue
		}
		width := 0
		for j := range ev.Fields {
			width = max(width, t.field(j)+1)
		}
		out := make([]float64, width)
		for j, v := range ev.Fields {
			out[t.field(j)] = v
		}
		ev.Fields = out
	}
	return nil
}

// Format renders an event using the registry's names, for debugging.
func (r *Registry) Format(e *Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d(", r.TypeName(e.Type), e.Seq)
	for i, f := range e.Fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%g", r.FieldName(i), f)
	}
	b.WriteByte(')')
	return b.String()
}
