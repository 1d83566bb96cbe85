// Package durable persists per-shard query state so a SPECTRE runtime
// survives process death: a write-ahead log of admitted events (the
// replay journal), the shard's cuts and an emission watermark. The log
// is segmented, each record CRC-framed, and appends reach disk through
// an explicit Sync — the engine batches and syncs off the hot path
// (internal/core's persister goroutine). The cuts are the shard's one
// cut stream (internal/core/cut.go): one per root pop, and grid cuts
// while no window is open, so the log rotates and deletes segments in a
// gap as it does between windows.
//
// Recovery contract (consumed by core's recover path):
//
//   - The latest cut record is the durable floor: everything below its
//     Boundary is released — popped windows, released arena prefix,
//     already-final consumption marks folded into Consumed — and the
//     shard restarts with it as its last cut.
//   - Events at or above the boundary form the replay journal; feeding
//     them back through the engine re-forms windows and matches
//     deterministically (window formation depends only on Seq/TS).
//   - The watermark counts matches delivered to the sink, cumulatively
//     per shard. It is synced before delivery, so on recovery the first
//     (Watermark − Cut.Watermark) regenerated matches are suppressed —
//     exactly-once on the journaled substream.
//
// Type and field ids are registry-assignment-dependent, so the log
// carries the full name tables (KindTypes/KindFields); Load re-interns
// them and remaps every persisted event, making the log portable across
// restarts that intern names in a different order.
//
// Kind 4 is reserved: earlier builds wrote matcher checkpoints under it.
// Readers skip such records unread, so an old log or export blob still
// loads; the encoder refuses the kind.
//
// The cut record's encoding (AppendCut/ReadCut) is also the cut a
// cluster link carries: a remote shard keeps no WAL, its journal is the
// coordinator's retained events from the latest cut (internal/cluster).
// Export/import (export.go) is no longer how a shard moves.
package durable

import (
	"errors"
	"fmt"

	"github.com/spectrecep/spectre/internal/event"
)

// Kind discriminates WAL record types.
type Kind uint8

const (
	// KindTypes carries the registry's type-name table (ids 1..n in
	// order). Written at shard open and re-written when the table grows
	// and at segment rotation, so every segment is self-describing.
	KindTypes Kind = iota + 1
	// KindFields carries the registry's field-name table (indices 0..n).
	KindFields
	// KindEvents is a batch of admitted events, in ingest order.
	KindEvents
	// kindReserved was the matcher-checkpoint record; see the package doc.
	kindReserved
	// KindCut is a cut of the shard's stream: the durable floor advances.
	KindCut
	// KindWatermark advances the cumulative delivered-match count.
	KindWatermark
)

// Record is the sum type appended to a shard log. Exactly the fields for
// its Kind are set.
type Record struct {
	Kind      Kind
	Types     []string
	Fields    []string
	Events    []event.Event
	Cut       *CutRecord
	Watermark uint64
}

// CutRecord is one cut of a shard's stream: after a root pop, or on the
// grid inside a gap. Everything below Boundary is durably final: the
// arena prefix is released, windows below NextWindowID are resolved,
// and Watermark matches have been delivered.
type CutRecord struct {
	// Boundary is the new arena floor: the new root window's start when
	// it overlaps the popped root, else a position in the gap before the
	// next window — the popped root's end or a multiple of the grid.
	// Boundaries strictly increase along a shard's log.
	Boundary uint64
	// NextWindowID is the id of the first window at or past Boundary
	// (the next root's id, or the opened count while the tree is empty).
	NextWindowID uint64
	// Watermark is the cumulative delivered-match count at the cut.
	Watermark uint64
	// Consumed holds the finally consumed event seqs at or above Boundary
	// as run-length pairs — start, count, start, count, … ascending —
	// (marks below the boundary can never be observed again). Consumption
	// is dense where windows completed, so runs keep per-cut snapshots
	// small on consume-heavy workloads.
	Consumed []uint64
}

// ShardState is the folded result of loading a shard log.
type ShardState struct {
	// Cut is the latest cut record, or nil when none was written.
	Cut *CutRecord
	// Events is the replay journal: admitted events at or above the cut
	// boundary, in ingest order, remapped to the loading registry.
	Events []event.Event
	// Watermark is the highest cumulative delivered-match count seen.
	Watermark uint64
	// NextSeq is one past the last journaled event's sequence number
	// (the position a producer should resume feeding from).
	NextSeq uint64
}

// Store hands out per-(query, shard) logs. Implementations must allow
// concurrent OpenShard calls for distinct shards; a shard already open
// returns an error until its log is closed.
type Store interface {
	OpenShard(query string, shard int) (ShardLog, error)
	Close() error
}

// ShardLog is one shard's WAL. Load must be called once, before the
// first Append: it repairs a torn tail, folds the retained records into
// a ShardState (nil when the log is empty) and readies the log for
// appending. Append buffers; Sync makes everything appended so far
// durable. Append takes ownership of the record and its slices.
type ShardLog interface {
	Load(reg *event.Registry) (*ShardState, error)
	Append(rec *Record) error
	Sync() error
	Close() error
}

// ErrShardOpen is returned by OpenShard while another log handle for the
// same shard is still open.
var ErrShardOpen = errors.New("durable: shard log already open")

// ErrNotLoaded is returned by Append/Sync before Load was called.
var ErrNotLoaded = errors.New("durable: shard log not loaded")

// Corrupt wraps unrecoverable log damage: a CRC-valid frame whose body
// does not decode, or a broken frame before the final segment's tail.
type Corrupt struct {
	Path string
	Off  int64
	Err  error
}

// Error implements error.
func (c *Corrupt) Error() string {
	return fmt.Sprintf("durable: corrupt record in %s at offset %d: %v", c.Path, c.Off, c.Err)
}

// Unwrap implements errors.Unwrap.
func (c *Corrupt) Unwrap() error { return c.Err }

// folder accumulates a shard state from a record sequence. Registry
// remapping is applied as the name tables stream by.
type folder struct {
	tr  *event.Translation
	st  ShardState
	any bool
}

func newFolder(reg *event.Registry) *folder {
	return &folder{tr: event.NewTranslation(reg)}
}

func (f *folder) add(rec *Record) error {
	f.any = true
	switch rec.Kind {
	case KindTypes:
		f.tr.SetTypes(rec.Types)
	case KindFields:
		f.tr.SetFields(rec.Fields)
	case KindEvents:
		if err := f.tr.Apply(rec.Events); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		for i := range rec.Events {
			if rec.Events[i].Seq+1 > f.st.NextSeq {
				f.st.NextSeq = rec.Events[i].Seq + 1
			}
		}
		f.st.Events = append(f.st.Events, rec.Events...)
	case kindReserved:
		// An old build's checkpoint: replay re-forms its window anyway.
	case KindCut:
		f.st.Cut = rec.Cut
		if rec.Cut.Watermark > f.st.Watermark {
			f.st.Watermark = rec.Cut.Watermark
		}
	case KindWatermark:
		if rec.Watermark > f.st.Watermark {
			f.st.Watermark = rec.Watermark
		}
	default:
		return fmt.Errorf("durable: unknown record kind %d", rec.Kind)
	}
	return nil
}

// finish applies the final cut filter and returns the state (nil when
// the log held no records).
func (f *folder) finish() *ShardState {
	if !f.any {
		return nil
	}
	st := f.st
	if cut := st.Cut; cut != nil {
		kept := st.Events[:0]
		for i := range st.Events {
			if st.Events[i].Seq >= cut.Boundary {
				kept = append(kept, st.Events[i])
			}
		}
		st.Events = kept
		if st.NextSeq < cut.Boundary {
			st.NextSeq = cut.Boundary
		}
	}
	return &st
}

// TypesRecord builds a KindTypes record from reg's current table.
func TypesRecord(reg *event.Registry) *Record {
	return &Record{Kind: KindTypes, Types: reg.TypeNames()}
}

// FieldsRecord builds a KindFields record from reg's current table.
func FieldsRecord(reg *event.Registry) *Record {
	return &Record{Kind: KindFields, Fields: reg.FieldNames()}
}
