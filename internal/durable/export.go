package durable

import (
	"fmt"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

// Shard export/import turns one shard's folded WAL state into a portable
// byte blob and back. This is the migration primitive of the distributed
// runtime (internal/cluster): a quiesced shard's journal tail, cut record
// and emission watermark travel inside a handoff
// frame to the shard's next owner, which imports them into its own store
// and recovers through the ordinary crash-recovery path.
//
// The blob is a sequence of wire frames holding records in the WAL's own
// encoding — what a segment file holds — always led by the registry name
// tables, so an import into a process that interned names in a different
// order remaps exactly like a restart does.

// ExportShard loads the (query, shard) log from st and renders its folded
// state as a self-describing record blob. The shard log must be closed
// (the owning runtime parked); exporting an open shard fails with
// ErrShardOpen.
func ExportShard(st Store, reg *event.Registry, query string, shard int) ([]byte, error) {
	log, err := st.OpenShard(query, shard)
	if err != nil {
		return nil, fmt.Errorf("durable: export %s/%d: %w", query, shard, err)
	}
	defer log.Close()
	state, err := log.Load(reg)
	if err != nil {
		return nil, fmt.Errorf("durable: export %s/%d: %w", query, shard, err)
	}
	if state == nil {
		return nil, nil
	}
	recs := []*Record{TypesRecord(reg), FieldsRecord(reg)}
	// The journal is chunked so no single record approaches the codec's
	// size cap even for a large retained tail.
	const exportChunk = 4096
	for evs := state.Events; len(evs) > 0; {
		n := min(len(evs), exportChunk)
		recs = append(recs, &Record{Kind: KindEvents, Events: evs[:n]})
		evs = evs[n:]
	}
	if state.Cut != nil {
		recs = append(recs, &Record{Kind: KindCut, Cut: state.Cut})
	}
	recs = append(recs, &Record{Kind: KindWatermark, Watermark: state.Watermark})

	var blob []byte
	scratch := make([]byte, 0, 4096)
	for _, rec := range recs {
		if scratch, err = encodeRecord(scratch[:0], rec); err == nil {
			blob, err = wire.AppendFrame(blob, scratch[0], scratch[1:])
		}
		if err != nil {
			return nil, fmt.Errorf("durable: export %s/%d: %w", query, shard, err)
		}
	}
	return blob, nil
}

// ImportShard appends an exported blob into st's (query, shard) log, which
// must be empty and closed: importing over existing state would interleave
// two histories. A nil blob is a no-op (exporting a never-written shard
// yields nil, and importing it leaves the destination fresh).
func ImportShard(st Store, reg *event.Registry, query string, shard int, blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	recs, err := decodeExport(blob)
	if err != nil {
		return fmt.Errorf("durable: import %s/%d: %w", query, shard, err)
	}
	log, err := st.OpenShard(query, shard)
	if err != nil {
		return fmt.Errorf("durable: import %s/%d: %w", query, shard, err)
	}
	defer log.Close()
	state, err := log.Load(reg)
	if err != nil {
		return fmt.Errorf("durable: import %s/%d: %w", query, shard, err)
	}
	if state != nil {
		return fmt.Errorf("durable: import %s/%d: destination shard log is not empty", query, shard)
	}
	for _, rec := range recs {
		if err := log.Append(rec); err != nil {
			return fmt.Errorf("durable: import %s/%d: %w", query, shard, err)
		}
	}
	if err := log.Sync(); err != nil {
		return fmt.Errorf("durable: import %s/%d: %w", query, shard, err)
	}
	return nil
}

// decodeExport splits a blob back into records, dropping reserved ones.
func decodeExport(blob []byte) ([]*Record, error) {
	var recs []*Record
	for len(blob) > 0 {
		payload, rest, err := wire.NextFrame(blob)
		if err != nil {
			return nil, err
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		if rec.Kind != kindReserved {
			recs = append(recs, rec)
		}
		blob = rest
	}
	return recs, nil
}
