package durable

import (
	"fmt"
	"sync"

	"github.com/spectrecep/spectre/internal/event"
)

// MemStore is the in-memory Store: records survive engine restarts
// within one process but not process death. It deliberately models the
// volatile/durable split of a real disk — Append lands in a volatile
// buffer, Sync promotes it — so tests can call Crash to drop everything
// that was never synced and exercise the same torn-state recovery paths
// a machine failure produces. Records are stored encoded; Load decodes
// them, so every MemStore test also exercises the codec.
//
// Like FileStore's segment deletion, a synced cut releases what it
// supersedes: events records wholly below its boundary and every earlier
// cut; only the highest watermark is kept. Table records stay, because
// Load remaps each events record with the tables that precede it.
// Boundaries never decrease (cuts follow root pops), which makes the
// release exact.
type MemStore struct {
	mu     sync.Mutex
	shards map[string]*memShard
	closed bool
}

type memShard struct {
	mu sync.Mutex
	// recs holds the synced table and events records in log order, except
	// that recs[tables:head] are slots of events records a cut released;
	// the table records among them moved down into recs[:tables].
	recs         []memRec
	tables, head int
	// cut is the latest synced cut; wm a watermark record carrying top,
	// the highest synced watermark (nil until one is synced).
	cut, wm  []byte
	top      uint64
	volatile []memRec
	epoch    uint64 // bumped on Crash; stale handles become inert
	open     bool
	loaded   bool
}

// memRec is one encoded record with what release reads: for events the
// last event's seq, for a cut its boundary; for cuts and watermarks the
// watermark carried.
type memRec struct {
	kind    Kind
	seq, wm uint64
	p       []byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{shards: make(map[string]*memShard)}
}

// OpenShard implements Store.
func (m *MemStore) OpenShard(query string, shard int) (ShardLog, error) {
	key := fmt.Sprintf("%s/%d", query, shard)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("durable: store closed")
	}
	sh, ok := m.shards[key]
	if !ok {
		sh = &memShard{}
		m.shards[key] = sh
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.open {
		return nil, fmt.Errorf("%w: %s", ErrShardOpen, key)
	}
	sh.open = true
	sh.loaded = false
	return &memLog{sh: sh, epoch: sh.epoch}, nil
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}

// Crash simulates process death: every unsynced (volatile) record is
// dropped and all open shard logs are force-released, as if the process
// holding them vanished. Handles from before the crash become inert —
// their appends, syncs and closes are refused — mirroring a dead
// process's file descriptors.
func (m *MemStore) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.volatile = nil
		sh.open = false
		sh.epoch++
		sh.mu.Unlock()
	}
}

// promote makes one record durable (sh.mu held).
func (sh *memShard) promote(r memRec) {
	if r.kind != KindCut && r.kind != KindWatermark {
		sh.recs = append(sh.recs, r)
		return
	}
	if r.kind == KindCut {
		sh.cut = r.p
		sh.release(r.seq)
	}
	if sh.wm == nil || r.wm > sh.top {
		sh.top = r.wm
		sh.wm, _ = encodeRecord(nil, &Record{Kind: KindWatermark, Watermark: r.wm})
	}
}

// release drops the events records wholly below boundary. Seqs increase
// along the log, so they are a prefix of the events records: the head
// resumes where the last cut stopped, and table records it passes move
// down ahead of every live record. Released slots are squeezed out once
// they fill half the slice, so each record is moved O(1) times.
func (sh *memShard) release(boundary uint64) {
	for ; sh.head < len(sh.recs); sh.head++ {
		r := sh.recs[sh.head]
		if r.kind == KindEvents {
			if r.seq >= boundary {
				break
			}
			continue
		}
		sh.recs[sh.tables] = r
		sh.tables++
	}
	if sh.head-sh.tables > len(sh.recs)/2 {
		n := sh.tables + copy(sh.recs[sh.tables:], sh.recs[sh.head:])
		clear(sh.recs[n:])
		sh.recs, sh.head = sh.recs[:n], sh.tables
	}
}

// synced lists the durable records in an order that folds to the log's
// state: the cut and the watermark record only set state, so they go last.
func (sh *memShard) synced() [][]byte {
	out := make([][]byte, 0, sh.tables+len(sh.recs)-sh.head+2)
	for _, r := range sh.recs[:sh.tables] {
		out = append(out, r.p)
	}
	for _, r := range sh.recs[sh.head:] {
		out = append(out, r.p)
	}
	for _, p := range [][]byte{sh.cut, sh.wm} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// memLog is one shard's handle.
type memLog struct {
	sh     *memShard
	epoch  uint64
	closed bool
}

// live reports whether the handle may touch the shard; the caller holds
// sh.mu.
func (l *memLog) live() bool {
	return !l.closed && l.epoch == l.sh.epoch
}

// Load implements ShardLog.
func (l *memLog) Load(reg *event.Registry) (*ShardState, error) {
	l.sh.mu.Lock()
	defer l.sh.mu.Unlock()
	if !l.live() {
		return nil, ErrNotLoaded
	}
	f := newFolder(reg)
	for _, p := range l.sh.synced() {
		rec, err := decodeRecord(p)
		if err != nil {
			return nil, err
		}
		if err := f.add(rec); err != nil {
			return nil, err
		}
	}
	l.sh.loaded = true
	return f.finish(), nil
}

// Append implements ShardLog.
func (l *memLog) Append(rec *Record) error {
	l.sh.mu.Lock()
	defer l.sh.mu.Unlock()
	if !l.live() || !l.sh.loaded {
		return ErrNotLoaded
	}
	p, err := encodeRecord(nil, rec)
	if err != nil {
		return err
	}
	r := memRec{kind: rec.Kind, p: p}
	switch rec.Kind {
	case KindEvents:
		if n := len(rec.Events); n > 0 {
			r.seq = rec.Events[n-1].Seq
		}
	case KindCut:
		r.seq, r.wm = rec.Cut.Boundary, rec.Cut.Watermark
	case KindWatermark:
		r.wm = rec.Watermark
	}
	l.sh.volatile = append(l.sh.volatile, r)
	return nil
}

// Sync implements ShardLog.
func (l *memLog) Sync() error {
	l.sh.mu.Lock()
	defer l.sh.mu.Unlock()
	if !l.live() || !l.sh.loaded {
		return ErrNotLoaded
	}
	for _, r := range l.sh.volatile {
		l.sh.promote(r)
	}
	l.sh.volatile = nil
	return nil
}

// Close implements ShardLog. Unsynced records are discarded (a clean
// shutdown syncs first; the engine's persister does).
func (l *memLog) Close() error {
	l.sh.mu.Lock()
	defer l.sh.mu.Unlock()
	if l.live() {
		l.closed = true
		l.sh.volatile = nil
		l.sh.open = false
	}
	return nil
}
