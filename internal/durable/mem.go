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
// a machine failure produces. Records are stored encoded and kept in
// log order, every one of them; Load decodes and folds them all, so
// every MemStore test also exercises the codec.
type MemStore struct {
	mu     sync.Mutex
	shards map[string]*memShard
	closed bool
}

type memShard struct {
	mu       sync.Mutex
	recs     [][]byte // synced records, encoded, in log order
	volatile [][]byte
	epoch    uint64 // bumped on Crash; stale handles become inert
	open     bool
	loaded   bool
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
	for _, p := range l.sh.recs {
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
	l.sh.volatile = append(l.sh.volatile, p)
	return nil
}

// Sync implements ShardLog.
func (l *memLog) Sync() error {
	l.sh.mu.Lock()
	defer l.sh.mu.Unlock()
	if !l.live() || !l.sh.loaded {
		return ErrNotLoaded
	}
	l.sh.recs = append(l.sh.recs, l.sh.volatile...)
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
