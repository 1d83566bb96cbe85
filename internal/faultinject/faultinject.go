//go:build faultinject

// Package faultinject is the crash-testing harness behind the
// `faultinject` build tag. Production builds compile the no-op twin
// (faultinject_off.go): Enabled reports false, Hit is empty and the
// engine's instrumentation disappears into dead branches.
//
// The crash model is a kill flag, not a panic: Arm names a crash point
// and a countdown; when the engine's instrumentation reaches it, Hit
// atomically sets the killed flag. From that instant a Guard-wrapped
// durable store refuses every write (the dead process's buffered bytes
// never reach disk) and the test sink ignores every delivery (the dead
// process's callbacks never ran). The engine then winds down normally —
// the observable state equals a SIGKILL at that instruction, without
// sacrificing goroutine cleanliness under -race.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
)

// Catalog lists every named crash point the engine instruments, for
// tests that iterate all of them. Keep in sync with the Hit call sites
// in internal/core (TestCrashPointCatalog asserts each one fires).
var Catalog = []string{
	"wal.ingest.append",  // persister: journaling an admitted-event batch
	"wal.cut.append",     // persister: writing a root-pop cut record
	"wal.sync",           // persister: fsync of buffered records
	"emit.before-commit", // splitter: before the watermark commit of a match batch
	"emit.after-deliver", // splitter: after sink delivery of a committed batch
	"recover.prime",      // submit: while priming a shard from recovered state
}

// ErrKilled is returned by Guard-wrapped stores after the kill point.
var ErrKilled = errors.New("faultinject: killed")

var (
	mu     sync.Mutex
	armed  string
	fuse   int64 // hits remaining at the armed point before the kill
	hits   map[string]int64
	killed atomic.Bool
)

// Enabled reports whether the harness is compiled in.
func Enabled() bool { return true }

// Arm schedules a kill at the n-th future Hit of point (n >= 1).
func Arm(point string, n int) {
	mu.Lock()
	defer mu.Unlock()
	armed = point
	fuse = int64(n)
	killed.Store(false)
}

// Reset disarms the harness and clears counters and the kill flag.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed = ""
	fuse = 0
	hits = nil
	killed.Store(false)
}

// Hit marks one pass through a named crash point.
func Hit(point string) {
	mu.Lock()
	if hits == nil {
		hits = make(map[string]int64)
	}
	hits[point]++
	if armed == point && fuse > 0 {
		fuse--
		if fuse == 0 {
			killed.Store(true)
		}
	}
	mu.Unlock()
}

// Hits returns how often point was passed since the last Reset.
func Hits(point string) int64 {
	mu.Lock()
	defer mu.Unlock()
	return hits[point]
}

// Killed reports whether the kill point was reached.
func Killed() bool { return killed.Load() }

// Guard wraps a durable store so that every write issued after the kill
// point fails with ErrKilled — the dead process writes nothing more.
func Guard(s durable.Store) durable.Store { return &guardStore{s: s} }

type guardStore struct{ s durable.Store }

func (g *guardStore) OpenShard(query string, shard int) (durable.ShardLog, error) {
	l, err := g.s.OpenShard(query, shard)
	if err != nil {
		return nil, err
	}
	return &guardLog{l: l}, nil
}

func (g *guardStore) Close() error { return g.s.Close() }

type guardLog struct{ l durable.ShardLog }

func (g *guardLog) Load(reg *event.Registry) (*durable.ShardState, error) {
	return g.l.Load(reg)
}

func (g *guardLog) Append(rec *durable.Record) error {
	if killed.Load() {
		return ErrKilled
	}
	return g.l.Append(rec)
}

func (g *guardLog) Sync() error {
	if killed.Load() {
		return ErrKilled
	}
	return g.l.Sync()
}

func (g *guardLog) Close() error { return g.l.Close() }

// Flaky wraps a durable store with deterministic error and latency
// injection, for degraded-mode tests: every FailEvery-th Append fails,
// and every Sync stalls for Latency.
func Flaky(s durable.Store, failEvery int, latency time.Duration) durable.Store {
	return &flakyStore{s: s, failEvery: int64(failEvery), latency: latency}
}

// ErrInjected is the failure Flaky injects.
var ErrInjected = errors.New("faultinject: injected write error")

type flakyStore struct {
	s         durable.Store
	failEvery int64
	latency   time.Duration
	n         atomic.Int64
}

func (f *flakyStore) OpenShard(query string, shard int) (durable.ShardLog, error) {
	l, err := f.s.OpenShard(query, shard)
	if err != nil {
		return nil, err
	}
	return &flakyLog{f: f, l: l}, nil
}

func (f *flakyStore) Close() error { return f.s.Close() }

type flakyLog struct {
	f *flakyStore
	l durable.ShardLog
}

func (g *flakyLog) Load(reg *event.Registry) (*durable.ShardState, error) {
	return g.l.Load(reg)
}

func (g *flakyLog) Append(rec *durable.Record) error {
	if fe := g.f.failEvery; fe > 0 && g.f.n.Add(1)%fe == 0 {
		return ErrInjected
	}
	return g.l.Append(rec)
}

func (g *flakyLog) Sync() error {
	if g.f.latency > 0 {
		time.Sleep(g.f.latency)
	}
	return g.l.Sync()
}

func (g *flakyLog) Close() error { return g.l.Close() }
