package durable

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

// A segment is a run of wire frames, one record each. A frame that
// wire.NextFrame rejects (short header or payload, CRC mismatch, absurd
// length) is a torn tail when it is the last thing in the last segment —
// the write was cut mid-flight and the file is truncated there on open.
// Anywhere else it is corruption.

// defaultSegmentBytes is the rotation threshold: a cut record arriving
// once the live segment exceeds it starts a new segment (seeded with the
// name tables and the cut) and deletes fully-released older segments.
const defaultSegmentBytes = 4 << 20

// FileStore is the file-backed Store: one directory per (query, shard)
// under the root, holding numbered WAL segments.
type FileStore struct {
	dir string
	// SegmentBytes overrides the rotation threshold (tests shrink it);
	// set before the first OpenShard.
	SegmentBytes int64

	mu     sync.Mutex
	inUse  map[string]bool
	closed bool
}

// NewFileStore opens (creating if needed) a store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create state dir: %w", err)
	}
	return &FileStore{dir: dir, SegmentBytes: defaultSegmentBytes, inUse: make(map[string]bool)}, nil
}

// Dir returns the store's root directory.
func (fs *FileStore) Dir() string { return fs.dir }

// shardKey builds a filesystem-safe, collision-resistant directory name
// for a (query, shard) pair.
func shardKey(query string, shard int) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, query)
	if len(clean) > 48 {
		clean = clean[:48]
	}
	h := fnv.New32a()
	h.Write([]byte(query))
	return fmt.Sprintf("%s-%08x-s%d", clean, h.Sum32(), shard)
}

// OpenShard implements Store.
func (fs *FileStore) OpenShard(query string, shard int) (ShardLog, error) {
	key := shardKey(query, shard)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, fmt.Errorf("durable: store closed")
	}
	if fs.inUse[key] {
		return nil, fmt.Errorf("%w: %s shard %d", ErrShardOpen, query, shard)
	}
	dir := filepath.Join(fs.dir, key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create shard dir: %w", err)
	}
	fs.inUse[key] = true
	return &fileLog{fs: fs, key: key, dir: dir, segLimit: fs.SegmentBytes}, nil
}

// Close implements Store. Open shard logs stay usable; only new opens
// are refused.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	fs.closed = true
	fs.mu.Unlock()
	return nil
}

func (fs *FileStore) release(key string) {
	fs.mu.Lock()
	delete(fs.inUse, key)
	fs.mu.Unlock()
}

// segInfo tracks one on-disk segment for compaction decisions.
type segInfo struct {
	path      string
	index     uint64
	maxSeq    uint64 // highest event seq in the segment
	hasEvents bool
}

// fileLog is one shard's segmented WAL handle.
type fileLog struct {
	fs       *FileStore
	key      string
	dir      string
	segLimit int64

	segs    []segInfo // older segments, oldest first (excludes current)
	cur     segInfo
	f       *os.File
	bw      *bufio.Writer
	curSize int64

	// Latest name tables seen, re-emitted at rotation so every segment
	// is self-describing after older ones are deleted.
	lastTypes  []string
	lastFields []string

	scratch []byte // encodeRecord's buffer
	frame   []byte // the frame built around it
	loaded  bool
	closed  bool
}

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", index))
}

// Load implements ShardLog: scan segments in order, repair the torn
// tail of the last one, fold the retained records, and open the tail
// segment for appending.
func (l *fileLog) Load(reg *event.Registry) (*ShardState, error) {
	if l.loaded {
		return nil, fmt.Errorf("durable: Load called twice")
	}
	if l.closed {
		return nil, fmt.Errorf("durable: Load on closed shard log")
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		idx, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{path: filepath.Join(l.dir, name), index: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })

	f := newFolder(reg)
	for i := range segs {
		last := i == len(segs)-1
		if err := l.scanSegment(&segs[i], last, f); err != nil {
			return nil, err
		}
	}

	if len(segs) == 0 {
		l.cur = segInfo{path: segPath(l.dir, 1), index: 1}
		file, err := os.OpenFile(l.cur.path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = file
		l.curSize = 0
	} else {
		l.cur = segs[len(segs)-1]
		l.segs = segs[:len(segs)-1]
		file, err := os.OpenFile(l.cur.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := file.Stat()
		if err != nil {
			file.Close()
			return nil, err
		}
		l.f = file
		l.curSize = st.Size()
	}
	l.bw = bufio.NewWriterSize(l.f, 64*1024)
	l.loaded = true
	st := f.finish()
	if st != nil {
		// Loading interned every on-disk name, so the registry's tables
		// cover the log; rotation re-emits them even if the registry never
		// grows again this run.
		l.lastTypes, l.lastFields = reg.TypeNames(), reg.FieldNames()
	}
	return st, nil
}

// scanSegment folds one segment's records. Torn frames in the final
// segment truncate the file; any damage elsewhere is fatal.
func (l *fileLog) scanSegment(seg *segInfo, last bool, f *folder) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return err
	}
	for off := 0; off < len(data); {
		payload, rest, err := wire.NextFrame(data[off:])
		if err != nil {
			if !last {
				return &Corrupt{Path: seg.path, Off: int64(off), Err: err}
			}
			if err := os.Truncate(seg.path, int64(off)); err != nil {
				return fmt.Errorf("durable: truncate torn tail of %s: %w", seg.path, err)
			}
			return nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// CRC-valid but undecodable: the bytes arrived intact, so
			// this is real damage (or a format break), never a torn tail.
			return &Corrupt{Path: seg.path, Off: int64(off), Err: err}
		}
		if rec.Kind == KindEvents && len(rec.Events) > 0 {
			seg.hasEvents = true
			if s := rec.Events[len(rec.Events)-1].Seq; s > seg.maxSeq {
				seg.maxSeq = s
			}
		}
		if err := f.add(rec); err != nil {
			return &Corrupt{Path: seg.path, Off: int64(off), Err: err}
		}
		off = len(data) - len(rest)
	}
	return nil
}

// Append implements ShardLog.
func (l *fileLog) Append(rec *Record) error {
	if !l.loaded || l.closed {
		return ErrNotLoaded
	}
	switch rec.Kind {
	case KindTypes:
		l.lastTypes = rec.Types
	case KindFields:
		l.lastFields = rec.Fields
	case KindCut:
		if l.curSize >= l.segLimit {
			return l.rotate(rec)
		}
	}
	return l.writeFrame(rec)
}

// writeFrame encodes rec and appends one CRC frame to the live segment.
func (l *fileLog) writeFrame(rec *Record) error {
	payload, err := encodeRecord(l.scratch[:0], rec)
	if err != nil {
		return err
	}
	l.scratch = payload[:0]
	if l.frame, err = wire.AppendFrame(l.frame[:0], payload[0], payload[1:]); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := l.bw.Write(l.frame); err != nil {
		return err
	}
	l.curSize += int64(len(l.frame))
	if rec.Kind == KindEvents && len(rec.Events) > 0 {
		l.cur.hasEvents = true
		if s := rec.Events[len(rec.Events)-1].Seq; s > l.cur.maxSeq {
			l.cur.maxSeq = s
		}
	}
	return nil
}

// rotate closes the live segment, starts the next one seeded with the
// name tables and cut (so it is self-describing), syncs it, and then
// deletes older segments whose every event lies below the cut boundary.
// Compaction runs only after the new segment's cut is durable.
func (l *fileLog) rotate(cut *Record) error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segs = append(l.segs, l.cur)
	next := segInfo{index: l.cur.index + 1}
	next.path = segPath(l.dir, next.index)
	file, err := os.OpenFile(next.path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = file
	l.bw = bufio.NewWriterSize(file, 64*1024)
	l.cur = next
	l.curSize = 0
	if len(l.lastTypes) > 0 {
		if err := l.writeFrame(&Record{Kind: KindTypes, Types: l.lastTypes}); err != nil {
			return err
		}
	}
	if len(l.lastFields) > 0 {
		if err := l.writeFrame(&Record{Kind: KindFields, Fields: l.lastFields}); err != nil {
			return err
		}
	}
	if err := l.writeFrame(cut); err != nil {
		return err
	}
	if err := l.Sync(); err != nil {
		return err
	}
	// Delete the released prefix: segments wholly below the boundary.
	// Stop at the first segment that still holds journal suffix events —
	// later segments may hold older events interleaved with needed ones
	// only in theory (seqs grow monotonically), so a prefix scan is
	// exact.
	boundary := cut.Cut.Boundary
	keep := 0
	for keep < len(l.segs) {
		s := l.segs[keep]
		if s.hasEvents && s.maxSeq >= boundary {
			break
		}
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			break
		}
		keep++
	}
	l.segs = append([]segInfo(nil), l.segs[keep:]...)
	return nil
}

// DiscardsRecords reports that Append encodes the record into the
// segment and keeps no reference to it afterwards, so callers may reuse
// record-owned buffers (notably event batches) once Append returns.
func (l *fileLog) DiscardsRecords() bool { return true }

// Sync implements ShardLog.
func (l *fileLog) Sync() error {
	if !l.loaded || l.closed {
		return ErrNotLoaded
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close implements ShardLog.
func (l *fileLog) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.loaded {
		if e := l.bw.Flush(); e != nil {
			err = e
		}
		if e := l.f.Sync(); e != nil && err == nil {
			err = e
		}
		if e := l.f.Close(); e != nil && err == nil {
			err = e
		}
	}
	l.fs.release(l.key)
	return err
}
