package durable

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

// testEvents builds n events of alternating types A/B with one payload
// field, seqs starting at base. It interns A, B and price, so build the
// events before the table records that must announce them.
func testEvents(reg *event.Registry, base uint64, n int) []event.Event {
	a, b := reg.TypeID("A"), reg.TypeID("B")
	price := reg.FieldIndex("price")
	evs := make([]event.Event, n)
	for i := range evs {
		t := a
		if i%2 == 1 {
			t = b
		}
		fields := make([]float64, price+1)
		fields[price] = float64(base) + float64(i)
		evs[i] = event.Event{Seq: base + uint64(i), TS: int64(base) + int64(i), Type: t, Fields: fields}
	}
	return evs
}

func openShard(t *testing.T, s Store, reg *event.Registry) (ShardLog, *ShardState) {
	t.Helper()
	log, err := s.OpenShard("q", 0)
	if err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	st, err := log.Load(reg)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return log, st
}

func appendAll(t *testing.T, log ShardLog, recs ...*Record) {
	t.Helper()
	for _, rec := range recs {
		if err := log.Append(rec); err != nil {
			t.Fatalf("Append kind %d: %v", rec.Kind, err)
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// writeJournal appends tables + events + a watermark and closes the log.
func writeJournal(t *testing.T, s Store, reg *event.Registry, base uint64, n int, watermark uint64) {
	t.Helper()
	log, _ := openShard(t, s, reg)
	evs := testEvents(reg, base, n)
	appendAll(t, log,
		TypesRecord(reg),
		FieldsRecord(reg),
		&Record{Kind: KindEvents, Events: evs},
		&Record{Kind: KindWatermark, Watermark: watermark},
	)
	if err := log.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func stores(t *testing.T) map[string]Store {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	return map[string]Store{"file": fs, "mem": NewMemStore()}
}

func TestRoundtrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			reg := event.NewRegistry()
			writeJournal(t, s, reg, 0, 10, 3)

			log, st := openShard(t, s, reg)
			defer log.Close()
			if st == nil {
				t.Fatal("empty state after writes")
			}
			if len(st.Events) != 10 {
				t.Fatalf("journal length = %d, want 10", len(st.Events))
			}
			for i, ev := range st.Events {
				if ev.Seq != uint64(i) {
					t.Fatalf("event %d has seq %d", i, ev.Seq)
				}
				if got := ev.Field(reg.FieldIndex("price")); got != float64(i) {
					t.Fatalf("event %d price = %v, want %v", i, got, float64(i))
				}
			}
			if st.NextSeq != 10 {
				t.Fatalf("NextSeq = %d, want 10", st.NextSeq)
			}
			if st.Watermark != 3 {
				t.Fatalf("Watermark = %d, want 3", st.Watermark)
			}
		})
	}
}

func TestCutFoldsState(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			reg := event.NewRegistry()
			log, _ := openShard(t, s, reg)
			evs := testEvents(reg, 0, 20)
			appendAll(t, log,
				TypesRecord(reg),
				FieldsRecord(reg),
				&Record{Kind: KindEvents, Events: evs},
				&Record{Kind: KindWatermark, Watermark: 5},
				&Record{Kind: KindCut, Cut: &CutRecord{Boundary: 10, NextWindowID: 4, Watermark: 5, Consumed: []uint64{11, 13}}},
			)
			log.Close()

			log, st := openShard(t, s, reg)
			defer log.Close()
			if st.Cut == nil || st.Cut.Boundary != 10 {
				t.Fatalf("cut = %+v, want boundary 10", st.Cut)
			}
			if len(st.Events) != 10 || st.Events[0].Seq != 10 {
				t.Fatalf("journal after cut: %d events, first seq %d; want 10 starting at 10",
					len(st.Events), st.Events[0].Seq)
			}
			if got := st.Cut.Consumed; len(got) != 2 || got[0] != 11 || got[1] != 13 {
				t.Fatalf("consumed = %v, want [11 13]", got)
			}
		})
	}
}

// TestRegistryRemap loads a log with a registry that interned the same
// names in a different order: type ids and field indices must be
// rewritten, not trusted.
func TestRegistryRemap(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			reg := event.NewRegistry()
			reg.TypeID("A")          // 1
			reg.TypeID("B")          // 2
			reg.FieldIndex("price")  // 0
			reg.FieldIndex("volume") // 1
			log, _ := openShard(t, s, reg)
			ev := event.Event{Seq: 0, Type: reg.TypeID("B"), Fields: []float64{7, 9}}
			appendAll(t, log, TypesRecord(reg), FieldsRecord(reg),
				&Record{Kind: KindEvents, Events: []event.Event{ev}})
			log.Close()

			reg2 := event.NewRegistry()
			reg2.TypeID("B")          // 1 — swapped vs reg
			reg2.TypeID("A")          // 2
			reg2.FieldIndex("volume") // 0 — swapped vs reg
			reg2.FieldIndex("price")  // 1
			log, st := openShard(t, s, reg2)
			defer log.Close()
			got := st.Events[0]
			if got.Type != reg2.TypeID("B") {
				t.Fatalf("type = %d, want %d (B in the loading registry)", got.Type, reg2.TypeID("B"))
			}
			if p := got.Field(reg2.FieldIndex("price")); p != 7 {
				t.Fatalf("price = %v, want 7", p)
			}
			if v := got.Field(reg2.FieldIndex("volume")); v != 9 {
				t.Fatalf("volume = %v, want 9", v)
			}
		})
	}
}

func TestDoubleOpenRefused(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			log, err := s.OpenShard("q", 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.OpenShard("q", 0); !errors.Is(err, ErrShardOpen) {
				t.Fatalf("second open: %v, want ErrShardOpen", err)
			}
			log.Close()
			log2, err := s.OpenShard("q", 0)
			if err != nil {
				t.Fatalf("reopen after close: %v", err)
			}
			log2.Close()
		})
	}
}

// segFiles lists the shard's segment files, oldest first.
func segFiles(t *testing.T, fs *FileStore) []string {
	t.Helper()
	var segs []string
	err := filepath.WalkDir(fs.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".seg") {
			segs = append(segs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestTornTailTruncated simulates a crash mid-append: garbage after the
// last full frame must be truncated on open, keeping the intact prefix.
func TestTornTailTruncated(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"short-header":  func(b []byte) []byte { return append(b, 0x03, 0x00) },
		"short-payload": func(b []byte) []byte { return append(b, 0xff, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 0x01) },
		"crc-mismatch": func(b []byte) []byte {
			frame := make([]byte, 12)
			binary.LittleEndian.PutUint32(frame, 4)
			binary.LittleEndian.PutUint32(frame[4:], 0xdeadbeef)
			return append(b, frame...)
		},
		"zero-length": func(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) },
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			reg := event.NewRegistry()
			writeJournal(t, fs, reg, 0, 5, 1)

			segs := segFiles(t, fs)
			if len(segs) != 1 {
				t.Fatalf("segments = %d, want 1", len(segs))
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			intact := len(data)
			if err := os.WriteFile(segs[0], mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			log, st := openShard(t, fs, reg)
			if len(st.Events) != 5 || st.Watermark != 1 {
				t.Fatalf("recovered %d events, watermark %d; want 5, 1", len(st.Events), st.Watermark)
			}
			// The tail must be physically gone, and the log writable again.
			if fi, _ := os.Stat(segs[0]); fi.Size() != int64(intact) {
				t.Fatalf("segment size %d after repair, want %d", fi.Size(), intact)
			}
			appendAll(t, log, &Record{Kind: KindEvents, Events: testEvents(reg, 5, 1)})
			log.Close()

			log, st = openShard(t, fs, reg)
			defer log.Close()
			if len(st.Events) != 6 {
				t.Fatalf("after repair+append: %d events, want 6", len(st.Events))
			}
		})
	}
}

// TestCorruptionMidFileFatal flips a payload byte in a frame that is NOT
// the tail: that is real damage, not a torn write, and Load must refuse.
func TestCorruptionMidFileFatal(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := event.NewRegistry()
	writeJournal(t, fs, reg, 0, 5, 1)

	seg := segFiles(t, fs)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first frame's payload AND fix up its CRC so
	// the frame passes framing but fails decoding (CRC-valid garbage).
	n := binary.LittleEndian.Uint32(data)
	payload := data[8 : 8+int(n)] // past the [len][crc] header
	payload[0] ^= 0xff            // record kind becomes implausible
	binary.LittleEndian.PutUint32(data[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	log, err := fs.OpenShard("q", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, err = log.Load(reg)
	var c *Corrupt
	if !errors.As(err, &c) {
		t.Fatalf("Load = %v, want *Corrupt", err)
	}
}

// TestRotationAndCompaction drives the segment limit low, writes
// journal+cut cycles and verifies (a) rotation produces new segments,
// (b) fully-released segments are deleted, (c) the folded state after
// reopen matches the logical state.
func TestRotationAndCompaction(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs.SegmentBytes = 512
	reg := event.NewRegistry()
	log, _ := openShard(t, fs, reg)
	testEvents(reg, 0, 2) // intern the names the tables announce
	appendAll(t, log, TypesRecord(reg), FieldsRecord(reg))
	var seq uint64
	for round := 0; round < 8; round++ {
		appendAll(t, log, &Record{Kind: KindEvents, Events: testEvents(reg, seq, 16)})
		seq += 16
		appendAll(t, log, &Record{Kind: KindCut, Cut: &CutRecord{Boundary: seq - 4, NextWindowID: uint64(round + 1), Watermark: uint64(round)}})
	}
	log.Close()

	segs := segFiles(t, fs)
	if len(segs) < 2 {
		t.Fatalf("segments after 8 rotations-worth of cuts = %d, want rotation to have occurred", len(segs))
	}
	// The oldest segment on disk must still cover the final boundary's
	// journal suffix: everything wholly below it was compacted away.
	if !strings.HasSuffix(segs[0], "wal-00000001.seg") {
		// good: segment 1 was deleted by compaction
	} else {
		t.Fatalf("segment 1 survived compaction: %v", segs)
	}

	log, st := openShard(t, fs, reg)
	defer log.Close()
	if st.Cut == nil || st.Cut.Boundary != seq-4 {
		t.Fatalf("cut boundary = %+v, want %d", st.Cut, seq-4)
	}
	if len(st.Events) != 4 || st.Events[0].Seq != seq-4 {
		t.Fatalf("journal = %d events starting at %d, want 4 starting at %d",
			len(st.Events), st.Events[0].Seq, seq-4)
	}
	if st.NextSeq != seq {
		t.Fatalf("NextSeq = %d, want %d", st.NextSeq, seq)
	}
	if st.Watermark != 7 {
		t.Fatalf("watermark = %d, want 7", st.Watermark)
	}
}

// TestMemCrashDropsUnsynced is the MemStore volatile/durable contract:
// unsynced appends vanish at Crash, synced ones survive, and handles
// from before the crash are inert.
func TestMemCrashDropsUnsynced(t *testing.T) {
	ms := NewMemStore()
	reg := event.NewRegistry()
	log, _ := openShard(t, ms, reg)
	evs := testEvents(reg, 0, 4)
	appendAll(t, log, TypesRecord(reg), FieldsRecord(reg),
		&Record{Kind: KindEvents, Events: evs})
	// Unsynced tail: must not survive the crash.
	if err := log.Append(&Record{Kind: KindEvents, Events: testEvents(reg, 4, 4)}); err != nil {
		t.Fatal(err)
	}

	ms.Crash()

	if err := log.Append(&Record{Kind: KindWatermark, Watermark: 9}); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("stale handle Append = %v, want ErrNotLoaded", err)
	}
	if err := log.Sync(); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("stale handle Sync = %v, want ErrNotLoaded", err)
	}

	log2, st := openShard(t, ms, reg)
	defer log2.Close()
	if len(st.Events) != 4 || st.NextSeq != 4 {
		t.Fatalf("recovered %d events, NextSeq %d; want the 4 synced ones", len(st.Events), st.NextSeq)
	}
}

// TestAppendBeforeLoad: the Load-first contract is enforced.
func TestAppendBeforeLoad(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			log, err := s.OpenShard("q", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			if err := log.Append(&Record{Kind: KindWatermark, Watermark: 1}); !errors.Is(err, ErrNotLoaded) {
				t.Fatalf("Append before Load = %v, want ErrNotLoaded", err)
			}
		})
	}
}

// walLegacy is the segment an older build wrote for TestWALBytesStable's
// records plus a matcher checkpoint (the now reserved kind 4), taken at
// the commit before internal/wire existed.
const walLegacy = "0f0000002dcabd2e0102000000010000004101000000420e0000000e0b6016020100000005000000707269636565000000d83bf04d03030000000700000000000000070000000000000001000000010000000000000000001c4008000000000000000800000000000000020000000100000000000000000020400900000000000000090000000000000001000000010000000000000000002240f7000000a907f0fb04030000000000000005000000000000006400000000000000070000000000000002000000050000000000000006000000000000000000000001000000060000000000000001000000010000007103000000000000000200000005000000000000000600000000000000010000000600000000000000060000000000000002000000000000000101000000010000000000000001000000020000000300000000000000ffffffff02000000050000000000000064000000000000000200000002000000000000000000f83f00000000000000c00600000000000000650000000000000003000000000000000100000000000000020000002d00000010971a760509000000000000000400000000000000020000000000000002000000060000000000000008000000000000000900000042f3c411060b00000000000000"

// walGolden is the segment the same records minus the checkpoint produce,
// taken at the last commit whose WAL still carried checkpoints.
const walGolden = "0f0000002dcabd2e0102000000010000004101000000420e0000000e0b6016020100000005000000707269636565000000d83bf04d03030000000700000000000000070000000000000001000000010000000000000000001c40080000000000000008000000000000000200000001000000000000000000204009000000000000000900000000000000010000000100000000000000000022402d00000010971a760509000000000000000400000000000000020000000000000002000000060000000000000008000000000000000900000042f3c411060b00000000000000"

func legacyBytes(t testing.TB) []byte {
	t.Helper()
	b, err := hex.DecodeString(walLegacy)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// legacyCheckpoint returns walLegacy's kind-4 record payload.
func legacyCheckpoint(t testing.TB) []byte {
	t.Helper()
	for b := legacyBytes(t); len(b) > 0; {
		payload, rest, err := wire.NextFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		if Kind(payload[0]) == kindReserved {
			return payload
		}
		b = rest
	}
	t.Fatal("walLegacy holds no checkpoint record")
	return nil
}

// assertLegacyState checks the state walLegacy folds to: the checkpoint
// skipped, everything else recovered.
func assertLegacyState(t *testing.T, st *ShardState) {
	t.Helper()
	if st == nil || st.Cut == nil || st.Cut.Boundary != 9 || st.Cut.NextWindowID != 4 {
		t.Fatalf("cut = %+v, want boundary 9, next window 4", st)
	}
	if len(st.Events) != 1 || st.Events[0].Seq != 9 || st.NextSeq != 10 {
		t.Fatalf("journal = %+v (next %d), want the one event at 9 (next 10)", st.Events, st.NextSeq)
	}
	if st.Watermark != 11 {
		t.Fatalf("watermark = %d, want 11", st.Watermark)
	}
}

// TestKindNumbering pins the on-disk kind bytes: kind 4 stays reserved,
// so the kinds after it keep their values, and the encoder refuses it.
func TestKindNumbering(t *testing.T) {
	if KindCut != 5 || KindWatermark != 6 {
		t.Fatalf("KindCut = %d, KindWatermark = %d; want 5, 6", KindCut, KindWatermark)
	}
	if _, err := encodeRecord(nil, &Record{Kind: kindReserved}); err == nil {
		t.Fatal("the encoder must refuse the reserved kind")
	}
}

// TestWALBytesStable: a -state-dir written by an older build — with a
// checkpoint record in it — still recovers, and the bytes FileStore puts
// on disk for a fixed record sequence do not move.
func TestWALBytesStable(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(fs.Dir(), shardKey("q", 0))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dir, 1), legacyBytes(t), 0o644); err != nil {
			t.Fatal(err)
		}
		log, st := openShard(t, fs, event.NewRegistry())
		defer log.Close()
		assertLegacyState(t, st)
	})
	t.Run("write", func(t *testing.T) {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		reg := event.NewRegistry()
		evs := testEvents(reg, 7, 3)
		recs := sampleRecords()
		log, _ := openShard(t, fs, reg)
		appendAll(t, log,
			TypesRecord(reg),
			FieldsRecord(reg),
			&Record{Kind: KindEvents, Events: evs},
			recs[3], // cut
			recs[4], // watermark
		)
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(segFiles(t, fs)[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != walGolden {
			t.Fatalf("WAL bytes moved:\n got  %s\n want %s", got, walGolden)
		}
	})
}

// TestImportLegacyBlob: an export blob from an older build — a segment's
// frames, checkpoint included — imports and recovers without it.
func TestImportLegacyBlob(t *testing.T) {
	ms := NewMemStore()
	reg := event.NewRegistry()
	if err := ImportShard(ms, reg, "q", 0, legacyBytes(t)); err != nil {
		t.Fatal(err)
	}
	log, st := openShard(t, ms, reg)
	defer log.Close()
	assertLegacyState(t, st)
}

// TestLoadRejectsTypePastTable: an events record naming a type id its
// announced table does not hold is damage, not a type to pass through.
func TestLoadRejectsTypePastTable(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			reg := event.NewRegistry()
			reg.TypeID("A")
			log, _ := openShard(t, s, reg)
			appendAll(t, log, TypesRecord(reg), FieldsRecord(reg),
				&Record{Kind: KindEvents, Events: []event.Event{{Seq: 0, Type: 1}, {Seq: 1, Type: 2}}})
			log.Close()

			log, err := s.OpenShard("q", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			_, err = log.Load(reg)
			if err == nil || !strings.Contains(err.Error(), "past announced table") {
				t.Fatalf("Load = %v, want the type id past the announced table refused", err)
			}
			var c *Corrupt
			if _, isFile := s.(*FileStore); isFile && !errors.As(err, &c) {
				t.Fatalf("FileStore Load = %T %v, want *Corrupt", err, err)
			}
		})
	}
}
