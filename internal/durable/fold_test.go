package durable

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/wire"
)

// refFold is the accumulate-then-filter fold Load used before it kept
// only the replay suffix: every journaled event is held, and the latest
// cut's boundary filters them once the log is read.
func refFold(reg *event.Registry, recs []*Record) (*ShardState, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	tr := event.NewTranslation(reg)
	var st ShardState
	for _, rec := range recs {
		switch rec.Kind {
		case KindTypes:
			tr.SetTypes(rec.Types)
		case KindFields:
			tr.SetFields(rec.Fields)
		case KindEvents:
			if err := tr.Apply(rec.Events); err != nil {
				return nil, err
			}
			for i := range rec.Events {
				st.NextSeq = max(st.NextSeq, rec.Events[i].Seq+1)
			}
			st.Events = append(st.Events, rec.Events...)
		case KindCut:
			st.Cut = rec.Cut
			st.Watermark = max(st.Watermark, rec.Cut.Watermark)
		case KindWatermark:
			st.Watermark = max(st.Watermark, rec.Watermark)
		}
	}
	if cut := st.Cut; cut != nil {
		kept := st.Events[:0]
		for _, ev := range st.Events {
			if ev.Seq >= cut.Boundary {
				kept = append(kept, ev)
			}
		}
		st.Events = kept
		st.NextSeq = max(st.NextSeq, cut.Boundary)
	}
	return &st, nil
}

// framePayloads splits a run of WAL frames into their payloads.
func framePayloads(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var ps [][]byte
	for len(data) > 0 {
		payload, rest, err := wire.NextFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, payload)
		data = rest
	}
	return ps
}

// decodeAll decodes record payloads.
func decodeAll(t *testing.T, ps [][]byte) []*Record {
	t.Helper()
	recs := make([]*Record, len(ps))
	for i, p := range ps {
		rec, err := decodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	return recs
}

// foldedString renders a folded state by names, so states loaded into
// registries that interned the names in different orders compare equal.
func foldedString(reg *event.Registry, st *ShardState) string {
	if st == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "next %d watermark %d cut %+v\n", st.NextSeq, st.Watermark, st.Cut)
	for _, ev := range st.Events {
		var fields []string
		for i, v := range ev.Fields {
			if v != 0 {
				fields = append(fields, fmt.Sprintf("%s=%g", reg.FieldName(i), v))
			}
		}
		slices.Sort(fields)
		fmt.Fprintf(&b, "%s#%d@%d%v\n", reg.TypeName(ev.Type), ev.Seq, ev.TS, fields)
	}
	return b.String()
}

// foldWriter drives the same random record sequence into several shard
// logs: sessions that each restart with the names interned in a fresh
// order, write their tables and then journal event batches, cuts and
// watermarks. A cut's boundary may run past the next event it precedes,
// as a grid cut enqueued mid-ingest does, so events below a cut follow it.
type foldWriter struct {
	rng        *rand.Rand
	seq        uint64 // the next event's position
	floor      uint64 // the latest cut's boundary
	windows    uint64
	watermark  uint64
	lateBelow  int // events journaled below an earlier cut's boundary
	types      []string
	fieldNames []string
}

func (w *foldWriter) session(t *testing.T, stores []Store) {
	reg := event.NewRegistry()
	for _, i := range w.rng.Perm(len(w.types)) {
		reg.TypeID(w.types[i])
	}
	for _, i := range w.rng.Perm(len(w.fieldNames)) {
		reg.FieldIndex(w.fieldNames[i])
	}
	logs := make([]ShardLog, len(stores))
	for i, s := range stores {
		logs[i], _ = openShard(t, s, reg)
	}
	write := func(rec *Record) {
		for _, log := range logs {
			if err := log.Append(rec); err != nil {
				t.Fatalf("Append kind %d: %v", rec.Kind, err)
			}
		}
	}
	write(TypesRecord(reg))
	write(FieldsRecord(reg))
	for step := w.rng.Intn(24); step > 0; step-- {
		switch r := w.rng.Intn(10); {
		case r < 5:
			evs := make([]event.Event, 1+w.rng.Intn(24))
			for i := range evs {
				fields := make([]float64, 1+w.rng.Intn(len(w.fieldNames)))
				for j := range fields {
					fields[j] = float64(1 + w.rng.Intn(1000))
				}
				evs[i] = event.Event{Seq: w.seq, TS: int64(w.seq) * 3, Type: event.Type(1 + w.rng.Intn(len(w.types))), Fields: fields}
				if w.seq < w.floor {
					w.lateBelow++
				}
				// Positions the intake filter spent are gaps.
				w.seq += 1 + uint64(w.rng.Intn(3)/2*w.rng.Intn(6))
			}
			write(&Record{Kind: KindEvents, Events: evs})
		case r < 8:
			w.floor += 1 + uint64(w.rng.Intn(int(max(w.seq, w.floor)-w.floor)+16))
			w.windows += uint64(w.rng.Intn(3))
			write(&Record{Kind: KindCut, Cut: &CutRecord{
				Boundary: w.floor, NextWindowID: w.windows, Watermark: w.watermark,
				Consumed: []uint64{w.floor, uint64(w.rng.Intn(3))},
			}})
		default:
			w.watermark += uint64(w.rng.Intn(4))
			write(&Record{Kind: KindWatermark, Watermark: w.watermark})
		}
		if w.rng.Intn(4) == 0 {
			for _, log := range logs {
				if err := log.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, log := range logs {
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFoldKeepsSuffix: Load, which drops events below each cut as it
// folds, equals the accumulate-then-filter fold over the same records,
// on a FileStore that rotates and deletes segments and on a MemStore
// that keeps every record, over random logs of several restarts — some
// led by walLegacy's segment (an old build's, checkpoint included) —
// whose events may follow a cut they lie below. Both stores load the
// same state.
func TestFoldKeepsSuffix(t *testing.T) {
	var lateBelow, rotated int
	for trial := 0; trial < 120; trial++ {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fs.SegmentBytes = 384
		ms := NewMemStore()
		w := &foldWriter{
			rng:        rand.New(rand.NewSource(int64(trial))),
			types:      []string{"A", "B", "C", "D"},
			fieldNames: []string{"price", "vol", "bid"},
		}
		if trial%4 == 0 {
			// walLegacy holds events 7–9 under types A, B and the field
			// price, a cut at 9 and watermark 11.
			dir := filepath.Join(fs.Dir(), shardKey("q", 0))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segPath(dir, 1), legacyBytes(t), 0o644); err != nil {
				t.Fatal(err)
			}
			ms.shards["q/0"] = &memShard{recs: framePayloads(t, legacyBytes(t))}
			w.seq, w.floor, w.windows, w.watermark = 10, 9, 4, 11
		}
		for n := 1 + w.rng.Intn(4); n > 0; n-- {
			w.session(t, []Store{fs, ms})
		}
		lateBelow += w.lateBelow

		var disk []*Record
		segs := segFiles(t, fs)
		if len(segs) > 1 || !strings.HasSuffix(segs[0], segPath("", 1)) {
			rotated++
		}
		for _, path := range segs {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			disk = append(disk, decodeAll(t, framePayloads(t, data))...)
		}
		mem := decodeAll(t, ms.shards["q/0"].recs)

		var loaded []string
		for _, c := range []struct {
			label string
			store Store
			recs  []*Record
		}{{"file", fs, disk}, {"mem", ms, mem}} {
			reg := event.NewRegistry()
			log, got := openShard(t, c.store, reg)
			log.Close()
			wantReg := event.NewRegistry()
			want, err := refFold(wantReg, c.recs)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := foldedString(reg, got), foldedString(wantReg, want)
			if gs != ws {
				t.Fatalf("trial %d, %s store: Load folded\n%s\nthe accumulate-then-filter fold\n%s", trial, c.label, gs, ws)
			}
			loaded = append(loaded, gs)
		}
		if loaded[0] != loaded[1] {
			t.Fatalf("trial %d: the file store loaded\n%s\nthe memory store\n%s", trial, loaded[0], loaded[1])
		}
	}
	if lateBelow == 0 || rotated == 0 {
		t.Fatalf("the logs journaled %d events below an earlier cut and rotated in %d trials; both must happen", lateBelow, rotated)
	}
}
