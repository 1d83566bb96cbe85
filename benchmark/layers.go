package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/benchmark/oracle"
	"github.com/spectrecep/spectre/benchmark/stat"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/stream"
	"github.com/spectrecep/spectre/internal/transport"
)

// per returns num/den scaled by scale, 0 when there is nothing to divide by.
func per(num, den uint64, scale float64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * scale
}

// coreCounters turns a handle's public counters into the core.* ratios.
func coreCounters(out map[string]float64, m *spectre.Metrics, shards []spectre.Metrics) {
	ing := m.EventsIngested
	out["core.events_processed_per_ingested"] = per(m.EventsProcessed, ing, 1)
	out["core.cycles_per_kevent"] = per(m.Cycles, ing, 1000)
	out["core.versions_per_kevent"] = per(m.VersionsCreated, ing, 1000)
	out["core.version_drop_share"] = per(m.VersionsDropped, m.VersionsCreated, 1)
	out["core.gate_reprocessed_per_kwindow"] = per(m.GateReprocessed, m.WindowsOpened, 1000)
	out["core.rollbacks_per_kwindow"] = per(m.Rollbacks, m.WindowsOpened, 1000)
	out["core.partial_roll_share"] = per(m.PartialRolls, m.Rollbacks, 1)
	out["core.checkpoints_per_kevent"] = per(m.Checkpoints, ing, 1000)
	out["core.seeded_share"] = per(m.VersionsSeeded, m.VersionsCreated, 1)
	out["core.slot_utilization"] = m.SlotUtilization()
	out["core.max_tree_size"] = float64(m.MaxTreeSize)
	out["core.emit_lag_p50_ms"] = m.EmitLagP50 * 1000
	out["core.emit_lag_p99_ms"] = m.EmitLagP99 * 1000
	out["core.filtered_share"] = per(m.FilteredEvents, ing+m.FilteredEvents, 1)
	out["core.durable_appends_per_kevent"] = per(m.DurableAppends, ing, 1000)
	out["core.durable_syncs_per_kevent"] = per(m.DurableSyncs, ing, 1000)
	out["core.durable_ckpt_dropped"] = float64(m.DurableCkptDropped)
	var most, sum uint64
	for i := range shards {
		n := shards[i].EventsIngested + shards[i].FilteredEvents
		most = max(most, n)
		sum += n
	}
	out["core.shard_skew"] = per(most*uint64(len(shards)), sum, 1)
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// layers of an in-process workload: the k=1 and dedicated-engine passes
// beside a k=2 pass taken at the same moment, the sequential baselines,
// and the replay drivers over the first shard's substream.
func (w *inproc) layers(tr *tracer, out map[string]float64) error {
	n := float64(len(w.events))
	k2, err := w.passK(nil, instances)
	if err != nil {
		return err
	}
	k1, err := w.passK(nil, 1)
	if err != nil {
		return err
	}
	if k1.failed()+k2.failed() > 0 {
		return fmt.Errorf("%s differs from the reference: %+v at k=1, %+v at k=%d", w.name, k1.diff, k2.diff, instances)
	}
	out["core.k1_events_per_s"] = n / k1.wall.Seconds()
	out["core.speedup_k"] = k1.wall.Seconds() / k2.wall.Seconds()
	if !w.durable {
		d, err := w.enginePass(tr)
		if err != nil {
			return err
		}
		out["core.engine_events_per_s"] = n / d.Seconds()
	}
	out["seqengine.events_per_s"] = n / w.seqWall.Seconds()
	out["seqengine.completion_probability"] = w.seqStat.CompletionProbability()

	switch w.name {
	case "q1_heavy":
		// The T-REX-style baseline keeps every partial sequence; a prefix
		// is all it gets through in the time a pass takes.
		prefix := w.events[:min(len(w.events), 15_000)]
		var err error
		d := span(tr, "trex.Run", func() { _, _, err = spectre.RunBaseline(w.query, prefix) })
		if err != nil {
			return err
		}
		out["trex.events_per_s"] = float64(len(prefix)) / d.Seconds()
	case "rise_sharded":
		// The same query on a stream twice as long: throughput here falls
		// as the backlog deepens, and this ratio says by how much.
		long, err := prepareInproc(w.name, w.seed, 2*len(w.events), w.tmp)
		if err != nil {
			return err
		}
		s, err := long.passK(nil, instances)
		if err != nil {
			return err
		}
		if s.failed() > 0 {
			return fmt.Errorf("%s at twice the length differs from the reference: %+v", w.name, s.diff)
		}
		out["spectre.backlog_sensitivity"] = (n / k2.wall.Seconds()) / (2 * n / s.wall.Seconds())
	case "q2_durable":
		if err := replayDurable(tr, w.reg, w.query.Name, w.events, w.tmp, out); err != nil {
			return err
		}
	}

	if w.router != nil {
		replayShard(tr, w.router, w.events, out)
	}
	return replayEngineLayers(tr, w.query, w.reg, w.subs[0], out)
}

// enginePass runs the stream through spectre.Engine — dedicated slot
// goroutines instead of the pooled runtime — one engine per shard
// substream, all at once, and checks the output like any pass.
func (w *inproc) enginePass(tr *tracer) (time.Duration, error) {
	ctx := context.Background()
	sinks := make([]*collector, len(w.subs))
	engines := make([]*spectre.Engine, len(w.subs))
	for i := range w.subs {
		eng, err := spectre.NewEngine(w.query, spectre.WithInstances(instances))
		if err != nil {
			return 0, err
		}
		engines[i], sinks[i] = eng, &collector{parent: -1}
	}
	errs := make([]error, len(w.subs))
	var wg sync.WaitGroup
	d := span(tr, "spectre.Engine.Run", func() {
		for i := range w.subs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = engines[i].Run(ctx, spectre.FromSlice(w.subs[i]), sinks[i])
			}()
		}
		wg.Wait()
	})
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		if diff := oracle.Compare(w.want[i:i+1], oracle.Keys(sinks[i].matches)); diff.Failed() > 0 {
			return 0, fmt.Errorf("spectre.Engine on %s shard %d differs from the reference: %+v", w.name, i, diff)
		}
	}
	return d, nil
}

// replayDurable pushes the stream through the WAL alone: journal appends
// to a FileStore with a sync after every batch, the same appends to a
// MemStore (encoding without the file), then load, export and import.
// Batches are half a feed batch so that the stream gives the p99 of the
// sync time its thousand samples.
func replayDurable(tr *tracer, reg *event.Registry, query string, evs []event.Event, tmp string, out map[string]float64) error {
	const journalBatch = feedBatch / 2
	dir := filepath.Join(tmp, "replay-wal")
	defer os.RemoveAll(dir)

	journal := func(st durable.Store, name string) (appendTime time.Duration, syncs []float64, err error) {
		log, err := st.OpenShard(query, 0)
		if err != nil {
			return 0, nil, err
		}
		if _, err := log.Load(reg); err != nil {
			return 0, nil, err
		}
		for _, rec := range []*durable.Record{durable.TypesRecord(reg), durable.FieldsRecord(reg)} {
			if err := log.Append(rec); err != nil {
				return 0, nil, err
			}
		}
		id := tr.begin(name, -1)
		defer tr.end(id)
		for lo := 0; lo < len(evs); lo += journalBatch {
			chunk := append([]event.Event(nil), evs[lo:min(lo+journalBatch, len(evs))]...) // Append takes ownership
			t := time.Now()
			err := log.Append(&durable.Record{Kind: durable.KindEvents, Events: chunk})
			appendTime += time.Since(t)
			if err != nil {
				return 0, nil, err
			}
			t = time.Now()
			if err := log.Sync(); err != nil {
				return 0, nil, err
			}
			syncs = append(syncs, ms(time.Since(t)))
		}
		return appendTime, syncs, log.Close()
	}

	fs, err := durable.NewFileStore(dir)
	if err != nil {
		return err
	}
	defer fs.Close()
	fileTime, syncs, err := journal(fs, "replay durable.FileStore.Append+Sync")
	if err != nil {
		return err
	}
	memTime, _, err := journal(durable.NewMemStore(), "replay durable.MemStore.Append")
	if err != nil {
		return err
	}
	sort.Float64s(syncs)
	out["durable.append_ns_per_event"] = nsPer(fileTime, len(evs))
	out["durable.mem_append_ns_per_event"] = nsPer(memTime, len(evs))
	out["durable.sync_ms_p50"] = stat.Percentile(syncs, 0.5)
	out["durable.sync_ms_p99"] = stat.Percentile(syncs, stat.TopPercentile(len(syncs)))
	out["durable.bytes_per_event"] = float64(dirBytes(dir)) / float64(len(evs))

	out["durable.load_ms"] = ms(span(tr, "replay durable.Load", func() {
		var log durable.ShardLog
		if log, err = fs.OpenShard(query, 0); err == nil {
			_, err = log.Load(reg)
			log.Close()
		}
	}))
	if err != nil {
		return err
	}
	var blob []byte
	out["durable.export_ms"] = ms(span(tr, "replay durable.ExportShard", func() { blob, err = durable.ExportShard(fs, reg, query, 0) }))
	if err != nil {
		return err
	}
	out["durable.import_ms"] = ms(span(tr, "replay durable.ImportShard", func() {
		err = durable.ImportShard(durable.NewMemStore(), reg, query, 0, blob)
	}))
	return err
}

// replayTransport pushes events through the client wire alone: encode to
// memory, decode from it, one cluster frame round trip per batch, and the
// text event format spectre-client reads its input from.
func replayTransport(tr *tracer, reg *event.Registry, evs []event.Event, out map[string]float64) error {
	if len(evs) > replayCap {
		evs = evs[:replayCap]
	}
	n := len(evs)
	var wire bytes.Buffer
	tw := transport.NewWriter(&wire, reg)
	var err error
	d := span(tr, "replay transport.WriteEvent", func() {
		for i := range evs {
			if err = tw.WriteEvent(&evs[i]); err != nil {
				return
			}
		}
		err = tw.Flush()
	})
	if err != nil {
		return err
	}
	out["transport.write_ns_per_event"] = nsPer(d, n)
	out["transport.bytes_per_event"] = float64(wire.Len()) / float64(n)

	payload := wire.Bytes()
	rd := transport.NewReader(bytes.NewReader(payload), event.NewRegistry())
	d = span(tr, "replay transport.ReadEvent", func() {
		for i := 0; i < n; i++ {
			if _, err = rd.ReadEvent(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out["transport.read_ns_per_event"] = nsPer(d, n)

	// One frame per feedBatch events' worth of bytes, as a cluster link ships them.
	body := payload[:min(len(payload), feedBatch*int(out["transport.bytes_per_event"]))]
	const rounds = 2000
	var frame, scratch []byte
	d = span(tr, "replay transport.Frame", func() {
		for i := 0; i < rounds; i++ {
			if frame, err = transport.AppendFrame(frame[:0], 1, body); err != nil {
				return
			}
			if _, scratch, err = transport.ReadFrame(bytes.NewReader(frame), scratch); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out["transport.frame_roundtrip_ns"] = nsPer(d, rounds)

	var text bytes.Buffer
	if err := stream.WriteEvents(&text, reg, evs); err != nil {
		return err
	}
	d = span(tr, "replay stream.ReadEvents", func() { _, err = stream.ReadEvents(&text, event.NewRegistry()) })
	out["stream.read_ns_per_event"] = nsPer(d, n)
	return err
}
