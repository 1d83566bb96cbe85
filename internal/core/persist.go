package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/faultinject"
)

// persistQueueCap bounds the persister's request backlog. Requests (event
// batches, cuts, watermark commits) backpressure the splitter when the
// store is persistently slow. The cap is sized to ride out an individual
// slow fsync (tens of milliseconds on a contended disk) without stalling
// ingest — at full splitter speed a too-small queue turns every fsync
// hiccup into a throughput cliff.
const persistQueueCap = 2048

// persistReq is one unit of WAL work, in splitter order. Exactly one of
// events/cut is set — or emit, which marks a commit-and-deliver: the
// persister appends the watermark record, fsyncs everything buffered
// before it and only then hands the batch to the sink, so a match is
// never delivered before its suppression point is durable. Delivery
// rides the persister goroutine on purpose: the fsync leaves the
// splitter's hot path entirely (group commit), and the FIFO channel
// keeps sink order canonical.
type persistReq struct {
	events    []event.Event
	cut       *durable.CutRecord
	watermark uint64
	deliver   []event.Complex
	emit      func(event.Complex)
}

// persister drains one shard's durability requests onto its WAL shard
// log from a dedicated goroutine, keeping every write — including the
// pre-delivery watermark fsync — off the splitter's hot path. The
// request channel is FIFO, which yields the recovery invariant for
// free: by the time a watermark record is durable, every journal event
// it depends on is durable too (they were enqueued earlier, appended
// earlier, and the commit's fsync flushes the whole prefix) — and since
// delivery happens on this goroutine after the fsync, no match ever
// reaches the sink before its watermark is durable.
//
// The first write error breaks durability: the persister stops writing,
// counts the error, and the engine keeps delivering without durability
// (availability over durability; DESIGN.md §11 documents the degraded
// mode).
type persister struct {
	log durable.ShardLog
	reg *event.Registry

	ch   chan persistReq
	stop chan struct{}
	once sync.Once
	done chan struct{}

	broken  atomic.Bool
	appends atomic.Uint64
	syncs   atomic.Uint64
	errs    atomic.Uint64

	// typesDone/fieldsDone track how much of the registry's name tables
	// has been written, so growth re-emits them before dependent records.
	// Persister goroutine only.
	typesDone, fieldsDone int

	// evFree recycles event-batch copies between the splitter (appendEvents)
	// and the persister (appendReq): ShardLog.Append keeps nothing it is
	// handed. Without it the durable mode's dominant measurable cost on
	// small machines is the garbage of one fresh copy per ingest batch,
	// not the WAL I/O itself.
	evFree chan []event.Event
}

func newPersister(log durable.ShardLog, reg *event.Registry) *persister {
	return &persister{
		log:    log,
		reg:    reg,
		ch:     make(chan persistReq, persistQueueCap),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		evFree: make(chan []event.Event, 8),
	}
}

// run is the persister goroutine: drain requests until shutdown, then
// drain what is left, final-sync and close the log.
func (p *persister) run() {
	defer close(p.done)
	for {
		select {
		case req := <-p.ch:
			p.handle(req)
		case <-p.stop:
			for {
				select {
				case req := <-p.ch:
					p.handle(req)
				default:
					p.finish()
					return
				}
			}
		}
	}
}

// shutdown stops the persister and waits for the remaining backlog to be
// written, synced and the log closed. Called by the splitter in
// finishRun — after which the splitter sends nothing more, so the final
// drain is complete. Idempotent.
func (p *persister) shutdown() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

// maxCommitGroup bounds how many watermark commits share one fsync, so
// delivery latency stays bounded even under a deep backlog.
const maxCommitGroup = 64

func (p *persister) handle(req persistReq) {
	if req.emit != nil {
		p.commitDeliver(req)
		return
	}
	p.appendReq(req)
}

// appendReq journals one non-commit record (events, cut).
func (p *persister) appendReq(req persistReq) {
	if p.broken.Load() {
		return
	}
	if err := p.ensureTables(); err != nil {
		p.fail(err)
		return
	}
	var err error
	switch {
	case req.events != nil:
		faultinject.Hit("wal.ingest.append")
		err = p.log.Append(&durable.Record{Kind: durable.KindEvents, Events: req.events})
		select {
		case p.evFree <- req.events[:0]:
		default:
		}
	case req.cut != nil:
		faultinject.Hit("wal.cut.append")
		err = p.log.Append(&durable.Record{Kind: durable.KindCut, Cut: req.cut})
	default:
		return
	}
	if err != nil {
		p.fail(err)
		return
	}
	p.appends.Add(1)
}

// commitDeliver is the commit-before-deliver step (exactly-once,
// DESIGN.md §11), on the persister goroutine, with group commit: the
// triggering watermark plus every request already queued behind it are
// appended under a single fsync, then the covered match batches are
// delivered in order. While one fsync runs, later commits pile up in the
// channel and the next group absorbs them, so the fsync rate adapts to
// the device instead of multiplying with the delivery rate. With
// durability broken the commit is skipped and delivery continues
// unguarded (availability over durability). The kill flag is sampled
// once per group, between the shared fsync and delivery: a simulated
// crash loses whole groups, never parts of one, matching the
// watermark's all-or-nothing accounting.
func (p *persister) commitDeliver(req persistReq) {
	group := make([]persistReq, 1, 8)
	group[0] = req
	p.commitAppend(req)
absorb:
	for len(group) < maxCommitGroup {
		select {
		case more := <-p.ch:
			if more.emit == nil {
				p.appendReq(more)
				continue
			}
			p.commitAppend(more)
			group = append(group, more)
		default:
			break absorb
		}
	}
	if !p.broken.Load() {
		faultinject.Hit("wal.sync")
		if err := p.log.Sync(); err != nil {
			p.fail(err)
		} else {
			p.syncs.Add(1)
		}
	}
	// The kill flag is sampled once per group, before any delivery: the
	// whole group's watermarks share one fsync, so a kill firing mid-group
	// (at an after-deliver point) must still let the rest of the synced
	// group drain — those watermarks are already durable and recovery will
	// suppress their matches. The kill then takes effect at the next group
	// boundary.
	if faultinject.Killed() {
		return
	}
	for _, g := range group {
		for i := range g.deliver {
			g.emit(g.deliver[i])
		}
		faultinject.Hit("emit.after-deliver")
	}
}

// commitAppend appends one watermark record (no fsync; the group's
// shared sync follows).
func (p *persister) commitAppend(req persistReq) {
	faultinject.Hit("emit.before-commit")
	if p.broken.Load() {
		return
	}
	if err := p.ensureTables(); err != nil {
		p.fail(err)
		return
	}
	if err := p.log.Append(&durable.Record{Kind: durable.KindWatermark, Watermark: req.watermark}); err != nil {
		p.fail(err)
		return
	}
	p.appends.Add(1)
}

// ensureTables (re-)emits the registry's type/field name tables when
// they grew past what the log has seen: decoded records resolve names
// through these tables, so every table entry a record may reference must
// precede it in the log.
func (p *persister) ensureTables() error {
	if n := p.reg.NumTypes(); n > p.typesDone {
		if err := p.log.Append(durable.TypesRecord(p.reg)); err != nil {
			return err
		}
		p.appends.Add(1)
		p.typesDone = n
	}
	if n := p.reg.NumFields(); n > p.fieldsDone {
		if err := p.log.Append(durable.FieldsRecord(p.reg)); err != nil {
			return err
		}
		p.appends.Add(1)
		p.fieldsDone = n
	}
	return nil
}

func (p *persister) fail(err error) {
	p.errs.Add(1)
	p.broken.Store(true)
	_ = err
}

// finish runs at the end of the drain: one last fsync so a clean
// shutdown leaves the full journal durable, then the log is closed
// (releasing the store's shard lock for a successor).
func (p *persister) finish() {
	if !p.broken.Load() {
		if err := p.log.Sync(); err != nil {
			p.fail(err)
		} else {
			p.syncs.Add(1)
		}
	}
	_ = p.log.Close()
}

// appendEvents journals one admitted-event batch (splitter, blocking:
// a slow store backpressures ingest rather than growing an unbounded
// write backlog). The batch is copied — the caller reuses its buffer —
// into a recycled copy when one is free and large enough (see evFree).
func (p *persister) appendEvents(batch []event.Event) {
	if len(batch) == 0 || p.broken.Load() {
		return
	}
	var evs []event.Event
	select {
	case evs = <-p.evFree:
	default:
	}
	if cap(evs) < len(batch) {
		evs = make([]event.Event, len(batch))
	}
	evs = append(evs[:0], batch...)
	p.ch <- persistReq{events: evs}
}

// appendCut is a durable shard's cut consumer (shardState.onCut;
// splitter, blocking): it journals a copy of the cut, whose record the
// splitter reuses.
func (p *persister) appendCut(cut *durable.CutRecord) {
	if p.broken.Load() {
		return
	}
	cp := *cut
	cp.Consumed = slices.Clone(cut.Consumed)
	p.ch <- persistReq{cut: &cp}
}

// commitAndDeliver enqueues a watermark commit plus the match batch it
// covers (splitter, blocking only on queue room): the persister makes
// the cumulative delivered-match count durable and then delivers the
// batch, so exactly-once on the kept substream costs the splitter no
// fsync wait. deliver may be empty (fully suppressed replay batch) —
// the watermark still advances durably.
func (p *persister) commitAndDeliver(watermark uint64, deliver []event.Complex, emit func(event.Complex)) {
	p.ch <- persistReq{watermark: watermark, deliver: deliver, emit: emit}
}

// attachDurability opens the shard's WAL log, loads it and attaches a
// persister as the shard's cut consumer. It returns the loaded state (nil
// for an empty log), which Runtime.start primes the shard from, as it
// primes an upstream shard from its cut, before it starts the persister.
func attachDurability(s *shardState, name string, shard int) (*durable.ShardState, error) {
	cfg := &s.prog.cfg
	log, err := cfg.Durable.OpenShard(name, shard)
	if err != nil {
		return nil, fmt.Errorf("core: open durable shard %s/%d: %w", name, shard, err)
	}
	st, err := log.Load(cfg.Reg)
	if err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("core: recover durable shard %s/%d: %w", name, shard, err)
	}
	s.persist = newPersister(log, cfg.Reg)
	s.onCut = s.persist.appendCut
	return st, nil
}

// primeRecovered rebuilds the shard's pre-crash state from the folded
// WAL — or from an upstream cut (Config.Upstream) with an empty journal:
// final consumption marks, the window-id cursor, the last cut and the
// ingest cursor from the cut, the emission watermark split into the
// already-counted prefix (s.emitted) and the suppression budget for
// matches the replay will regenerate but the previous process already
// delivered. It then appends the replay suffix to the arena, as the head
// of the unread tail, so the splitter re-forms every window past the cut
// ahead of live input. Called before the shard runs; no synchronization
// needed.
func (s *shardState) primeRecovered(st *durable.ShardState) {
	faultinject.Hit("recover.prime")
	var cutW uint64
	if cut := st.Cut; cut != nil {
		// Consumed is run-length pairs (start, count, …; see
		// Arena.ConsumedRuns). Marking materializes the arena chunks
		// replay has not appended yet.
		for i := 0; i+1 < len(cut.Consumed); i += 2 {
			for seq, n := cut.Consumed[i], cut.Consumed[i+1]; n > 0; n-- {
				s.ar.MarkConsumed(seq)
				seq++
			}
		}
		s.winMgr.ResumeAt(cut.NextWindowID)
		s.lastCut = cut.Boundary
		s.gridAt = s.nextGrid()
		// Nothing below the boundary is read again: the journal and the
		// upstream feeder both start there.
		s.cursor = cut.Boundary
		s.ingested.Store(cut.Boundary)
		cutW = cut.Watermark
	}
	s.emitted = cutW
	if st.Watermark > cutW {
		s.suppressRemaining = st.Watermark - cutW
	}
	s.recoveredNextSeq = st.NextSeq
	if n := uint64(len(st.Events)); n > 0 {
		for _, ev := range st.Events {
			s.ar.AppendAt(ev)
		}
		s.ar.Publish()
		s.appended += n
		s.metrics.add(func(m *Metrics) { m.ReplayedEvents += n })
	}
}
