package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spectrecep/spectre/internal/core"
	"github.com/spectrecep/spectre/internal/durable"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/transport"
	"github.com/spectrecep/spectre/internal/wire"
)

// WorkerOptions parameterizes Join.
type WorkerOptions struct {
	// Name identifies the worker in coordinator logs (default the local
	// address of the joined connection).
	Name string
	// Capacity advertises how many shard assignments the worker accepts
	// concurrently (default 64).
	Capacity int
	// Heartbeat is the idle keepalive interval (default 2s); the link is
	// considered dead after linkTimeoutFactor missed beats.
	Heartbeat time.Duration
	// JoinAttempts caps the dial+handshake retries before Join gives up
	// with a *Error (default 5).
	JoinAttempts int
	// Logf receives worker lifecycle logs (default: discard).
	Logf func(format string, args ...any)
}

func (o *WorkerOptions) setDefaults() {
	if o.Capacity <= 0 {
		o.Capacity = 64
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 2 * time.Second
	}
	if o.JoinAttempts <= 0 {
		o.JoinAttempts = 5
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// linkTimeoutFactor scales the heartbeat interval into the per-read
// deadline on a cluster link. Generous on purpose: a missed deadline is
// treated as a crash, and CI machines under -race stall for seconds.
const linkTimeoutFactor = 10

// Worker executes shard assignments for one coordinator. Each assigned
// shard runs as an independent single-shard durable core runtime whose WAL
// lives in memory — the WAL is what makes the shard portable: a quiesce
// parks the runtime, exports the WAL and ships it back in a handoff frame.
type Worker struct {
	conn net.Conn
	reg  *event.Registry
	rt   *core.Runtime
	opts WorkerOptions
	id   uint32

	ctx    context.Context
	cancel context.CancelFunc

	// wmu serializes frame writes; wbuf is the encode scratch it guards.
	wmu  sync.Mutex
	wbuf []byte

	// tables translates the coordinator's ids into this process's
	// registry assignment; nil until the first kindTables frame. Only the
	// serve goroutine touches it.
	tables *event.Translation

	mu     sync.Mutex
	shards map[uint64]*workerShard
	// pages holds shared event pages awaiting their reference frames;
	// each page is freed after refsLeft kindPageRefs frames consumed it.
	pages map[uint64]*workerPage

	closed  atomic.Bool
	done    chan struct{}
	runErr  error
	errOnce sync.Once

	// Transport counters (Stats).
	bytesSent     atomic.Uint64
	bytesRecv     atomic.Uint64
	framesSent    atomic.Uint64
	framesRecv    atomic.Uint64
	eventsDeduped atomic.Uint64
}

// workerPage is one shared event page (remapped into the local registry
// once, shared by every referencing shard).
type workerPage struct {
	events   []event.Event
	refsLeft uint32
	used     uint32 // refs frames consumed so far (dedup accounting)
}

// WorkerStats is a point-in-time snapshot of the worker link's transport
// counters.
type WorkerStats struct {
	BytesSent     uint64
	BytesRecv     uint64
	FramesSent    uint64
	FramesRecv    uint64
	EventsDeduped uint64
}

// Stats snapshots the link counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		BytesSent:     w.bytesSent.Load(),
		BytesRecv:     w.bytesRecv.Load(),
		FramesSent:    w.framesSent.Load(),
		FramesRecv:    w.framesRecv.Load(),
		EventsDeduped: w.eventsDeduped.Load(),
	}
}

// workerShard is one assigned (query, shard) execution.
type workerShard struct {
	name  string
	h     *core.Handle
	store *durable.MemStore
	// emitBase is the global ordinal of the first match this life will
	// deliver (the assignment's snapshot watermark); delivered counts the
	// emit callbacks since (persister goroutine only).
	emitBase  uint64
	delivered uint64
	gone      atomic.Bool // parked/aborted: late frames for it are ignored
}

func shardKey(query, shard uint32) uint64 { return uint64(query)<<32 | uint64(shard) }

// Join dials the coordinator at addr, performs the protocol handshake and
// starts serving assignments. The dial and handshake are retried with
// jittered backoff up to opts.JoinAttempts times; exhaustion returns a
// typed *Error. The returned worker serves until its link drops, Close is
// called, or ctx is cancelled; Wait blocks until then.
func Join(ctx context.Context, reg *event.Registry, addr string, opts WorkerOptions) (*Worker, error) {
	opts.setDefaults()
	backoff := transport.Backoff{Min: 100 * time.Millisecond, Max: 2 * time.Second}
	var conn net.Conn
	var id uint32
	for attempts := 1; ; attempts++ {
		var err error
		if conn, id, err = dialCoordinator(ctx, addr, &opts); err == nil {
			break
		}
		opts.Logf("cluster: join %s attempt %d/%d failed: %v", addr, attempts, opts.JoinAttempts, err)
		if attempts >= opts.JoinAttempts {
			return nil, &Error{Op: "join", Addr: addr, Attempts: attempts, Err: err}
		}
		select {
		case <-ctx.Done():
			return nil, &Error{Op: "join", Addr: addr, Attempts: attempts, Err: ctx.Err()}
		case <-time.After(backoff.Next(attempts - 1)):
		}
	}
	wctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		conn:   conn,
		reg:    reg,
		rt:     core.NewRuntime(core.RuntimeConfig{}),
		opts:   opts,
		id:     id,
		ctx:    wctx,
		cancel: cancel,
		shards: make(map[uint64]*workerShard),
		pages:  make(map[uint64]*workerPage),
		done:   make(chan struct{}),
	}
	go w.serve()
	go w.heartbeat()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				w.fail(ctx.Err())
				w.Close()
			case <-w.done:
			}
		}()
	}
	return w, nil
}

// dialCoordinator performs one dial + handshake.
func dialCoordinator(ctx context.Context, addr string, opts *WorkerOptions) (net.Conn, uint32, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	id, err := greet(conn, opts)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, id, nil
}

// greet sends the hello and reads the welcome, returning the worker id.
// Both frames carry protoVersion; a coordinator speaking any other
// version is refused.
func greet(conn net.Conn, opts *WorkerOptions) (uint32, error) {
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	hello := helloMsg{Proto: protoVersion, Capacity: uint32(opts.Capacity), Name: opts.Name}
	if err := writeFrame(conn, kindHello, hello.encode(nil)); err != nil {
		return 0, fmt.Errorf("send hello: %w", err)
	}
	kind, body, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return 0, fmt.Errorf("read welcome: %w", err)
	}
	if kind == kindError {
		if em, derr := decodeError(body); derr == nil {
			return 0, fmt.Errorf("coordinator rejected join: %s", em.Msg)
		}
	}
	if kind != kindWelcome {
		return 0, fmt.Errorf("unexpected frame kind %d during handshake", kind)
	}
	wm, err := decodeWelcome(body)
	if err != nil {
		return 0, err
	}
	if wm.Proto != protoVersion {
		return 0, fmt.Errorf("protocol mismatch: coordinator speaks v%d, worker v%d", wm.Proto, protoVersion)
	}
	return wm.WorkerID, conn.SetDeadline(time.Time{})
}

// ID returns the coordinator-assigned worker id.
func (w *Worker) ID() uint32 { return w.id }

// Wait blocks until the worker stops serving and returns the terminal
// error (nil on a clean Close).
func (w *Worker) Wait() error {
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runErr
}

// Close tears the worker down: the link is closed, every shard runtime is
// aborted, and Wait unblocks. Used both for graceful shutdown (after the
// coordinator quiesced the shards) and as the crash injection point in
// tests — state not yet handed off is lost, exactly like a process kill.
func (w *Worker) Close() {
	if !w.closed.CompareAndSwap(false, true) {
		return
	}
	w.cancel()
	_ = w.conn.Close()
}

func (w *Worker) fail(err error) {
	w.errOnce.Do(func() {
		w.mu.Lock()
		w.runErr = err
		w.mu.Unlock()
	})
}

// heartbeat keeps the link alive while no emissions flow.
func (w *Worker) heartbeat() {
	t := time.NewTicker(w.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
			_ = w.send(kindHeartbeat, nil)
		}
	}
}

// send writes one frame under the write lock.
func (w *Worker) send(kind byte, body []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	buf, err := wire.AppendFrame(w.wbuf[:0], kind, body)
	if err != nil {
		return err
	}
	w.wbuf = buf
	_, err = w.conn.Write(buf)
	if err == nil {
		w.bytesSent.Add(uint64(len(buf)))
		w.framesSent.Add(1)
	}
	return err
}

// serve is the link reader: frames are processed strictly in order, which
// is what makes quiesce/close safe — by the time either arrives, every
// event batch sent before it has been fed.
func (w *Worker) serve() {
	defer func() {
		w.closed.Store(true)
		w.cancel()
		_ = w.conn.Close()
		// Abort every shard runtime: state not handed off dies with the
		// link, exactly as the coordinator assumes when it reassigns.
		w.mu.Lock()
		shards := make([]*workerShard, 0, len(w.shards))
		for _, ws := range w.shards {
			shards = append(shards, ws)
		}
		w.shards = map[uint64]*workerShard{}
		w.mu.Unlock()
		for _, ws := range shards {
			ws.gone.Store(true)
			ws.h.Abort()
			ws.h.Wait()
		}
		sctx, scancel := context.WithCancel(context.Background())
		scancel()
		_ = w.rt.Shutdown(sctx)
		close(w.done)
	}()
	var scratch []byte
	for {
		_ = w.conn.SetReadDeadline(time.Now().Add(linkTimeoutFactor * w.opts.Heartbeat))
		kind, body, err := wire.ReadFrame(w.conn, scratch)
		if err != nil {
			if !w.closed.Load() {
				w.fail(&Error{Op: "serve", Addr: w.conn.RemoteAddr().String(), Err: err})
			}
			return
		}
		w.bytesRecv.Add(uint64(wire.FrameOverhead + len(body)))
		w.framesRecv.Add(1)
		scratch = body[:0]
		if err := w.dispatch(kind, body); err != nil {
			w.fail(err)
			_ = w.send(kindError, (&errorMsg{Msg: err.Error()}).encode(nil))
			return
		}
	}
}

func (w *Worker) dispatch(kind byte, body []byte) error {
	switch kind {
	case kindHeartbeat:
		return nil
	case kindTables:
		m, err := decodeTables(body)
		if err != nil {
			return err
		}
		if w.tables == nil {
			w.tables = event.NewTranslation(w.reg)
		}
		w.tables.SetTypes(m.Types)
		w.tables.SetFields(m.Fields)
		return nil
	case kindAssign:
		m, err := decodeAssign(body)
		if err != nil {
			return err
		}
		return w.handleAssign(&m)
	case kindEvents:
		m, err := decodeEvents(body)
		if err != nil {
			return err
		}
		return w.handleEvents(&m)
	case kindPage:
		m, err := decodePage(body)
		if err != nil {
			return err
		}
		return w.handlePage(&m)
	case kindPageRefs:
		m, err := decodePageRefs(body)
		if err != nil {
			return err
		}
		return w.handlePageRefs(&m)
	case kindClose:
		m, err := decodeShardMsg(body)
		if err != nil {
			return err
		}
		w.handleClose(m.Query, m.Shard)
		return nil
	case kindQuiesce:
		m, err := decodeShardMsg(body)
		if err != nil {
			return err
		}
		return w.handleQuiesce(m.Query, m.Shard)
	case kindAbort:
		m, err := decodeShardMsg(body)
		if err != nil {
			return err
		}
		w.handleAbort(m.Query, m.Shard)
		return nil
	case kindError:
		m, err := decodeError(body)
		if err != nil {
			return err
		}
		return &Error{Op: "serve", Err: fmt.Errorf("coordinator error: %s", m.Msg)}
	default:
		return &Error{Op: "serve", Err: fmt.Errorf("unexpected frame kind %d", kind)}
	}
}

// remap translates a batch of link-encoded events into the local registry
// assignment, in place.
func (w *Worker) remap(evs []event.Event) error {
	if w.tables == nil {
		return fmt.Errorf("cluster: events before any tables frame")
	}
	if err := w.tables.Apply(evs); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// handleAssign starts (or resumes, when a snapshot rides along) one shard.
func (w *Worker) handleAssign(m *assignMsg) error {
	key := shardKey(m.Query, m.Shard)
	w.mu.Lock()
	if _, dup := w.shards[key]; dup {
		w.mu.Unlock()
		return fmt.Errorf("cluster: duplicate assignment for query %d shard %d", m.Query, m.Shard)
	}
	if len(w.shards) >= w.opts.Capacity {
		w.mu.Unlock()
		_ = w.send(kindError, (&errorMsg{Msg: fmt.Sprintf("assignment rejected: capacity %d exhausted", w.opts.Capacity)}).encode(nil))
		return fmt.Errorf("cluster: capacity %d exhausted", w.opts.Capacity)
	}
	w.mu.Unlock()

	store := durable.NewMemStore()
	if err := durable.ImportShard(store, w.reg, m.Name, 0, m.Snapshot); err != nil {
		return fmt.Errorf("cluster: import snapshot for %s/%d: %w", m.Name, m.Shard, err)
	}
	q, err := parser.Parse(m.Text, w.reg)
	if err != nil {
		return fmt.Errorf("cluster: parse assigned query %s: %w", m.Name, err)
	}
	// The WAL shard key is q.Name; pin it to the assignment's name so the
	// imported snapshot is the state this submission recovers from.
	q.Name = m.Name
	ws := &workerShard{name: m.Name, store: store, emitBase: m.EmitBase}
	cfg := core.Config{
		Reg:        w.reg,
		Durable:    store,
		PreStamped: true,
		OnAdvance: func(boundary uint64) {
			if ws.gone.Load() {
				return
			}
			pm := progressMsg{Query: m.Query, Shard: m.Shard, Boundary: boundary}
			_ = w.send(kindProgress, pm.encode(nil))
		},
	}
	emit := func(ce event.Complex) {
		if ws.gone.Load() {
			return
		}
		ord := ws.emitBase + ws.delivered
		ws.delivered++
		em := emitMsg{Query: m.Query, Shard: m.Shard, Ordinal: ord, Match: ce}
		_ = w.send(kindEmit, em.encode(nil))
	}
	h, err := w.rt.Submit(q, cfg, nil, 1, emit, nil)
	if err != nil {
		return fmt.Errorf("cluster: submit %s/%d: %w", m.Name, m.Shard, err)
	}
	ws.h = h
	if err := w.rt.Recover(w.ctx); err != nil {
		h.Abort()
		h.Wait()
		return fmt.Errorf("cluster: recover %s/%d: %w", m.Name, m.Shard, err)
	}
	resume := uint64(0)
	if rec := h.Recovered(); len(rec) > 0 {
		resume = rec[0]
	}
	w.mu.Lock()
	w.shards[key] = ws
	w.mu.Unlock()
	w.opts.Logf("cluster: worker %d assigned %s shard %d (resume %d, emit base %d)", w.id, m.Name, m.Shard, resume, m.EmitBase)
	return w.send(kindReady, (&readyMsg{Query: m.Query, Shard: m.Shard, Resume: resume}).encode(nil))
}

func (w *Worker) lookup(query, shard uint32) *workerShard {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shards[shardKey(query, shard)]
}

func (w *Worker) drop(query, shard uint32) {
	w.mu.Lock()
	delete(w.shards, shardKey(query, shard))
	w.mu.Unlock()
}

// handleEvents remaps and feeds one batch.
func (w *Worker) handleEvents(m *eventsMsg) error {
	if err := w.remap(m.Events); err != nil {
		return err
	}
	return w.feed(m.Query, m.Shard, m.Events)
}

// feed hands a remapped batch to its shard. Feeding blocks when the
// shard's intake queue is full — the link reader stalling is exactly the
// backpressure the coordinator's TCP window propagates to its batcher.
func (w *Worker) feed(query, shard uint32, evs []event.Event) error {
	ws := w.lookup(query, shard)
	if ws == nil {
		// A batch can race a completed handoff; the new owner replays it.
		return nil
	}
	if err := ws.h.FeedBatch(w.ctx, evs); err != nil {
		if w.ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("cluster: feed %s/%d: %w", ws.name, shard, err)
	}
	return nil
}

// handlePage stores one shared event page: remapped into the local
// registry once, then referenced by refsLeft kindPageRefs frames and
// freed when the last one lands.
func (w *Worker) handlePage(m *pageMsg) error {
	if err := w.remap(m.Events); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.pages[m.PageID]; dup {
		return fmt.Errorf("cluster: duplicate page %d", m.PageID)
	}
	if m.Refs == 0 {
		return nil // degenerate but harmless: nothing will reference it
	}
	w.pages[m.PageID] = &workerPage{events: m.Events, refsLeft: m.Refs}
	return nil
}

// handlePageRefs resolves one consumer's view of a page into a plain
// event batch and feeds it like any kindEvents frame. Reference frames
// beyond the page's announced count, or indexes past its length, are
// protocol errors.
func (w *Worker) handlePageRefs(m *pageRefsMsg) error {
	if len(m.Idx) != len(m.Seqs) {
		return fmt.Errorf("cluster: page %d refs: %d indexes, %d seqs", m.PageID, len(m.Idx), len(m.Seqs))
	}
	w.mu.Lock()
	pg := w.pages[m.PageID]
	if pg == nil {
		w.mu.Unlock()
		return fmt.Errorf("cluster: refs for unknown page %d", m.PageID)
	}
	evs := make([]event.Event, len(m.Idx))
	for i, idx := range m.Idx {
		if int(idx) >= len(pg.events) {
			w.mu.Unlock()
			return fmt.Errorf("cluster: page %d index %d past length %d", m.PageID, idx, len(pg.events))
		}
		evs[i] = pg.events[idx]
		evs[i].Seq = m.Seqs[i]
	}
	if pg.used > 0 {
		// Every referencing shard after the first received these events
		// without a second wire copy.
		w.eventsDeduped.Add(uint64(len(m.Idx)))
	}
	pg.used++
	pg.refsLeft--
	if pg.refsLeft == 0 {
		delete(w.pages, m.PageID)
	}
	w.mu.Unlock()
	return w.feed(m.Query, m.Shard, evs)
}

// handleClose ends the shard's stream; the drain completes in the
// background and reports kindDrained after the final emission flushed.
func (w *Worker) handleClose(query, shard uint32) {
	ws := w.lookup(query, shard)
	if ws == nil {
		return
	}
	ws.h.Close()
	go func() {
		ws.h.Wait()
		// Wait returns only after the shard's persister drained, so every
		// emit frame is already written: drained is ordered last.
		_ = w.send(kindDrained, (&shardMsg{Query: query, Shard: shard}).encode(nil))
		w.drop(query, shard)
	}()
}

// handleQuiesce parks the shard, exports its WAL and ships the handoff.
// Blocking the reader here is deliberate: the coordinator stopped sending
// for this shard before quiescing, and a handoff must not interleave with
// anything this worker still had in flight.
func (w *Worker) handleQuiesce(query, shard uint32) error {
	ws := w.lookup(query, shard)
	if ws == nil {
		return nil
	}
	ws.h.Park()
	ws.h.Wait()
	ws.gone.Store(true)
	blob, err := durable.ExportShard(ws.store, w.reg, ws.name, 0)
	if err != nil {
		return fmt.Errorf("cluster: export %s/%d: %w", ws.name, shard, err)
	}
	watermark := ws.emitBase + ws.delivered
	w.drop(query, shard)
	w.opts.Logf("cluster: worker %d handing off %s shard %d (watermark %d, %d bytes)", w.id, ws.name, shard, watermark, len(blob))
	hm := handoffMsg{Query: query, Shard: shard, Watermark: watermark, Snapshot: blob}
	return w.send(kindHandoff, hm.encode(nil))
}

func (w *Worker) handleAbort(query, shard uint32) {
	ws := w.lookup(query, shard)
	if ws == nil {
		return
	}
	ws.gone.Store(true)
	ws.h.Abort()
	go func() {
		ws.h.Wait()
		w.drop(query, shard)
	}()
}
