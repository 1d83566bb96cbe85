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
// shard runs as a plain single-shard core runtime journaled upstream
// (core.Upstream): it starts from the cut its assign frame carries, and
// its emissions and cuts leave through the link's queued writer.
// The worker keeps no state the coordinator cannot rebuild: losing it
// loses nothing.
type Worker struct {
	link
	reg  *event.Registry
	rt   *core.Runtime
	opts WorkerOptions
	id   uint32

	ctx    context.Context
	cancel context.CancelFunc

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
	written chan struct{} // closed when the link writer exits
	done    chan struct{}
	runErr  error
	errOnce sync.Once

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
	name string
	h    *core.Handle
	// ordinal is the global ordinal of the next match (starting at the
	// assignment cut's watermark) and buf the frame encode scratch; both
	// belong to the shard's splitter.
	ordinal uint64
	buf     []byte

	// mu orders the shard's frames against its abort: once gone is set,
	// no frame of this assignment reaches the link, so every one it sent
	// precedes the ready frame of a later assignment of the same shard.
	mu   sync.Mutex
	gone bool
}

// send enqueues one frame of the shard unless it was aborted.
func (ws *workerShard) send(l *link, kind byte, body []byte) {
	ws.mu.Lock()
	if !ws.gone {
		l.enqueue(kind, body)
	}
	ws.mu.Unlock()
}

// stop makes the shard's later frames vanish.
func (ws *workerShard) stop() {
	ws.mu.Lock()
	ws.gone = true
	ws.mu.Unlock()
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
		reg:     reg,
		rt:      core.NewRuntime(core.RuntimeConfig{}),
		opts:    opts,
		id:      id,
		ctx:     wctx,
		cancel:  cancel,
		shards:  make(map[uint64]*workerShard),
		pages:   make(map[uint64]*workerPage),
		written: make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.init(conn)
	go func() {
		defer close(w.written)
		w.writeLoop()
	}()
	go w.heartbeat(opts.Heartbeat)
	go w.serve()
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
// aborted, and Wait unblocks. Used both for graceful shutdown and as the
// crash injection point in tests: the coordinator reassigns every shard
// from its latest cut, exactly as after a process kill.
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

// serve is the link reader: frames are processed strictly in order, which
// is what makes close and abort safe — by the time either arrives, every
// event batch sent before it has been fed.
func (w *Worker) serve() {
	defer func() {
		w.closed.Store(true)
		w.cancel()
		// Abort every shard runtime: the coordinator reassigns them from
		// their latest cuts.
		w.mu.Lock()
		shards := w.shards
		w.shards = map[uint64]*workerShard{}
		w.mu.Unlock()
		for _, ws := range shards {
			ws.stop()
			ws.h.Abort()
		}
		sctx, scancel := context.WithCancel(context.Background())
		scancel()
		_ = w.rt.Shutdown(sctx)
		// Flush what is queued (an error frame last), briefly: the peer
		// may be gone.
		_ = w.conn.SetWriteDeadline(time.Now().Add(time.Second))
		w.closeQueue()
		<-w.written
		_ = w.conn.Close()
		close(w.done)
	}()
	var scratch []byte
	for {
		kind, body, err := w.read(linkTimeoutFactor*w.opts.Heartbeat, scratch)
		if err != nil {
			if !w.closed.Load() {
				w.fail(&Error{Op: "serve", Addr: w.conn.RemoteAddr().String(), Err: err})
			}
			return
		}
		scratch = body[:0]
		if err := w.dispatch(kind, body); err != nil {
			w.fail(err)
			w.enqueue(kindError, (&errorMsg{Msg: err.Error()}).encode(nil))
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

// handleAssign starts one shard from the assignment's cut and reports
// ready: the frames of this assignment follow the ready frame.
func (w *Worker) handleAssign(m *assignMsg) error {
	key := shardKey(m.Query, m.Shard)
	w.mu.Lock()
	_, dup := w.shards[key]
	full := len(w.shards) >= w.opts.Capacity
	w.mu.Unlock()
	if dup {
		return fmt.Errorf("cluster: duplicate assignment for query %d shard %d", m.Query, m.Shard)
	}
	if full {
		return fmt.Errorf("cluster: assignment rejected: capacity %d exhausted", w.opts.Capacity)
	}
	q, err := parser.Parse(m.Text, w.reg)
	if err != nil {
		return fmt.Errorf("cluster: parse assigned query %s: %w", m.Name, err)
	}
	// Matches carry the submission's name, whatever the text calls it.
	q.Name = m.Name
	ws := &workerShard{name: m.Name, ordinal: m.Cut.Watermark}
	cfg := core.Config{
		Reg: w.reg,
		Upstream: &core.Upstream{
			From: &m.Cut,
			OnCut: func(cut *durable.CutRecord) {
				pm := progressMsg{Query: m.Query, Shard: m.Shard, Cut: *cut}
				ws.buf = pm.encode(ws.buf[:0])
				ws.send(&w.link, kindProgress, ws.buf)
			},
		},
	}
	emit := func(ce event.Complex) {
		em := emitMsg{Query: m.Query, Shard: m.Shard, Ordinal: ws.ordinal, Match: ce}
		ws.ordinal++
		ws.buf = em.encode(ws.buf[:0])
		ws.send(&w.link, kindEmit, ws.buf)
	}
	h, err := w.rt.Submit(q, cfg, nil, 1, emit, nil)
	if err != nil {
		return fmt.Errorf("cluster: submit %s/%d: %w", m.Name, m.Shard, err)
	}
	ws.h = h
	w.mu.Lock()
	w.shards[key] = ws
	w.mu.Unlock()
	w.opts.Logf("cluster: worker %d assigned %s shard %d (cut at %d, emit base %d)", w.id, m.Name, m.Shard, m.Cut.Boundary, m.Cut.Watermark)
	w.enqueue(kindReady, (&shardMsg{Query: m.Query, Shard: m.Shard}).encode(nil))
	return nil
}

func (w *Worker) lookup(query, shard uint32) *workerShard {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shards[shardKey(query, shard)]
}

// handleEvents remaps and feeds one batch.
func (w *Worker) handleEvents(m *eventsMsg) error {
	if err := w.remap(m.Events); err != nil {
		return err
	}
	return w.feed(m.Query, m.Shard, m.Events)
}

// feed hands a remapped batch to its shard. Feeding blocks when the
// shard's unread tail is full — the link reader stalling is exactly the
// backpressure the coordinator's TCP window propagates to its batcher.
func (w *Worker) feed(query, shard uint32, evs []event.Event) error {
	ws := w.lookup(query, shard)
	if ws == nil {
		// A batch can race an abort; the shard's next owner replays it.
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
// background and reports kindDrained after the final emission.
func (w *Worker) handleClose(query, shard uint32) {
	ws := w.lookup(query, shard)
	if ws == nil {
		return
	}
	ws.h.Close()
	go func() {
		ws.h.Wait()
		// Emissions leave on the splitter, which has finished: drained is
		// queued after every emit frame.
		ws.send(&w.link, kindDrained, (&shardMsg{Query: query, Shard: shard}).encode(nil))
		w.mu.Lock()
		if key := shardKey(query, shard); w.shards[key] == ws {
			delete(w.shards, key)
		}
		w.mu.Unlock()
	}()
}

// handleAbort discards the shard at once. It leaves the table before its
// drain completes: a later assignment of the same shard, next in frame
// order, must find the slot free.
func (w *Worker) handleAbort(query, shard uint32) {
	key := shardKey(query, shard)
	w.mu.Lock()
	ws := w.shards[key]
	delete(w.shards, key)
	w.mu.Unlock()
	if ws == nil {
		return
	}
	ws.stop()
	ws.h.Abort()
	go ws.h.Wait() // the runtime forgets the handle once it drained
}
