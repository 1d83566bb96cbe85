package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/parser"
	"github.com/spectrecep/spectre/internal/plan"
	"github.com/spectrecep/spectre/internal/wire"
)

// Options parameterizes a Coordinator.
type Options struct {
	// MinWorkers makes Submit block until at least this many workers have
	// joined (default 1).
	MinWorkers int
	// DisablePushdown turns off coordinator-side plan pushdown: every
	// routed event ships to its shard owner even when the query's intake
	// prefilter proves it irrelevant.
	DisablePushdown bool
	// FlushInterval bounds how long a partial batch may sit staged before
	// it is shipped anyway (default 2ms).
	FlushInterval time.Duration
	// Heartbeat is the idle keepalive interval on worker links (default
	// 2s); a link that stays silent for ten intervals (linkTimeoutFactor)
	// is declared dead and its shards are rebalanced.
	Heartbeat time.Duration
	// Logf receives coordinator lifecycle logs (default: discard).
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.MinWorkers <= 0 {
		o.MinWorkers = 1
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 2 * time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Coordinator accepts worker links, owns the shard placement table of
// every submitted query, pumps routed events to shard owners and merges
// the returned emission streams into sequential-equivalent order
// (DESIGN.md §12).
//
// One mutex guards all placement and merge state. Frame writes never
// happen under it: each link has an unbounded outbound queue drained by a
// writer goroutine, so a stalled worker can never deadlock the feed path
// against the emission readers (the queue's memory is bounded by the
// retained-event buffers, which the coordinator keeps anyway for
// replay-on-reassignment).
type Coordinator struct {
	reg  *event.Registry
	opts Options
	ln   net.Listener

	mu         sync.Mutex
	workers    map[uint32]*workerLink
	queries    map[uint32]*queryState
	nextWorker uint32
	nextQuery  uint32
	closed     bool
	membership chan struct{} // closed+replaced on every join/leave
	// encBuf is the shared frame-body encode scratch (c.mu): enqueue
	// copies the body into a pooled frame buffer synchronously, so one
	// scratch serves every pump.
	encBuf []byte

	wg sync.WaitGroup
}

// workerLink is one joined worker connection.
type workerLink struct {
	id       uint32
	name     string
	capacity int
	conn     net.Conn

	// Outbound frame queue (qmu): encoded frames in send order.
	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   [][]byte
	qclosed bool
	qdone   chan struct{} // closed with the queue; wakes the heartbeat loop

	// Coordinator-mutex guarded placement state.
	load                  int
	gone                  bool
	typesSent, fieldsSent int
	// pageSeq numbers shared-stream pages; stage holds the events and
	// per-shard reference lists accumulated since the last page flush.
	pageSeq uint64
	stage   *pageStage

	// Transport counters (atomic: writeLoop and readLink update them
	// outside c.mu).
	bytesSent     atomic.Uint64
	bytesRecv     atomic.Uint64
	framesSent    atomic.Uint64
	framesRecv    atomic.Uint64
	eventsSent    atomic.Uint64
	eventsDeduped atomic.Uint64
}

// framePool recycles encoded outbound frame buffers: enqueue draws from
// it, writeLoop returns each buffer after the connection write.
var framePool = sync.Pool{New: func() any { return []byte(nil) }}

// LinkStats is a point-in-time snapshot of one worker link's transport
// counters (Coordinator.Stats).
type LinkStats struct {
	WorkerID      uint32
	Name          string
	Shards        int
	BytesSent     uint64
	BytesRecv     uint64
	FramesSent    uint64
	FramesRecv    uint64
	EventsSent    uint64
	EventsDeduped uint64
}

// Stats snapshots every live worker link's transport counters, ordered
// by worker id.
func (c *Coordinator) Stats() []LinkStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LinkStats, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, LinkStats{
			WorkerID:      w.id,
			Name:          w.name,
			Shards:        w.load,
			BytesSent:     w.bytesSent.Load(),
			BytesRecv:     w.bytesRecv.Load(),
			FramesSent:    w.framesSent.Load(),
			FramesRecv:    w.framesRecv.Load(),
			EventsSent:    w.eventsSent.Load(),
			EventsDeduped: w.eventsDeduped.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WorkerID < out[j].WorkerID })
	return out
}

// queryState is one submitted query's distributed execution.
type queryState struct {
	id      uint32
	name    string
	text    string
	nShards int
	route   func(*event.Event) int
	merge   *orderedMerge
	shards  []*shardRun
	emit    func(event.Complex)
	onDrain func()

	// admit is the plan's intake prefilter when pushdown is on (nil
	// otherwise): events it rejects spend their raw position but are
	// never retained, encoded or shipped.
	admit func(*event.Event) bool
	// proj, when projected, lists the payload field indexes any query
	// predicate can read; only those columns are shipped.
	proj      []int
	projected bool
	// stream, when non-nil, is the shared source this query is fed
	// through (Stream.FeedBatch); direct handle feeds are rejected.
	stream *Stream
	// filtered counts events dropped by pushdown.
	filtered uint64

	closing  bool
	drained  int
	finished bool
	failure  error
	done     chan struct{}
}

// shardRun is the coordinator-side state of one placed shard.
type shardRun struct {
	owner     *workerLink // nil while unassigned
	ready     bool        // assignment acknowledged; the pump may send
	quiescing bool        // quiesce sent, handoff pending
	target    *workerLink // preferred owner once the handoff lands

	// routed counts every event routed to this shard — dropped ones
	// included — so raw substream positions stay dense in the merge's
	// gpos table while retained stays sparse under pushdown.
	routed uint64
	// retained buffers every admitted event from base onward, each
	// stamped with its raw position in Seq; it is the replay source for
	// crash reassignment and is truncated only when a ready frame proves
	// the new owner's WAL journal covers the prefix.
	retained []event.Event
	// base is the raw-position floor of retained: every retained event
	// has Seq ≥ base, and resume positions below it are protocol errors.
	base uint64
	// sent indexes the next unsent retained event.
	sent int
	// gen increments on every assignment and prune; staged shared-stream
	// reference lists are valid only for the generation they were built
	// in.
	gen uint64

	// accepted counts accepted emissions (the ordinal dedupe cursor R[s]).
	accepted uint64
	// snap/snapW hold the latest handed-off WAL snapshot and its emission
	// watermark; reassignments seed from them.
	snap  []byte
	snapW uint64

	closeSent bool
	drained   bool
}

// Submission describes one query to distribute. The caller resolves the
// partition route against the same registry the coordinator encodes
// events with.
type Submission struct {
	Name    string
	Text    string
	NShards int
	Route   func(*event.Event) int
	Emit    func(event.Complex)
	OnDrain func()
	// Stream attaches the query to a shared source (OpenStream): it is
	// then fed exclusively through Stream.FeedBatch, and workers running
	// shards of several attached queries receive each source event once.
	Stream *Stream
}

// Listen starts a coordinator on addr.
func Listen(addr string, reg *event.Registry, opts Options) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, &Error{Op: "listen", Addr: addr, Err: err}
	}
	return NewCoordinator(ln, reg, opts), nil
}

// NewCoordinator starts a coordinator on an existing listener.
func NewCoordinator(ln net.Listener, reg *event.Registry, opts Options) *Coordinator {
	opts.setDefaults()
	c := &Coordinator{
		reg:        reg,
		opts:       opts,
		ln:         ln,
		workers:    make(map[uint32]*workerLink),
		queries:    make(map[uint32]*queryState),
		membership: make(chan struct{}),
	}
	c.wg.Add(2)
	go c.accept()
	go c.flusher()
	return c
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Workers reports how many workers are currently joined.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// WaitWorkers blocks until at least n workers are joined.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		have := len(c.workers)
		ch := c.membership
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// signalMembership wakes WaitWorkers waiters (c.mu held).
func (c *Coordinator) signalMembership() {
	close(c.membership)
	c.membership = make(chan struct{})
}

// Close stops accepting, drops every worker link and fails every
// unfinished query with ErrClosed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	links := make([]*workerLink, 0, len(c.workers))
	for _, w := range c.workers {
		links = append(links, w)
	}
	queries := make([]*queryState, 0, len(c.queries))
	for _, q := range c.queries {
		queries = append(queries, q)
	}
	c.queries = map[uint32]*queryState{}
	c.signalMembership()
	c.mu.Unlock()

	err := c.ln.Close()
	for _, w := range links {
		w.closeQueue()
		_ = w.conn.Close()
	}
	c.mu.Lock()
	for _, q := range queries {
		if !q.finished {
			q.finished = true
			q.failure = ErrClosed
			close(q.done)
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
	return err
}

// --- worker links -------------------------------------------------------

func (c *Coordinator) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handshake(conn)
		}()
	}
}

// handshake validates one joining worker and registers its link.
func (c *Coordinator) handshake(conn net.Conn) {
	deadline := time.Now().Add(10 * time.Second)
	_ = conn.SetDeadline(deadline)
	kind, body, err := wire.ReadFrame(conn, nil)
	if err != nil || kind != kindHello {
		_ = conn.Close()
		return
	}
	hello, err := decodeHello(body)
	if err != nil {
		_ = conn.Close()
		return
	}
	if hello.Proto != protoVersion {
		msg := errorMsg{Msg: fmt.Sprintf("protocol mismatch: coordinator speaks v%d, worker v%d", protoVersion, hello.Proto)}
		_ = writeFrame(conn, kindError, msg.encode(nil))
		_ = conn.Close()
		return
	}
	w := &workerLink{
		name:     hello.Name,
		capacity: int(hello.Capacity),
		conn:     conn,
	}
	if w.capacity <= 0 {
		w.capacity = 1
	}
	if w.name == "" {
		w.name = conn.RemoteAddr().String()
	}
	w.qcond = sync.NewCond(&w.qmu)
	w.qdone = make(chan struct{})

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return
	}
	c.nextWorker++
	w.id = c.nextWorker
	c.workers[w.id] = w
	c.mu.Unlock()

	welcome := welcomeMsg{Proto: protoVersion, WorkerID: w.id}
	if err := writeFrame(conn, kindWelcome, welcome.encode(nil)); err != nil {
		c.mu.Lock()
		delete(c.workers, w.id)
		c.mu.Unlock()
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	c.opts.Logf("cluster: worker %d (%s) joined, capacity %d", w.id, w.name, w.capacity)

	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		w.writeLoop()
	}()
	go func() {
		defer c.wg.Done()
		c.heartbeatLink(w)
	}()

	c.mu.Lock()
	c.placePending()
	c.rebalance(w)
	c.signalMembership()
	c.mu.Unlock()

	c.readLink(w)
}

// enqueue stages one encoded frame on the link's outbound queue. The
// body is copied into a pooled frame buffer immediately, so callers may
// reuse their encode scratch.
func (w *workerLink) enqueue(kind byte, body []byte) {
	buf, _ := framePool.Get().([]byte)
	frame, err := wire.AppendFrame(buf[:0], kind, body)
	if err != nil {
		framePool.Put(frame) //nolint:staticcheck // same backing array
		return
	}
	w.qmu.Lock()
	if !w.qclosed {
		w.queue = append(w.queue, frame)
		w.qcond.Signal()
	}
	w.qmu.Unlock()
}

func (w *workerLink) closeQueue() {
	w.qmu.Lock()
	if !w.qclosed {
		w.qclosed = true
		close(w.qdone)
	}
	w.qcond.Signal()
	w.qmu.Unlock()
}

// writeLoop drains the outbound queue onto the connection.
func (w *workerLink) writeLoop() {
	for {
		w.qmu.Lock()
		for len(w.queue) == 0 && !w.qclosed {
			w.qcond.Wait()
		}
		if w.qclosed && len(w.queue) == 0 {
			w.qmu.Unlock()
			return
		}
		batch := w.queue
		w.queue = nil
		w.qmu.Unlock()
		for _, frame := range batch {
			if _, err := w.conn.Write(frame); err != nil {
				// The read side observes the broken link and runs the
				// teardown; here we only stop draining.
				w.closeQueue()
				return
			}
			w.bytesSent.Add(uint64(len(frame)))
			w.framesSent.Add(1)
			framePool.Put(frame) //nolint:staticcheck // recycled via Get
		}
	}
}

// heartbeatLink keeps the link alive while no data flows.
func (c *Coordinator) heartbeatLink(w *workerLink) {
	t := time.NewTicker(c.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.qdone:
			return
		case <-t.C:
			w.enqueue(kindHeartbeat, nil)
		}
	}
}

// readLink is the per-link reader; any error tears the worker down and
// reassigns its shards.
func (c *Coordinator) readLink(w *workerLink) {
	var scratch []byte
	for {
		_ = w.conn.SetReadDeadline(time.Now().Add(linkTimeoutFactor * c.opts.Heartbeat))
		kind, body, err := wire.ReadFrame(w.conn, scratch)
		if err != nil {
			c.workerLost(w, err)
			return
		}
		w.bytesRecv.Add(uint64(wire.FrameOverhead + len(body)))
		w.framesRecv.Add(1)
		scratch = body[:0]
		if err := c.dispatch(w, kind, body); err != nil {
			c.opts.Logf("cluster: worker %d (%s): %v", w.id, w.name, err)
			c.workerLost(w, err)
			return
		}
	}
}

func (c *Coordinator) dispatch(w *workerLink, kind byte, body []byte) error {
	switch kind {
	case kindHeartbeat:
		return nil
	case kindReady:
		m, err := decodeReady(body)
		if err != nil {
			return err
		}
		return c.handleReady(w, &m)
	case kindEmit:
		m, err := decodeEmit(body)
		if err != nil {
			return err
		}
		return c.handleEmit(w, &m)
	case kindProgress:
		m, err := decodeProgress(body)
		if err != nil {
			return err
		}
		c.handleProgress(w, &m)
		return nil
	case kindHandoff:
		m, err := decodeHandoff(body)
		if err != nil {
			return err
		}
		c.handleHandoff(w, &m)
		return nil
	case kindDrained:
		m, err := decodeShardMsg(body)
		if err != nil {
			return err
		}
		c.handleDrained(w, &m)
		return nil
	case kindError:
		m, err := decodeError(body)
		if err != nil {
			return err
		}
		return fmt.Errorf("worker reported: %s", m.Msg)
	default:
		return fmt.Errorf("unexpected frame kind %d", kind)
	}
}

// workerLost removes a dead link and reassigns everything it owned.
func (c *Coordinator) workerLost(w *workerLink, cause error) {
	w.closeQueue()
	_ = w.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.gone {
		return
	}
	w.gone = true
	delete(c.workers, w.id)
	if !c.closed {
		c.opts.Logf("cluster: worker %d (%s) lost: %v", w.id, w.name, cause)
	}
	for _, q := range c.queries {
		for idx, s := range q.shards {
			if s.target == w {
				s.target = nil // the reservation died with the worker
			}
			if s.owner != w || s.drained {
				continue
			}
			s.owner = nil
			s.ready = false
			s.closeSent = false
			if s.quiescing {
				// The handoff will never arrive; release the migration
				// reservation and fall back to the crash path (stored
				// snapshot + retained replay).
				s.quiescing = false
				if s.target != nil {
					s.target.load--
					s.target = nil
				}
			}
			if next := c.pickWorkerFor(q); next != nil {
				c.assignShard(q, idx, next)
			}
		}
	}
	c.signalMembership()
}

// --- placement ----------------------------------------------------------

// pickWorkerFor returns the best live worker with spare capacity for a
// shard of q, preferring — for shared-stream queries — the worker that
// already owns the most shards of the stream's other queries (so pages
// dedup across them), then least load, then lowest id. A nil q picks by
// load alone (c.mu held).
func (c *Coordinator) pickWorkerFor(q *queryState) *workerLink {
	shared := map[*workerLink]int{}
	if q != nil && q.stream != nil {
		for _, sq := range q.stream.queries {
			for _, s := range sq.shards {
				if s.owner != nil {
					shared[s.owner]++
				}
			}
		}
	}
	var best *workerLink
	for _, w := range c.workers {
		if w.gone || w.load >= w.capacity {
			continue
		}
		switch {
		case best == nil,
			shared[w] > shared[best],
			shared[w] == shared[best] && w.load < best.load,
			shared[w] == shared[best] && w.load == best.load && w.id < best.id:
			best = w
		}
	}
	return best
}

// placePending assigns every unowned shard (c.mu held).
func (c *Coordinator) placePending() {
	for _, q := range c.queries {
		for idx, s := range q.shards {
			if s.owner != nil || s.drained || s.quiescing {
				continue
			}
			next := c.pickWorkerFor(q)
			if next == nil {
				continue
			}
			c.assignShard(q, idx, next)
		}
	}
}

// rebalance migrates shards toward a newly joined worker until no worker
// runs more than one shard above another (c.mu held). Migration is a
// graceful handoff: quiesce on the old owner, WAL snapshot in flight,
// resume on the target.
func (c *Coordinator) rebalance(target *workerLink) {
	for _, q := range c.queries {
		for {
			if target.load >= target.capacity {
				return
			}
			var max *workerLink
			var maxIdx int
			// Count per-query ownership — balance each query's shards, not
			// just the global load, so one query's pipeline parallelism
			// actually grows when the fleet does. In-flight migrations
			// count toward their target, or the same imbalance would be
			// seen again and every shard would migrate.
			owned := make(map[*workerLink]int)
			for _, s := range q.shards {
				switch {
				case s.quiescing && s.target != nil:
					owned[s.target]++
				case s.owner != nil:
					owned[s.owner]++
				}
			}
			for idx, s := range q.shards {
				if s.owner == nil || s.owner == target || !s.ready ||
					s.quiescing || s.drained || s.closeSent {
					continue
				}
				if owned[s.owner] > owned[target]+1 {
					if max == nil || owned[s.owner] > owned[max] {
						max, maxIdx = s.owner, idx
					}
				}
			}
			if max == nil {
				break
			}
			s := q.shards[maxIdx]
			s.quiescing = true
			s.target = target
			target.load++ // reserve the slot so placement stays stable
			c.opts.Logf("cluster: migrating %s shard %d: worker %d -> %d", q.name, maxIdx, max.id, target.id)
			max.enqueue(kindQuiesce, (&shardMsg{Query: q.id, Shard: uint32(maxIdx)}).encode(nil))
		}
	}
}

// ensureTables re-announces the registry name tables to a link when they
// grew past what it has seen (c.mu held; ordered before the frames that
// need them by the link queue's FIFO).
func (c *Coordinator) ensureTables(w *workerLink) {
	if c.reg.NumTypes() <= w.typesSent && c.reg.NumFields() <= w.fieldsSent {
		return
	}
	m := tablesMsg{Types: c.reg.TypeNames(), Fields: c.reg.FieldNames()}
	w.enqueue(kindTables, m.encode(nil))
	w.typesSent, w.fieldsSent = len(m.Types), len(m.Fields)
}

// assignShard hands shard idx of q to w (c.mu held). The snapshot rides
// along; emissions of the new life start at the snapshot watermark.
func (c *Coordinator) assignShard(q *queryState, idx int, w *workerLink) {
	s := q.shards[idx]
	s.owner = w
	s.ready = false
	s.closeSent = false
	s.gen++
	if s.target == w {
		s.target = nil
	} else {
		w.load++
	}
	c.ensureTables(w)
	m := assignMsg{
		Query:    q.id,
		Shard:    uint32(idx),
		NShards:  uint32(q.nShards),
		EmitBase: s.snapW,
		Name:     q.name,
		Text:     q.text,
		Snapshot: s.snap,
	}
	w.enqueue(kindAssign, m.encode(nil))
}

// pump ships retained events to the shard's owner: full batches always,
// the partial tail only when force is set (flusher tick, close, ready
// catch-up), in the compact columnar frame — delta sequence numbers
// (sparse under pushdown) and projected fields. Must run with c.mu held.
func (c *Coordinator) pump(q *queryState, idx int, force bool) {
	s := q.shards[idx]
	if s.owner == nil || !s.ready || s.quiescing || s.drained {
		return
	}
	w := s.owner
	for {
		avail := len(s.retained) - s.sent
		if avail == 0 || (!force && avail < wire.PageEvents) {
			break
		}
		n := min(avail, wire.PageEvents)
		evs := s.retained[s.sent : s.sent+n]
		c.ensureTables(w)
		m := eventsMsg{Query: q.id, Shard: uint32(idx), Events: evs}
		if q.projected {
			m.Proj = q.proj
		}
		c.encBuf = m.encode(c.encBuf[:0])
		w.enqueue(kindEvents, c.encBuf)
		w.eventsSent.Add(uint64(n))
		s.sent += n
	}
	if q.closing && !s.closeSent && s.sent == len(s.retained) {
		w.enqueue(kindClose, (&shardMsg{Query: q.id, Shard: uint32(idx)}).encode(nil))
		s.closeSent = true
	}
}

// flusher periodically flushes staged shared-stream pages and
// force-pumps partial batches so a trickling stream still makes progress.
func (c *Coordinator) flusher() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.FlushInterval)
	defer t.Stop()
	for range t.C {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		for _, w := range c.workers {
			c.flushStage(w)
		}
		for _, q := range c.queries {
			for idx := range q.shards {
				c.pump(q, idx, true)
			}
		}
		c.mu.Unlock()
	}
}

// --- worker frame handlers ----------------------------------------------

// lookupShard resolves a worker frame to its shard, returning nil when the
// frame is stale (query finished, shard reassigned).
func (c *Coordinator) lookupShard(w *workerLink, query, shard uint32) (*queryState, *shardRun) {
	q := c.queries[query]
	if q == nil || int(shard) >= len(q.shards) {
		return nil, nil
	}
	s := q.shards[shard]
	if s.owner != w {
		return nil, nil
	}
	return q, s
}

// handleReady records a recovered shard and catches its owner up. The
// reported resume position proves the owner's WAL journal covers every
// earlier event, so the retained prefix below it is dropped. Resume is a
// raw substream position: under pushdown it may fall in a gap of dropped
// events, so the prune finds the first retained event at or past it.
func (c *Coordinator) handleReady(w *workerLink, m *readyMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, s := c.lookupShard(w, m.Query, m.Shard)
	if q == nil {
		return nil
	}
	if m.Resume < s.base || m.Resume > s.routed {
		return fmt.Errorf("shard %s/%d: resume %d outside retained [%d, %d]", q.name, m.Shard, m.Resume, s.base, s.routed)
	}
	drop := sort.Search(len(s.retained), func(i int) bool { return s.retained[i].Seq >= m.Resume })
	if drop > 0 {
		s.retained = append([]event.Event(nil), s.retained[drop:]...)
	}
	s.base = m.Resume
	s.sent = 0
	s.gen++
	s.ready = true
	c.pump(q, int(m.Shard), q.closing)
	// A shard that was not ready at the last membership change was not a
	// migration candidate then; retry toward the least-loaded worker now.
	if next := c.pickWorkerFor(nil); next != nil {
		c.rebalance(next)
	}
	return nil
}

// handleEmit accepts one match. The ordinal is the global per-shard
// emission number; anything below the accept cursor is a deterministic
// replay duplicate and is dropped, anything above is a protocol gap.
func (c *Coordinator) handleEmit(w *workerLink, m *emitMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, s := c.lookupShard(w, m.Query, m.Shard)
	if q == nil {
		return nil
	}
	if m.Ordinal < s.accepted {
		return nil // replay duplicate; identical by §4.2 determinism
	}
	if m.Ordinal > s.accepted {
		return fmt.Errorf("shard %s/%d: emission ordinal %d skips cursor %d", q.name, m.Shard, m.Ordinal, s.accepted)
	}
	if !q.merge.emit(int(m.Shard), m.Match) {
		return fmt.Errorf("shard %s/%d: match detected at %d beyond routed events", q.name, m.Shard, m.Match.DetectedAt)
	}
	s.accepted++
	q.merge.release()
	return nil
}

// handleProgress advances the shard's root-window bound in the merge.
func (c *Coordinator) handleProgress(w *workerLink, m *progressMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, _ := c.lookupShard(w, m.Query, m.Shard)
	if q == nil {
		return
	}
	q.merge.progress(int(m.Shard), m.Boundary)
	q.merge.release()
}

// handleHandoff installs the parked shard's WAL snapshot and re-places it.
func (c *Coordinator) handleHandoff(w *workerLink, m *handoffMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, s := c.lookupShard(w, m.Query, m.Shard)
	if q == nil {
		return
	}
	s.snap = m.Snapshot
	s.snapW = m.Watermark
	if m.Watermark != s.accepted {
		// Frames are FIFO per link, so a graceful handoff watermark always
		// equals the accept cursor; log the impossible, then trust the
		// ordinal dedupe to absorb it.
		c.opts.Logf("cluster: handoff watermark %d != accepted %d for %s/%d", m.Watermark, s.accepted, q.name, m.Shard)
	}
	w.load--
	s.owner = nil
	s.ready = false
	s.quiescing = false
	next := s.target
	if next != nil && next.gone {
		// The reserved slot died with the worker; fall through to a fresh
		// pick below (workerLost already dropped the dangling target).
		next = nil
		s.target = nil
	}
	if next == nil {
		next = c.pickWorkerFor(q)
		if next == nil {
			return // re-placed when the next worker joins
		}
		next.load++ // consumed by the s.target branch in assignShard
		s.target = next
	}
	c.assignShard(q, int(m.Shard), next)
}

// handleDrained finishes one shard's stream.
func (c *Coordinator) handleDrained(w *workerLink, m *shardMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, s := c.lookupShard(w, m.Query, m.Shard)
	if q == nil || s.drained {
		return
	}
	s.drained = true
	w.load--
	s.owner = nil
	q.merge.drained(int(m.Shard))
	q.merge.release()
	q.drained++
	if q.drained == q.nShards && !q.finished {
		q.finished = true
		delete(c.queries, q.id)
		close(q.done)
		if q.onDrain != nil {
			q.onDrain()
		}
	}
}

// --- submission ---------------------------------------------------------

// Submit distributes one query. It blocks until Options.MinWorkers
// workers are joined (bounded by ctx), then places one shard per
// least-loaded worker. Emissions are delivered on coordinator reader
// goroutines in the deterministic merged order; the Emit callback must
// not call back into the handle synchronously.
func (c *Coordinator) Submit(ctx context.Context, sub Submission) (*QueryHandle, error) {
	if sub.NShards <= 0 || sub.Route == nil && sub.NShards > 1 {
		return nil, fmt.Errorf("cluster: submission needs NShards >= 1 and a route for NShards > 1")
	}
	if sub.Name == "" || sub.Text == "" {
		return nil, fmt.Errorf("cluster: submission needs a query name and text")
	}
	if err := c.WaitWorkers(ctx, c.opts.MinWorkers); err != nil {
		if err == ErrClosed {
			return nil, err
		}
		return nil, &Error{Op: "submit", Err: err}
	}
	// Plan the query text against the shared registry: the same analysis
	// the workers run decides, coordinator-side, which events can be
	// dropped before framing (pushdown) and which payload fields any
	// predicate can read (projection).
	parsed, err := parser.Parse(sub.Text, c.reg)
	if err != nil {
		return nil, fmt.Errorf("cluster: parse %s: %w", sub.Name, err)
	}
	pl := plan.New(parsed, plan.Options{Reg: c.reg})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.nextQuery++
	q := &queryState{
		id:      c.nextQuery,
		name:    sub.Name,
		text:    sub.Text,
		nShards: sub.NShards,
		route:   sub.Route,
		emit:    sub.Emit,
		onDrain: sub.OnDrain,
		stream:  sub.Stream,
		shards:  make([]*shardRun, sub.NShards),
		done:    make(chan struct{}),
	}
	if pl.IntakeActive() && !c.opts.DisablePushdown {
		q.admit = pl.Admit
	}
	q.proj, q.projected = pl.Projection()
	// The decoder's dense reconstruction caps field indexes at
	// maxProjIndex; a plan reading a field beyond it (absurdly wide
	// registry) ships full fields instead.
	for _, f := range q.proj {
		if f >= maxProjIndex {
			q.proj, q.projected = nil, false
			break
		}
	}
	q.merge = newOrderedMerge(sub.NShards, func(m event.Complex) {
		if q.emit != nil {
			q.emit(m)
		}
	})
	for i := range q.shards {
		q.shards[i] = &shardRun{}
	}
	c.queries[q.id] = q
	if sub.Stream != nil {
		sub.Stream.queries = append(sub.Stream.queries, q)
	}
	for i := range q.shards {
		if w := c.pickWorkerFor(q); w != nil {
			c.assignShard(q, i, w)
		}
	}
	return &QueryHandle{c: c, q: q}, nil
}

// QueryHandle is the submitting node's feed/drain interface to one
// distributed query.
type QueryHandle struct {
	c *Coordinator
	q *queryState
}

// Feed routes one event.
func (h *QueryHandle) Feed(ev event.Event) error {
	return h.FeedBatch([]event.Event{ev})
}

// FeedBatch routes a batch of events. Events are retained until a worker
// WAL provably covers them, so feeding never blocks on worker liveness.
func (h *QueryHandle) FeedBatch(evs []event.Event) error {
	c, q := h.c, h.q
	c.mu.Lock()
	defer c.mu.Unlock()
	if q.stream != nil {
		return fmt.Errorf("cluster: query %s is fed through its shared stream", q.name)
	}
	if q.closing || q.finished {
		return ErrClosed
	}
	for i := range evs {
		if _, _, err := c.routeOne(q, &evs[i], false); err != nil {
			return err
		}
	}
	return nil
}

// routeOne routes one event into q (c.mu held): every routed event
// spends a raw substream position (the merge's gpos table must stay
// complete), pushdown then decides whether it is retained at all, and
// survivors are stamped with that raw position in Seq. It returns the
// shard index and the retained index (-1 when dropped). deferPump
// suppresses the eager full-batch pump — the shared-stream feeder stages
// pages instead and flushes on its own cadence.
func (c *Coordinator) routeOne(q *queryState, ev *event.Event, deferPump bool) (int, int, error) {
	idx := 0
	if q.route != nil {
		idx = q.route(ev)
	}
	if idx < 0 || idx >= q.nShards {
		return 0, -1, fmt.Errorf("cluster: route returned shard %d of %d", idx, q.nShards)
	}
	s := q.shards[idx]
	local := q.merge.route(idx)
	if local != s.routed {
		return 0, -1, fmt.Errorf("cluster: shard %d position skew: merge %d, routed %d", idx, local, s.routed)
	}
	s.routed++
	if q.admit != nil && !q.admit(ev) {
		q.filtered++
		return idx, -1, nil
	}
	e := *ev
	e.Seq = local
	s.retained = append(s.retained, e)
	if !deferPump && len(s.retained)-s.sent >= wire.PageEvents {
		c.pump(q, idx, false)
	}
	return idx, len(s.retained) - 1, nil
}

// Close ends the stream: every shard is flushed and closed, and Wait
// unblocks once all of them report drained.
func (h *QueryHandle) Close() {
	c, q := h.c, h.q
	c.mu.Lock()
	defer c.mu.Unlock()
	if q.closing || q.finished {
		return
	}
	q.closing = true
	for idx := range q.shards {
		c.pump(q, idx, true)
	}
}

// Wait blocks until every shard drained (after Close) or the query fails.
func (h *QueryHandle) Wait(ctx context.Context) error {
	select {
	case <-h.q.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.q.failure
}
