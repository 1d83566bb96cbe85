package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spectrecep/spectre/internal/wire"
)

// link is one end of a coordinator↔worker connection: an unbounded
// outbound frame queue drained by a writer goroutine, and the transport
// counters. Both ends send through it, so no caller — the coordinator's
// feed path, a worker shard's splitter — ever waits on a socket write.
type link struct {
	conn net.Conn

	// Outbound frame queue (qmu): encoded frames in send order.
	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []*[]byte
	spare   []*[]byte // the writer's drained batch, reused as the next queue
	qclosed bool
	qdone   chan struct{} // closed with the queue; stops the heartbeat loop

	bytesSent  atomic.Uint64
	bytesRecv  atomic.Uint64
	framesSent atomic.Uint64
	framesRecv atomic.Uint64
}

func (l *link) init(conn net.Conn) {
	l.conn = conn
	l.qcond = sync.NewCond(&l.qmu)
	l.qdone = make(chan struct{})
}

// framePool recycles encoded outbound frame buffers: enqueue draws from
// it, writeLoop returns each buffer after the connection write. It holds
// pointers, so a round trip through it allocates nothing.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// enqueue stages one encoded frame on the link's outbound queue. The
// body is copied into a pooled frame buffer immediately, so callers may
// reuse their encode scratch.
func (l *link) enqueue(kind byte, body []byte) {
	frame := framePool.Get().(*[]byte)
	var err error
	if *frame, err = wire.AppendFrame((*frame)[:0], kind, body); err != nil {
		framePool.Put(frame)
		return
	}
	l.qmu.Lock()
	if !l.qclosed {
		l.queue = append(l.queue, frame)
		l.qcond.Signal()
	}
	l.qmu.Unlock()
}

// closeQueue stops accepting frames; writeLoop still writes the ones
// already queued.
func (l *link) closeQueue() {
	l.qmu.Lock()
	if !l.qclosed {
		l.qclosed = true
		close(l.qdone)
	}
	l.qcond.Signal()
	l.qmu.Unlock()
}

// writeLoop drains the outbound queue onto the connection until the
// queue is closed and empty, or a write fails.
func (l *link) writeLoop() {
	for {
		l.qmu.Lock()
		for len(l.queue) == 0 && !l.qclosed {
			l.qcond.Wait()
		}
		if l.qclosed && len(l.queue) == 0 {
			l.qmu.Unlock()
			return
		}
		batch := l.queue
		l.queue = l.spare[:0]
		l.qmu.Unlock()
		for _, frame := range batch {
			if _, err := l.conn.Write(*frame); err != nil {
				// The read side observes the broken link and runs the
				// teardown; here we only stop draining.
				l.closeQueue()
				return
			}
			l.bytesSent.Add(uint64(len(*frame)))
			l.framesSent.Add(1)
			framePool.Put(frame)
		}
		clear(batch)
		l.spare = batch
	}
}

// heartbeat keeps the link alive while no data flows, until the queue
// closes.
func (l *link) heartbeat(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.qdone:
			return
		case <-t.C:
			l.enqueue(kindHeartbeat, nil)
		}
	}
}

// read reads one frame under the link's liveness deadline and counts it.
func (l *link) read(timeout time.Duration, scratch []byte) (byte, []byte, error) {
	_ = l.conn.SetReadDeadline(time.Now().Add(timeout))
	kind, body, err := wire.ReadFrame(l.conn, scratch)
	if err == nil {
		l.bytesRecv.Add(uint64(wire.FrameOverhead + len(body)))
		l.framesRecv.Add(1)
	}
	return kind, body, err
}
