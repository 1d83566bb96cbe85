package core

import (
	"context"
	"sync"

	"github.com/spectrecep/spectre/internal/event"
)

// defaultQueueCap bounds the pending backlog of one shard queue. A full
// queue blocks push, so backpressure propagates from a slow shard to
// Handle.Feed and, through it, to whatever drives the stream (for the
// TCP server: the connection's read loop, and thus the client's send
// window; for an Engine: the goroutine pulling its source).
const defaultQueueCap = 1 << 16

// shardQueue is the asynchronous intake of one shard: the routing side
// pushes events or whole batches (blocking while the shard is cap events
// behind, unblocking early when the pusher's context is cancelled), the
// shard's splitter pops them without ever blocking. Closing marks end of
// stream once the backlog drains.
type shardQueue struct {
	mu     sync.Mutex
	space  sync.Cond // signalled when the backlog drops below capacity
	buf    []event.Event
	head   int
	cap    int
	closed bool
}

func newShardQueue(capacity int) *shardQueue {
	if capacity <= 0 {
		capacity = defaultQueueCap
	}
	q := &shardQueue{cap: capacity}
	q.space.L = &q.mu
	return q
}

// waitSpace blocks (mu held) until the queue has room, is closed, or ctx
// is done. It reports the terminal condition as an error; nil means the
// caller may append.
func (q *shardQueue) waitSpace(ctx context.Context) error {
	if q.closed {
		return ErrHandleClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(q.buf)-q.head < q.cap {
		return nil
	}
	// Only a blocked push pays for the cancellation hook: AfterFunc wakes
	// the condition variable so a cancelled producer leaves promptly.
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.space.Broadcast()
		q.mu.Unlock()
	})
	defer stop()
	for !q.closed && len(q.buf)-q.head >= q.cap {
		if err := ctx.Err(); err != nil {
			return err
		}
		q.space.Wait()
	}
	if q.closed {
		return ErrHandleClosed
	}
	return ctx.Err()
}

// push appends ev, blocking while the queue is full. It returns
// ErrHandleClosed when the queue closed, or the context error when ctx
// was done first.
func (q *shardQueue) push(ctx context.Context, ev event.Event) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.waitSpace(ctx); err != nil {
		return err
	}
	q.buf = append(q.buf, ev)
	return nil
}

// pushBatch appends the events of evs that admit keeps, in one critical
// section, blocking until the queue has room for the batch's head. admit
// sees (and may stamp) each event in place in the queue, so the batch is
// never copied twice. The whole batch is admitted at once (the backlog
// may transiently overshoot cap by len(evs)-1 events) — that is the
// point: one lock acquisition and one wakeup per batch instead of per
// event.
func (q *shardQueue) pushBatch(ctx context.Context, evs []event.Event, admit func(*event.Event) bool) error {
	if len(evs) == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.waitSpace(ctx); err != nil {
		return err
	}
	for i := range evs {
		q.buf = append(q.buf, evs[i])
		if !admit(&q.buf[len(q.buf)-1]) {
			q.buf = q.buf[:len(q.buf)-1]
		}
	}
	return nil
}

// load preloads evs ahead of any live input, bypassing the capacity
// check: crash recovery seeds the queue with the persisted journal
// suffix before the shard is attached to the pool, and the replay
// backlog may legitimately exceed the live-intake cap.
func (q *shardQueue) load(evs []event.Event) {
	q.mu.Lock()
	q.buf = append(q.buf, evs...)
	q.mu.Unlock()
}

// tryPush appends ev without blocking. A full queue returns pending (the
// current backlog) and false; the caller wraps it into an *OverloadError.
// A closed queue returns ErrHandleClosed via ok=false, pending=-1.
func (q *shardQueue) tryPush(ev event.Event) (pending int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return -1, false
	}
	if n := len(q.buf) - q.head; n >= q.cap {
		return n, false
	}
	q.buf = append(q.buf, ev)
	return 0, true
}

// close marks end of stream; pending events are still delivered and any
// blocked producers are released.
func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.space.Broadcast()
	q.mu.Unlock()
}

// discard drops the pending backlog and closes the queue (abort path:
// a cancelled handle must not keep feeding its splitter).
func (q *shardQueue) discard() {
	q.mu.Lock()
	q.buf = nil
	q.head = 0
	q.closed = true
	q.space.Broadcast()
	q.mu.Unlock()
}

// depth reports the pending backlog — the load shedder's queue-pressure
// signal.
func (q *shardQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

// next pops the next event without ever blocking. ok=false with
// done=false means no event is available right now (the splitter carries
// on with its cycle); ok=false with done=true means the stream has ended
// for good.
func (q *shardQueue) next() (ev event.Event, ok bool, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head < len(q.buf) {
		ev := q.buf[q.head]
		q.buf[q.head] = event.Event{}
		q.head++
		if len(q.buf)-q.head == q.cap-1 {
			q.space.Broadcast()
		}
		// Compact once the consumed prefix dominates, so the backing
		// array does not grow without bound on long streams.
		if q.head >= 1024 && q.head*2 >= len(q.buf) {
			n := copy(q.buf, q.buf[q.head:])
			q.buf = q.buf[:n]
			q.head = 0
		}
		return ev, true, false
	}
	return event.Event{}, false, q.closed
}
