package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is the process-wide worker pool of a Runtime: n goroutines that
// cooperatively drive every attached shard — its splitter cycle and its
// operator-instance slots. Work distribution is scan-based stealing: each
// worker sweeps the shard list starting at its own offset and claims
// whatever step (splitter or slot) is free, so idle capacity flows to
// whichever shard has work without any per-engine goroutines. With no
// shards attached, workers park until the next Attach.
type Pool struct {
	mu     sync.Mutex // guards writes to the shard list and the park cond
	parked sync.Cond  // signalled on Attach and Close
	shards atomic.Pointer[[]*shardState]
	stop   atomic.Bool
	wg     sync.WaitGroup
}

// NewPool starts a pool with n workers; n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.parked.L = &p.mu
	empty := make([]*shardState, 0)
	p.shards.Store(&empty)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Attach adds shards to the pool's scan list (copy-on-write, so workers
// never observe a partially updated slice) and wakes parked workers.
func (p *Pool) Attach(shards ...*shardState) {
	p.mu.Lock()
	cur := *p.shards.Load()
	grown := make([]*shardState, 0, len(cur)+len(shards))
	grown = append(grown, cur...)
	grown = append(grown, shards...)
	p.shards.Store(&grown)
	p.parked.Broadcast()
	p.mu.Unlock()
}

// detachFinished drops completed shards from the scan list.
func (p *Pool) detachFinished() {
	p.mu.Lock()
	cur := *p.shards.Load()
	kept := make([]*shardState, 0, len(cur))
	for _, s := range cur {
		if !s.finished.Load() {
			kept = append(kept, s)
		}
	}
	p.shards.Store(&kept)
	p.mu.Unlock()
}

// Close stops the workers. Attached shards are not drained; callers drain
// handles first (Runtime.Close does).
func (p *Pool) Close() {
	p.stop.Store(true)
	p.mu.Lock()
	p.parked.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker is the scan loop of one pool goroutine.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	idle := 0
	for !p.stop.Load() {
		shards := *p.shards.Load()
		if len(shards) == 0 {
			// Nothing attached: park until Attach or Close instead of
			// spinning for the process lifetime.
			p.mu.Lock()
			for len(*p.shards.Load()) == 0 && !p.stop.Load() {
				p.parked.Wait()
			}
			p.mu.Unlock()
			idle = 0
			continue
		}
		worked := false
		sawFinished := false
		for off := 0; off < len(shards); off++ {
			s := shards[(id+off)%len(shards)]
			if s.finished.Load() {
				sawFinished = true
				continue
			}
			if s.step() {
				worked = true
			}
		}
		if sawFinished {
			p.detachFinished()
		}
		if worked {
			idle = 0
			continue
		}
		// Exponential backoff while attached shards are quiescent (e.g. a
		// connected client that is not sending): 50us doubling to 1ms
		// keeps wake-ups bounded without the latency cost of full parking.
		idle++
		if idle < 32 {
			runtime.Gosched()
			continue
		}
		sleep := 50 * time.Microsecond << uint(min(idle-32, 5))
		if sleep > time.Millisecond {
			sleep = time.Millisecond
		}
		time.Sleep(sleep)
	}
}
