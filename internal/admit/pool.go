package admit

import (
	"runtime"
	"sync"
	"time"
)

// DefaultIdleTimeout is how long a pool worker waits for work before
// exiting; the pool shrinks back to zero goroutines when idle.
const DefaultIdleTimeout = 200 * time.Millisecond

// defaultWorkers returns the default worker cap: generous enough that
// moderately blocking handlers do not starve each other, small enough that
// an async burst cannot take the process down.
func defaultWorkers() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 16 {
		n = 16
	}
	return n
}

// Work is one admitted queue item; its return is the item's final outcome.
type Work func()

// Pool is a shared, size-capped worker pool. Workers are started lazily as
// work arrives, park when idle, and exit after an idle timeout, so an idle
// pool holds no goroutines at all. Work comes from two sources: bounded
// admission Queues (drained fairly, one item per turn) and plain Go tasks
// (an unbounded FIFO — the default-spawner path, which bounds concurrency
// but never sheds).
//
// Abandon/Reclaim implement watchdog survival: when a supervising watchdog
// gives up on an invocation that is squatting a worker, Abandon raises the
// effective capacity by one so a replacement worker can take its place; if
// the stuck invocation ever returns, Reclaim lowers it again and the first
// worker to notice the surplus exits. Goroutines therefore stay bounded by
// capacity plus the number of currently stuck invocations — the best Go can
// do, since a goroutine cannot be destroyed from outside.
type Pool struct {
	mu          sync.Mutex
	max         int
	extra       int
	running     int
	parked      []chan struct{}
	fifo        []func()
	fifoHead    int
	runq        []*Queue
	runqHead    int
	idleTimeout time.Duration
	abandoned   int64
}

// NewPool creates a pool capped at max workers (zero selects
// defaultWorkers).
func NewPool(max int) *Pool {
	if max <= 0 {
		max = defaultWorkers()
	}
	return &Pool{max: max, idleTimeout: DefaultIdleTimeout}
}

// Capacity returns the configured worker cap.
func (p *Pool) Capacity() int { return p.max }

// Stats returns a snapshot of the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Capacity:  p.max,
		Extra:     p.extra,
		Running:   p.running,
		Parked:    len(p.parked),
		Abandoned: p.abandoned,
	}
}

// Go runs fn on a pool worker. The task FIFO is unbounded: Go never blocks
// and never sheds, it only bounds how many tasks run at once. As with the
// `go` statement it replaces, fn must not panic.
func (p *Pool) Go(fn func()) {
	p.mu.Lock()
	p.fifo = append(p.fifo, fn)
	p.dispatchLocked()
	p.mu.Unlock()
}

// Abandon raises the pool's effective capacity by one: an invocation is
// stuck past its watchdog deadline while holding a worker, and a
// replacement may be started in its place.
func (p *Pool) Abandon() {
	p.mu.Lock()
	p.extra++
	p.abandoned++
	p.dispatchLocked()
	p.mu.Unlock()
}

// Reclaim lowers the effective capacity after an abandoned invocation
// finally returned; the surplus worker exits at its next scheduling point.
func (p *Pool) Reclaim() {
	p.mu.Lock()
	p.extra--
	p.mu.Unlock()
}

// limitLocked is the current effective worker cap.
func (p *Pool) limitLocked() int { return p.max + p.extra }

// enqueue lists q as runnable. Called by Queue with its own lock released.
func (p *Pool) enqueue(q *Queue) {
	p.mu.Lock()
	p.runq = append(p.runq, q)
	p.dispatchLocked()
	p.mu.Unlock()
}

// haveWorkLocked reports whether any task or runnable queue is pending.
func (p *Pool) haveWorkLocked() bool {
	return p.fifoHead < len(p.fifo) || p.runqHead < len(p.runq)
}

// dispatchLocked makes sure pending work has a worker: wake a parked one,
// else start a new one if under the cap. With everything busy the work
// waits for the next worker to come free.
func (p *Pool) dispatchLocked() {
	if !p.haveWorkLocked() {
		return
	}
	if n := len(p.parked); n > 0 {
		w := p.parked[n-1]
		p.parked = p.parked[:n-1]
		close(w)
		return
	}
	if p.running < p.limitLocked() {
		p.running++
		go p.worker()
	}
}

// takeFifoLocked pops the next plain task, or nil.
func (p *Pool) takeFifoLocked() func() {
	if p.fifoHead >= len(p.fifo) {
		return nil
	}
	fn := p.fifo[p.fifoHead]
	p.fifo[p.fifoHead] = nil
	p.fifoHead++
	if p.fifoHead == len(p.fifo) {
		p.fifo = p.fifo[:0]
		p.fifoHead = 0
	}
	return fn
}

// takeQueueLocked pops the next runnable queue, or nil.
func (p *Pool) takeQueueLocked() *Queue {
	if p.runqHead >= len(p.runq) {
		return nil
	}
	q := p.runq[p.runqHead]
	p.runq[p.runqHead] = nil
	p.runqHead++
	if p.runqHead == len(p.runq) {
		p.runq = p.runq[:0]
		p.runqHead = 0
	}
	return q
}

// removeParkedLocked removes w from the parked list; false means a waker
// already claimed (and closed) it.
func (p *Pool) removeParkedLocked(w chan struct{}) bool {
	for i, c := range p.parked {
		if c == w {
			p.parked = append(p.parked[:i], p.parked[i+1:]...)
			return true
		}
	}
	return false
}

// worker is the pool worker loop: drain plain tasks and queue items, park
// when idle, exit after the idle timeout or when capacity shrank below the
// live population.
func (p *Pool) worker() {
	for {
		p.mu.Lock()
		if p.running > p.limitLocked() {
			// Capacity shrank (Reclaim after an abandoned invocation
			// returned): this worker is surplus.
			p.running--
			p.mu.Unlock()
			return
		}
		if fn := p.takeFifoLocked(); fn != nil {
			p.mu.Unlock()
			fn()
			continue
		}
		if q := p.takeQueueLocked(); q != nil {
			p.mu.Unlock()
			run, more := q.pop()
			if more {
				// The queue has further items: relist it so another
				// worker can drain it concurrently with this run.
				p.enqueue(q)
			}
			if run != nil {
				run()
				q.settle()
			}
			continue
		}
		// Idle: park until woken, exiting after the idle timeout so an
		// idle pool holds no goroutines.
		w := make(chan struct{})
		p.parked = append(p.parked, w)
		p.mu.Unlock()
		if p.idleTimeout <= 0 {
			<-w
			continue
		}
		t := time.NewTimer(p.idleTimeout)
		select {
		case <-w:
			t.Stop()
		case <-t.C:
			p.mu.Lock()
			if p.removeParkedLocked(w) {
				p.running--
				p.mu.Unlock()
				return
			}
			p.mu.Unlock()
			// A waker claimed the channel as the timer fired; consume
			// the wake and keep serving.
			<-w
		}
	}
}
