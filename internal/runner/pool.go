package runner

import (
	"sync"
	"sync/atomic"
)

// The point pool is the campaign's shared work queue for sweep points.
// Every experiment that compiles a sweep enqueues its points here and
// then *participates*: the experiment's own goroutine executes queued
// tasks — its own or any other experiment's — until its batch is
// complete. Workers that have run out of experiments drain the pool
// until the campaign shuts it down. This work-sharing shape cannot
// deadlock on nested parallelism: a goroutine waiting for its batch is
// never idle while runnable work exists, and a batch's tasks are
// executed by whichever goroutines are free, so progress never depends
// on a particular worker being available.
type pointPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	closed bool
}

// task is one queued point: run(i) executes the i-th point of its
// batch.
type task struct {
	run func(int)
	i   int
}

func newPointPool() *pointPool {
	p := &pointPool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// batch tracks the completion of one RunPoints call's tasks.
type batch struct {
	pool    *pointPool
	pending int // guarded by pool.mu
}

func (p *pointPool) newBatch(n int) *batch {
	return &batch{pool: p, pending: n}
}

// done marks one task of the batch complete and wakes waiters.
func (b *batch) done() {
	b.pool.mu.Lock()
	b.pending--
	b.pool.mu.Unlock()
	b.pool.cond.Broadcast()
}

// enqueue appends the tasks run(0), …, run(n-1) and wakes any waiting
// executors.
func (p *pointPool) enqueue(run func(int), n int) {
	p.mu.Lock()
	for i := 0; i < n; i++ {
		p.queue = append(p.queue, task{run, i})
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// pop removes the next task; ok is false if the queue is empty.
func (p *pointPool) pop() (t task, ok bool) {
	if len(p.queue) == 0 {
		return task{}, false
	}
	t = p.queue[0]
	p.queue[0] = task{}
	p.queue = p.queue[1:]
	return t, true
}

// runUntil executes queued tasks (anyone's) until the batch completes.
// When the queue is empty but the batch is still pending — its tasks
// are running on other goroutines — it blocks until woken by a task
// completion or a new enqueue.
func (p *pointPool) runUntil(b *batch) {
	p.mu.Lock()
	for b.pending > 0 {
		if t, ok := p.pop(); ok {
			p.mu.Unlock()
			t.run(t.i)
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// drain executes queued tasks until the pool is closed; idle campaign
// workers call this so finished experiments' goroutines keep helping
// with the remaining experiments' points.
func (p *pointPool) drain() {
	p.mu.Lock()
	for {
		if t, ok := p.pop(); ok {
			p.mu.Unlock()
			t.run(t.i)
			p.mu.Lock()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.cond.Wait()
	}
}

// close releases drained workers once the campaign is over. Any still
// queued tasks keep executing via their owners' runUntil loops.
func (p *pointPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// SharedPool is a long-lived point pool with its own worker-shard set,
// shared by every campaign of a service: campaigns enqueue their points
// here (Options.SharedPool) and the shard goroutines execute them, while
// each campaign's own experiment goroutines still participate through
// runUntil. Work from concurrent campaigns interleaves freely — the
// index-ordered merge in bench.RunPointsAs keeps every campaign's output
// deterministic regardless of who executed which point.
type SharedPool struct {
	pool     *pointPool
	workers  int
	restarts atomic.Int64
	wg       sync.WaitGroup
}

// NewSharedPool starts a pool with n dedicated worker shards (n <= 0
// panics: a service must size its shard set explicitly). Close releases
// the shards. Shards are self-healing: a task that panics past the
// executor's own recovery takes down only its shard's current drain
// loop, which is restarted immediately (counted by Restarts) — one
// poisoned point never shrinks the service's worker set.
func NewSharedPool(n int) *SharedPool {
	if n <= 0 {
		panic("runner: SharedPool needs at least one worker shard")
	}
	sp := &SharedPool{pool: newPointPool(), workers: n}
	sp.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer sp.wg.Done()
			for !sp.runShard() {
				sp.restarts.Add(1)
			}
		}()
	}
	return sp
}

// runShard drains the pool once, converting a task panic into a clean
// return. It reports true when the pool closed (the shard should exit)
// and false when it survived a panic (the shard should restart).
func (sp *SharedPool) runShard() (closed bool) {
	defer func() {
		if p := recover(); p != nil {
			closed = false
		}
	}()
	sp.pool.drain()
	return true
}

// Workers reports the shard count.
func (sp *SharedPool) Workers() int { return sp.workers }

// Restarts reports how many times a shard was restarted after a task
// panic.
func (sp *SharedPool) Restarts() int64 { return sp.restarts.Load() }

// Close shuts the pool down and waits for the shards to exit. Queued
// tasks still complete via their owning campaigns' runUntil loops.
func (sp *SharedPool) Close() {
	sp.pool.close()
	sp.wg.Wait()
}
