//go:build go1.23

// The process hand-off runs on runtime coroutines (iter.Pull), which
// need Go 1.23. The module's go directive stays at 1.22 so the benchmark
// module, which pins go 1.22 and requires this one, still loads; the
// build constraint above raises this file's own language version
// instead.

package sim

import (
	"errors"
	"fmt"
	"iter"
)

// Proc is a simulated thread of control. Each Proc runs on its own
// runtime coroutine: the kernel resumes it with a direct coroutine
// switch and it switches back when it blocks, so at most one Proc (or
// event handler) executes at any moment, simulations are deterministic,
// and shared state needs no locking. A switch stays on the calling
// thread and never goes through the Go scheduler's run queue.
//
// A Proc advances the clock only by blocking: Sleep, Signal.Wait, or any
// higher-level operation built on them. Plain Go code inside a Proc takes
// zero simulated time.
type Proc struct {
	k    *Kernel
	name string
	// next resumes the coroutine until the process blocks or finishes;
	// yieldFn switches back to next's caller and reports false once the
	// kernel has stopped the coroutine; stop ends it (Kernel.Shutdown).
	next     func() (struct{}, bool)
	yieldFn  func(struct{}) bool
	stop     func()
	finished bool
	panicVal any
	blocked  bool // waiting on a Signal (not a timer)
	// runFn is the p.run method value, captured once at first Spawn so
	// the hot wake paths (Sleep, Signal) don't allocate a fresh
	// bound-method closure per block.
	runFn func()
	// fn is the body of the current incarnation. Finished processes park
	// their coroutine in loop() and are recycled by the next Spawn with a
	// new fn.
	fn func(*Proc)
}

// errStopped unwinds a process that Kernel.Shutdown stopped while it was
// blocked, so the body's defers run; call swallows it.
var errStopped = errors.New("sim: process stopped by Kernel.Shutdown")

// Spawn creates a process running fn. The process starts at the current
// instant, after already-scheduled events for this instant. Process
// storage — including the coroutine — is recycled from previously
// finished processes of this kernel, so steady-state process churn
// allocates nothing.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	var p *Proc
	if n := len(k.freeProcs); n > 0 {
		p = k.freeProcs[n-1]
		k.freeProcs[n-1] = nil
		k.freeProcs = k.freeProcs[:n-1]
		p.name = name
		p.finished = false
		p.fn = fn
	} else {
		p = &Proc{k: k, name: name, fn: fn}
		p.runFn = p.run
		p.next, p.stop = iter.Pull(p.loop)
		k.all = append(k.all, p)
	}
	k.procs++
	k.At(k.now, p.runFn)
	return p
}

// loop is the body of a process coroutine: it runs one incarnation per
// resume, yields the final time, and parks until Spawn hands it the next
// body. It returns once Shutdown stops the coroutine.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yieldFn = yield
	for {
		p.call(p.fn)
		if !yield(struct{}{}) {
			return
		}
	}
}

// call runs one incarnation, capturing a panic so the kernel can
// re-raise it from event context without losing the coroutine. The
// errStopped unwind of a stopped process is not a failure and is
// dropped.
func (p *Proc) call(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			p.panicVal = r
		}
		p.finished = true
	}()
	fn(p)
}

// run transfers control to the process and blocks the kernel until the
// process yields (blocks) or finishes. Only ever called from kernel
// (event handler) context. A finished process is parked for reuse
// before any panic it raised is re-thrown: the coroutine survives
// either way.
func (p *Proc) run() {
	if p.finished {
		return
	}
	p.next()
	if p.finished {
		p.k.procs--
		p.fn = nil
		p.k.freeProcs = append(p.k.freeProcs, p)
		if pv := p.panicVal; pv != nil {
			p.panicVal = nil
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, pv))
		}
	}
}

// yield suspends the process and returns control to the kernel. The
// process must have arranged to be resumed (timer or signal) first. If
// the kernel stops the process instead of resuming it, yield unwinds
// the body with errStopped.
func (p *Proc) yield() {
	if !p.yieldFn(struct{}{}) {
		panic(errStopped)
	}
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated instant.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for d. Sleeping a non-positive duration
// still yields, letting same-instant events run (a deterministic
// "yield to scheduler").
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.After(d, p.runFn)
	p.yield()
}

// Signal is a deterministic condition variable for processes. Waiters
// are woken in FIFO order through the event queue, so wake order is
// reproducible.
type Signal struct {
	k       *Kernel
	waiters []*Proc
	// broadcastFn caches the Broadcast method value so completion hooks
	// (e.g. fluid-flow OnDone) don't allocate a bound closure per use.
	broadcastFn func()
}

// NewSignal returns a Signal bound to kernel k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// GetSignal returns a signal bound to k, recycled from PutSignal when
// possible. The hot transfer paths acquire their completion signals
// here so steady-state signal churn allocates nothing.
func (k *Kernel) GetSignal() *Signal {
	if n := len(k.freeSigs); n > 0 {
		s := k.freeSigs[n-1]
		k.freeSigs[n-1] = nil
		k.freeSigs = k.freeSigs[:n-1]
		return s
	}
	return &Signal{k: k}
}

// PutSignal recycles a signal for a later GetSignal. A signal that
// still has waiters is silently dropped instead: recycling it would
// strand them.
func (k *Kernel) PutSignal(s *Signal) {
	if s == nil || len(s.waiters) != 0 {
		return
	}
	k.freeSigs = append(k.freeSigs, s)
}

// BroadcastFn returns the signal's Broadcast bound-method value,
// allocated once per signal lifetime (pool recycling included).
func (s *Signal) BroadcastFn() func() {
	if s.broadcastFn == nil {
		s.broadcastFn = s.Broadcast
	}
	return s.broadcastFn
}

// Wait suspends p until another process or event calls Signal or
// Broadcast.
func (s *Signal) Wait(p *Proc) {
	p.blocked = true
	s.waiters = append(s.waiters, p)
	p.yield()
}

// Signal wakes the oldest waiter, if any. The waiter resumes at the
// current instant, after events already scheduled for it. The queue
// shifts in place so the waiter array's capacity is retained across
// wait/wake cycles.
func (s *Signal) Signal() {
	n := len(s.waiters)
	if n == 0 {
		return
	}
	p := s.waiters[0]
	copy(s.waiters, s.waiters[1:])
	s.waiters[n-1] = nil
	s.waiters = s.waiters[:n-1]
	p.blocked = false
	s.k.At(s.k.now, p.runFn)
}

// WaitTimeout suspends p until the signal fires or d elapses, whichever
// comes first, and reports whether the signal fired (false on timeout).
// A non-positive d degenerates to Wait. When the timer fires first, p is
// removed from the waiter queue, so a later Signal wakes the next waiter
// instead of a process that has already given up — the primitive behind
// the MPI layer's retransmission timeouts.
//
// When the signal and the timer fire at the same instant, the one
// scheduled first wins (the kernel's deterministic event order), so a
// given seed always resolves the tie the same way.
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool {
	if d <= 0 {
		s.Wait(p)
		return true
	}
	timedOut := false
	timer := s.k.After(d, func() {
		for i, w := range s.waiters {
			if w == p {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				timedOut = true
				p.blocked = false
				s.k.At(s.k.now, p.runFn)
				return
			}
		}
	})
	s.Wait(p)
	s.k.Cancel(timer)
	return !timedOut
}

// Broadcast wakes every waiter, oldest first.
func (s *Signal) Broadcast() {
	for len(s.waiters) > 0 {
		s.Signal()
	}
}

// Waiters returns the number of processes blocked on the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Queue is a deterministic FIFO mailbox between processes: Push never
// blocks, Pop blocks until an item is available.
type Queue[T any] struct {
	items []T
	sig   *Signal
}

// NewQueue returns an empty queue bound to kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{sig: NewSignal(k)}
}

// Push appends v and wakes one waiting consumer.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.sig.Signal()
}

// Pop removes and returns the oldest item, blocking p until one exists.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.sig.Wait(p)
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }
