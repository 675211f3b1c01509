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
	parked   bool // suspended by Park, until Resume
	panicVal any
	// wake is the process's wakeup, the entry a Signal wait queues. Its
	// fire is the p.run method value, bound once at first Spawn so the
	// hot wake paths (Sleep, Signal) don't allocate a fresh bound-method
	// closure per block.
	wake Cont
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
		p.wake = Cont{fire: p.run}
		p.next, p.stop = iter.Pull(p.loop)
		k.all = append(k.all, p)
	}
	k.procs++
	k.At(k.now, p.wake.fire)
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

// run is the process's wakeup. It transfers control to the process and
// blocks the kernel until the process yields (blocks) or finishes. Only
// ever called from kernel (event handler) context. A finished process
// is recycled before any panic it raised is re-thrown: the coroutine
// survives either way.
func (p *Proc) run() {
	if p.finished {
		return
	}
	p.k.resumes++
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
// still lets the events already queued for this instant run first (a
// deterministic "yield to scheduler").
//
// When the wakeup would be the very next event the running Run or
// RunUntil dispatches — strictly before the queue's head and within its
// horizon — Sleep ends in place instead: it moves the clock to the
// wakeup and returns, with no event queued and no coroutine switch.
// That is exact. The wakeup event would take the next scheduling order,
// after every queued event, so any event of its instant would run
// first; with none there, nothing else runs between the yield and the
// resume, and the process continues at the same instant in the same
// state. A bare Step never ends a sleep in place: its caller takes
// control back after the event.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	if p.k.sleepInPlace(d) {
		return
	}
	p.k.After(d, p.wake.fire)
	p.yield()
}

// sleepInPlace reports whether a sleep of d ≥ 0 taken now ends in place
// (see Proc.Sleep), and if so moves the clock to its end.
func (k *Kernel) sleepInPlace(d Duration) bool {
	if at := k.now.Add(d); at <= k.horizon && (len(k.events) == 0 || at < k.events[0].at) {
		k.now = at
		return true
	}
	return false
}

// Park suspends the process with no wakeup of its own arranged: event
// code resumes it with Resume, typically a continuation that ran the
// steps the process would have run itself (see Cont) and found that
// the process has to take over.
func (p *Proc) Park() {
	p.parked = true
	p.yield()
}

// Resume switches into a parked process at once, from event code: the
// process continues inside the running event, exactly as if that event
// were its wakeup, and Resume returns once it blocks or finishes. It
// counts as a resume. Resuming a process that is not parked panics;
// resuming a parked process that Kernel.Shutdown stopped does nothing.
func (p *Proc) Resume() {
	if !p.parked {
		panic(fmt.Sprintf("sim: Resume of process %q, which is not parked", p.name))
	}
	p.parked = false
	p.run()
}

// Cont is a continuation: a callback that a Signal wakeup or a sleep
// runs in the very event slot where a process blocked in the same call
// would resume, with no coroutine switch. A Signal orders process and
// continuation waiters alike, FIFO, and Kernel.SleepCont ends in place
// exactly where Proc.Sleep does. Code that a process would run between
// two blocking calls can therefore run as a chain of continuations
// instead, taking every event at the same (instant, scheduling order);
// a process waiting on such a chain parks (Proc.Park) until the chain
// resumes it (Proc.Resume).
//
// A continuation runs in event context: it must not block, and it may
// call Resume. It is re-armed by calling Kernel.SleepCont or
// Signal.WaitCont again, typically from its own callback. Signals and
// the event queue hold its address, so it lives in one place — a field
// of the struct whose state its callback advances — and is not copied
// once armed.
type Cont struct {
	// fire is what a wakeup runs: the callback itself, or Proc.run for
	// a process's own wakeup.
	fire func()
}

// MakeCont returns a continuation that runs fn, to be stored in place
// (see Cont).
func MakeCont(fn func()) Cont { return Cont{fire: fn} }

// SleepCont runs c d from now, in the slot where a process calling
// Sleep(d) at this point would resume: when that sleep would end in
// place, SleepCont moves the clock and runs the callback at once, with
// no event queued.
func (k *Kernel) SleepCont(c *Cont, d Duration) {
	if d < 0 {
		d = 0
	}
	if k.sleepInPlace(d) {
		c.fire()
		return
	}
	k.After(d, c.fire)
}

// Signal is a deterministic condition variable for processes and
// continuations. Waiters are woken in FIFO order through the event
// queue, so wake order is reproducible.
type Signal struct {
	k *Kernel
	// waiters holds each waiter's wakeup: a process's own (Proc.wake) or
	// a continuation, one pointer per entry either way.
	waiters []*Cont
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
	s.waiters = append(s.waiters, &p.wake)
	p.yield()
}

// WaitCont queues c as a waiter: the Signal or Broadcast that would wake
// a process waiting here runs c, in that process's wakeup slot.
func (s *Signal) WaitCont(c *Cont) {
	s.waiters = append(s.waiters, c)
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
	c := s.waiters[0]
	copy(s.waiters, s.waiters[1:])
	s.waiters[n-1] = nil
	s.waiters = s.waiters[:n-1]
	s.k.At(s.k.now, c.fire)
}

// TimedWait is the state of a continuation's timed wait on a signal
// (Signal.WaitTimeoutCont). It lives beside the continuation it wakes
// and is reused wait after wait: its expiry callback is bound once.
type TimedWait struct {
	s        *Signal
	c        *Cont
	timer    EventRef
	timedOut bool
	expireFn func()
}

// WaitTimeoutCont queues c on s until the signal fires or d elapses,
// whichever comes first; c then runs, and calls w.Fired to learn which.
// A non-positive d degenerates to WaitCont. When the timer fires first,
// c is taken off the waiter queue, so a later Signal wakes the next
// waiter instead of one that has already given up, and c runs from an
// event scheduled at that instant — the slot where a process waiting
// here would wake. The primitive behind the MPI layer's retransmission
// timeouts.
//
// When the signal and the timer fire at the same instant, the one
// scheduled first wins (the kernel's deterministic event order), so a
// given seed always resolves the tie the same way.
func (s *Signal) WaitTimeoutCont(c *Cont, d Duration, w *TimedWait) {
	w.s, w.c, w.timedOut, w.timer = s, c, false, EventRef{}
	if d > 0 {
		if w.expireFn == nil {
			w.expireFn = w.expire
		}
		w.timer = s.k.After(d, w.expireFn)
	}
	s.waiters = append(s.waiters, c)
}

// expire is the timer of a timed wait: it withdraws the waiter, if the
// signal has not woken it yet, and wakes it from an event of this
// instant.
func (w *TimedWait) expire() {
	s := w.s
	for i, x := range s.waiters {
		if x == w.c {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			w.timedOut = true
			s.k.At(s.k.now, x.fire)
			return
		}
	}
}

// Fired ends the timed wait, from the continuation it woke: it stops
// the timer and reports whether the signal fired (false on timeout).
func (w *TimedWait) Fired() bool {
	w.s.k.Cancel(w.timer)
	return !w.timedOut
}

// Broadcast wakes every waiter, oldest first: the wakeups are the
// events successive Signal calls would schedule, and the queue empties
// once, in place, keeping its capacity.
func (s *Signal) Broadcast() {
	for i, c := range s.waiters {
		s.waiters[i] = nil
		s.k.At(s.k.now, c.fire)
	}
	s.waiters = s.waiters[:0]
}

// Waiters returns the number of processes and continuations waiting on
// the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Queue is a FIFO list; the zero Queue is empty and ready to use.
type Queue[T any] struct {
	items []T
}

// Push appends v.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// TryPop removes and returns the oldest item, if there is one.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	// Clear the slot so the backing array does not keep v reachable.
	v := q.items[0]
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }
