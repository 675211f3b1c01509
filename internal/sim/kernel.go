package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// event is a scheduled callback. Events are ordered by time, then by
// scheduling order, which makes simulations deterministic. Event storage
// is pooled inside the kernel: once an event has run (or been
// cancelled) its struct is recycled for the next At/After call, so the
// steady-state event churn of a simulation allocates nothing.
type event struct {
	at    Time
	seq   uint64
	gen   uint64 // bumped on every recycle; EventRef handles go stale
	index int    // heap index, -1 when not queued
	fn    func()
}

// EventRef is a handle to a scheduled event, returned by At and After
// and consumed by Cancel. It is a value (no allocation) and is
// generation-checked: cancelling an event that has already run, was
// already cancelled, or whose storage has since been recycled for a
// newer event is a precise no-op. The zero EventRef is valid and refers
// to nothing.
type EventRef struct {
	e   *event
	gen uint64
}

// Pending reports whether the referenced event is still queued.
func (r EventRef) Pending() bool { return r.e != nil && r.e.gen == r.gen }

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Kernel is the simulation engine: it owns the virtual clock and the
// event queue and runs events in deterministic order.
type Kernel struct {
	now    Time
	events eventHeap
	seq    uint64
	procs  int // live (not yet finished) processes
	nsteps uint64
	free   []*event // recycled event storage
	// rng is seeded with seed on the first Rand call after NewKernel or
	// Reset (seeded records that it was): seeding costs more than most
	// small worlds spend drawing from it, and many never draw at all.
	rng    *rand.Rand
	seed   int64
	seeded bool
	// all holds every process with a live coroutine, running, blocked or
	// parked, so Shutdown can end them. freeProcs holds the finished
	// ones, parked in their run loop and ready for the next Spawn;
	// freeSigs holds recycled signals (see GetSignal). Both make the
	// steady-state churn of a simulation — and of a whole pooled world —
	// allocation-free.
	all       []*Proc
	freeProcs []*Proc
	freeSigs  []*Signal
}

// NewKernel returns a simulation kernel whose random source is seeded
// with seed. The same seed always produces the same simulation.
func NewKernel(seed int64) *Kernel {
	return &Kernel{seed: seed}
}

// Reset rewinds an idle kernel to the state NewKernel(seed) returns,
// keeping its recycled event, process and signal storage. Resetting a
// kernel with pending events or live processes panics: their wakeups
// would leak into the next simulation.
func (k *Kernel) Reset(seed int64) {
	if len(k.events) != 0 {
		panic("sim: Reset with pending events")
	}
	if k.procs != 0 {
		panic("sim: Reset with live processes")
	}
	k.now = 0
	k.seq = 0
	k.nsteps = 0
	k.seed = seed
	k.seeded = false
}

// Shutdown ends the coroutine of every process of the kernel. Parked
// (recycled) processes simply exit. A process still blocked mid-body is
// unwound: its pending Sleep or Wait panics with a sentinel that the
// process wrapper swallows, so the body's defers run once, and it counts
// as finished. A panic raised by such a defer is dropped with the
// kernel's state. Call Shutdown from outside process context before
// abandoning a kernel so its coroutines don't outlive it. The kernel
// remains usable: events still pending for a stopped process are no-ops,
// and the next Spawn starts a fresh coroutine.
func (k *Kernel) Shutdown() {
	for i, p := range k.all {
		k.all[i] = nil
		p.stop()
		p.panicVal = nil
	}
	k.all = k.all[:0]
	clear(k.freeProcs)
	k.freeProcs = k.freeProcs[:0]
	k.procs = 0
}

// Now returns the current simulated instant.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. The source is
// (re)seeded on the first call after NewKernel or Reset, so a caller
// must fetch it again after a Reset rather than keep the old pointer.
func (k *Kernel) Rand() *rand.Rand {
	if !k.seeded {
		if k.rng == nil {
			k.rng = rand.New(rand.NewSource(k.seed))
		} else {
			k.rng.Seed(k.seed)
		}
		k.seeded = true
	}
	return k.rng
}

// Steps reports how many events have been executed so far.
func (k *Kernel) Steps() uint64 { return k.nsteps }

// alloc takes an event from the free list, or makes a new one.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{index: -1}
}

// release recycles an event that has run or been cancelled. The
// generation bump invalidates every outstanding EventRef to it.
func (k *Kernel) release(e *event) {
	e.gen++
	e.fn = nil
	e.index = -1
	k.free = append(k.free, e)
}

// At schedules fn to run at instant t. Scheduling in the past panics:
// it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) EventRef {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	e := k.alloc()
	e.at = t
	e.seq = k.seq
	e.fn = fn
	k.seq++
	heap.Push(&k.events, e)
	return EventRef{e, e.gen}
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now.Add(d), fn)
}

// Cancel prevents a scheduled event from running. Cancelling an event
// that already ran, was already cancelled, or whose storage was
// recycled is a no-op (the handle's generation no longer matches).
func (k *Kernel) Cancel(r EventRef) {
	if r.e == nil || r.e.gen != r.gen {
		return
	}
	heap.Remove(&k.events, r.e.index)
	k.release(r.e)
}

// Step runs the earliest pending event, advancing the clock to it.
// It reports whether an event was run.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := heap.Pop(&k.events).(*event)
	k.now = e.at
	k.nsteps++
	fn := e.fn
	// Recycle before running: fn may itself schedule, and reusing the
	// hot struct keeps the event working set at the queue's high-water
	// mark.
	k.release(e)
	fn()
	return true
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events up to and including instant t, then sets the
// clock to t.
func (k *Kernel) RunUntil(t Time) {
	for len(k.events) > 0 {
		// Peek without popping: index 0 is the heap minimum.
		e := k.events[0]
		if e.at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// Idle reports whether no events are pending. Processes blocked on a
// Signal do not count; a simulation that goes idle with live processes
// has deadlocked (see LiveProcs).
func (k *Kernel) Idle() bool { return len(k.events) == 0 }

// LiveProcs returns the number of spawned processes that have not
// finished. Useful in tests to detect leaked/deadlocked processes.
func (k *Kernel) LiveProcs() int { return k.procs }

// Timer is a reusable one-shot scheduled callback: the callback is
// bound once at creation and the timer is re-armed with Arm/ArmAfter.
// Re-arming implicitly stops a pending firing, and stopping a timer
// that already fired is a no-op, so the common cancel-and-reschedule
// pattern (e.g. a solver's next-completion event) costs no allocation
// and needs no bookkeeping at the call site.
type Timer struct {
	k   *Kernel
	fn  func()
	ref EventRef
}

// NewTimer returns an unarmed timer on kernel k that runs fn when it
// fires.
func (k *Kernel) NewTimer(fn func()) *Timer {
	return &Timer{k: k, fn: fn}
}

// Arm (re)schedules the timer to fire at instant t.
func (t *Timer) Arm(at Time) {
	t.k.Cancel(t.ref)
	t.ref = t.k.At(at, t.fn)
}

// ArmAfter (re)schedules the timer to fire d from now.
func (t *Timer) ArmAfter(d Duration) {
	t.k.Cancel(t.ref)
	t.ref = t.k.After(d, t.fn)
}

// Stop cancels a pending firing. Stopping an unarmed or already-fired
// timer is a no-op.
func (t *Timer) Stop() {
	t.k.Cancel(t.ref)
	t.ref = EventRef{}
}

// Pending reports whether the timer is armed and has not fired yet.
func (t *Timer) Pending() bool { return t.ref.Pending() }

// When returns the instant the timer is armed for, and false if it is
// not pending.
func (t *Timer) When() (Time, bool) {
	if !t.ref.Pending() {
		return 0, false
	}
	return t.ref.e.at, true
}
