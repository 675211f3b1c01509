package sim

import (
	"fmt"
	"math"
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

// before reports whether a runs before b: earlier instant first, then
// earlier scheduling order.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap of events ordered by before, each
// event keeping its own index so Cancel removes it in O(log n). No two
// queued events share both instant and scheduling order (a Rearm reuses
// only the seq its own timer took), so the pop order is the total
// (at, seq) order whatever the heap's shape.
type eventHeap []*event

func (h *eventHeap) push(e *event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

// remove takes the event at index i out of the heap and returns it;
// remove(0) pops the earliest.
func (h *eventHeap) remove(i int) *event {
	s := *h
	n := len(s) - 1
	e := s[i]
	if i != n {
		s[i] = s[n]
		s[i].index = i
	}
	s[n] = nil
	*h = s[:n]
	if i != n {
		h.fix(i)
	}
	e.index = -1
	return e
}

// fix restores the heap order after the event at index i changed its
// instant or scheduling order.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// up moves the event at index i towards the root until its parent runs
// before it.
func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		q := h[parent]
		if !e.before(q) {
			break
		}
		h[i] = q
		q.index = i
		i = parent
	}
	h[i] = e
	e.index = i
}

// down moves the event at index i towards the leaves until it runs
// before both children, and reports whether it moved.
func (h eventHeap) down(i int) bool {
	e, start, n := h[i], i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		q := h[c]
		if !q.before(e) {
			break
		}
		h[i] = q
		q.index = i
		i = c
	}
	h[i] = e
	e.index = i
	return i > start
}

// Kernel is the simulation engine: it owns the virtual clock and the
// event queue and runs events in deterministic order.
type Kernel struct {
	now    Time
	events eventHeap
	seq    uint64
	procs  int // live (not yet finished) processes
	nsteps uint64
	// resumes counts the coroutine switches into processes.
	resumes uint64
	free    []*event // recycled event storage
	// horizon is the last instant the running Run or RunUntil will
	// reach, noHorizon outside them: a Sleep may end in place only up to
	// it (see Proc.Sleep).
	horizon Time
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
	return &Kernel{seed: seed, horizon: noHorizon}
}

// noHorizon is the horizon outside Run and RunUntil, before every
// instant: a Sleep under a bare Step always goes through the queue.
const noHorizon = Time(math.MinInt64)

// sleepInPlace lets Run and RunUntil end sleeps in place. Tests turn it
// off to check that doing so changes nothing.
var sleepInPlace = true

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
	k.resumes = 0
	k.seed = seed
	k.seeded = false
}

// Shutdown ends the coroutine of every process of the kernel. Recycled
// (finished) processes simply exit. A process still blocked mid-body,
// or parked by Proc.Park, is unwound: its pending Sleep, Wait or Park
// panics with a sentinel that the process wrapper swallows, so the
// body's defers run once, and it counts as finished. A panic raised by
// such a defer is dropped with the kernel's state. Call Shutdown from
// outside process context before abandoning a kernel so its coroutines
// don't outlive it. The kernel remains usable: events still pending for
// a stopped process are no-ops, and so is its Resume, and the next
// Spawn starts a fresh coroutine.
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

// Drew reports whether anything drew from the random source since
// NewKernel or the last Reset. A simulation that never did never read
// its seed, so it runs the same course at every seed.
func (k *Kernel) Drew() bool { return k.seeded }

// Steps reports how many events have been executed so far, since
// NewKernel or the last Reset. A Sleep that ends in place (see
// Proc.Sleep) is not an event and does not count.
func (k *Kernel) Steps() uint64 { return k.nsteps }

// Resumes reports how many times a process has been switched to, since
// NewKernel or the last Reset: once per Spawn and once per wakeup from
// a blocking call that yielded. A Sleep that ends in place does not
// yield and does not count.
func (k *Kernel) Resumes() uint64 { return k.resumes }

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
	k.seq++
	return k.atSeq(t, k.seq-1, fn)
}

// atSeq schedules fn at instant t with scheduling order seq.
func (k *Kernel) atSeq(t Time, seq uint64, fn func()) EventRef {
	k.checkFuture(t)
	e := k.alloc()
	e.at = t
	e.seq = seq
	e.fn = fn
	k.events.push(e)
	return EventRef{e, e.gen}
}

// checkFuture panics if t is before now.
func (k *Kernel) checkFuture(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
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
	k.events.remove(r.e.index)
	k.release(r.e)
}

// Step runs the earliest pending event, advancing the clock to it.
// It reports whether an event was run.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.events.remove(0)
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
	defer k.leave(k.enter(math.MaxInt64))
	for k.Step() {
	}
}

// RunUntil executes events up to and including instant t, then sets the
// clock to t.
func (k *Kernel) RunUntil(t Time) {
	defer k.leave(k.enter(t))
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

// enter starts a Run or RunUntil that reaches instant t and returns the
// horizon of the enclosing one, which leave restores: a kernel run
// again from inside one of its own events, or a panic unwinding out of
// Run, leaves the outer horizon in place.
func (k *Kernel) enter(t Time) Time {
	outer := k.horizon
	if sleepInPlace {
		k.horizon = t
	}
	return outer
}

func (k *Kernel) leave(outer Time) { k.horizon = outer }

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
// and needs no bookkeeping at the call site. Re-arming a pending timer
// moves its event in place: it takes the instant and scheduling order
// that cancelling it and scheduling it anew would give it, so the run
// order is the same, without the round trip through the event pool.
type Timer struct {
	k   *Kernel
	fn  func()
	ref EventRef
	// seq is the scheduling order of the last Arm, ArmAfter or Reserve,
	// which Rearm reuses.
	seq uint64
}

// NewTimer returns an unarmed timer on kernel k that runs fn when it
// fires.
func (k *Kernel) NewTimer(fn func()) *Timer {
	return &Timer{k: k, fn: fn}
}

// Arm (re)schedules the timer to fire at instant t.
func (t *Timer) Arm(at Time) {
	t.seq = t.k.seq
	t.k.seq++
	t.Rearm(at)
}

// Reserve stops the timer and takes, at this call, the place in the
// event order that an Arm would take: a later Rearm fires the timer as
// if it had been armed here.
func (t *Timer) Reserve() {
	t.Stop()
	t.seq = t.k.seq
	t.k.seq++
}

// Rearm (re)schedules the timer at instant at, keeping the place in the
// event order of its last Arm, ArmAfter or Reserve: among the events of
// that instant it runs where it would have run had it been armed for at
// back then. A caller that works out late what it would have armed
// earlier uses it to leave the order of same-instant events unchanged.
// A pending event moves there in place: the queue pops in the total
// order on (instant, scheduling order), so it runs where a cancelled and
// re-pushed one would.
func (t *Timer) Rearm(at Time) {
	if !t.ref.Pending() {
		t.ref = t.k.atSeq(at, t.seq, t.fn)
		return
	}
	t.k.checkFuture(at)
	e := t.ref.e
	e.at, e.seq = at, t.seq
	t.k.events.fix(e.index)
}

// ArmAfter (re)schedules the timer to fire d from now.
func (t *Timer) ArmAfter(d Duration) { t.Arm(t.k.now.Add(d)) }

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
