// Package taskrt implements a StarPU-like task-based runtime system on
// the simulated machine (§5 of the paper):
//
//   - a main thread (reserved core) submits tasks to a central scheduler
//     queue;
//   - worker threads, one per remaining core, busy-wait ("poll") on the
//     queue with an exponential-backoff nop loop, execute ready tasks,
//     and release their successors;
//   - a communication thread (reserved core) drains a request list and
//     performs MPI transfers for distributed data (the starpu_mpi
//     layer), adding the software-path overhead the paper measures as
//     +38 µs latency on henri (§5.2);
//   - polling workers inject coherence/queue traffic on the memory
//     system, which is what degrades communication latency in Fig 9.
package taskrt

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Backoff configures the worker polling loop: the number of nop
// instructions between two polls starts at Min, doubles after every
// unsuccessful poll, and saturates at Max. StarPU's default maximum is
// 32; the paper also measures 2 (very frequent polling), 10000 (rare)
// and paused workers (§5.4).
type Backoff struct {
	Min, Max int
}

// DefaultBackoff mirrors StarPU's defaults.
var DefaultBackoff = Backoff{Min: 1, Max: 32}

// Config describes a runtime instance on one node.
type Config struct {
	Node *machine.Node
	// Rank connects the runtime to MPI; nil for single-node runtimes.
	Rank *mpi.Rank
	// MainCore and CommCore are the two reserved cores (§5.1). CommCore
	// defaults to the rank's communication core when a rank is given.
	MainCore, CommCore int
	// WorkerCores lists the cores running workers; defaults to every
	// core except MainCore and CommCore.
	WorkerCores []int
	// Backoff tunes worker polling; zero value means DefaultBackoff.
	Backoff Backoff
	// Scheduler selects the ready-list organisation; default EagerFIFO
	// (StarPU's central list, the paper's configuration). NUMALocal is
	// the §8 future-work locality scheduler.
	Scheduler SchedulerPolicy
	// CommThrottle, when > 0, pauses up to that many workers while
	// communication requests are in flight — the paper's §8 proposal to
	// "change dynamically the number of workers if there are
	// identifiable communication phases". Throttled workers poll
	// nothing and run no tasks until the communication queue drains.
	CommThrottle int
}

// Task is one schedulable codelet with dependencies.
type Task struct {
	Spec machine.ComputeSpec
	// OnDone, if non-nil, runs (in event context) when the task
	// completes.
	OnDone func()

	ndeps     int
	children  []*Task
	done      bool
	submitted bool
	doneSig   *sim.Signal
	accesses  []Access
}

// NewTask wraps a compute slice into a task.
func NewTask(spec machine.ComputeSpec) *Task {
	return &Task{Spec: spec}
}

// DependsOn declares that t cannot start before u completes. Must be
// called before either task is submitted.
func (t *Task) DependsOn(u *Task) {
	if u.done {
		return
	}
	t.ndeps++
	u.children = append(u.children, t)
}

// Done reports whether the task has completed.
func (t *Task) Done() bool { return t.done }

// Hold adds a manual dependency to the task: it will not become ready
// until a matching Release. Used to make tasks wait on events outside
// the task graph (e.g. an incoming starpu_mpi transfer). Must be called
// before the task is submitted.
func (t *Task) Hold() { t.ndeps++ }

// Release resolves one manual dependency (the counterpart of Hold);
// when the last dependency resolves on a submitted task, it becomes
// ready. Safe to call from event context.
func (rt *Runtime) Release(t *Task) {
	t.ndeps--
	if t.ndeps == 0 && t.submitted && !t.done {
		rt.push(t)
	}
}

// Runtime is one node's runtime instance.
type Runtime struct {
	cfg  Config
	node *machine.Node
	k    *sim.Kernel

	queues   []sim.Queue[*Task] // per-NUMA ready lists + central list
	readySig *sim.Signal        // wakes polling workers
	inflight int                // submitted but not completed tasks
	idleSig  *sim.Signal        // broadcast when inflight returns to 0
	paused   bool
	pauseSig *sim.Signal
	shutdown bool
	started  bool
	// queueNUMA, the home of the central ready list and its lock, is
	// the main core's NUMA node (first touch by the initialising thread).
	queueNUMA int

	// The communication thread's request list, wakeup and chain.
	commQ   sim.Queue[*CommHandle]
	commSig *sim.Signal
	comm    chain

	// commInflight counts posted-but-incomplete communication requests;
	// the CommThrottle feature parks workers while it is non-zero.
	commInflight int
	commIdleSig  *sim.Signal

	// tracing/events implement the FxT-style execution trace.
	tracing bool
	events  []ExecEvent
}

// Fractions of the per-message runtime software path
// (NodeSpec.RuntimeCyclesPerMsg) spent in each stage.
const (
	submitFrac   = 0.25 // task/request submission on the main thread
	commSendFrac = 0.30 // request processing on the comm thread (send)
	commRecvFrac = 0.30 // request processing on the comm thread (recv)
	deliverFrac  = 0.15 // completion callback and handle release
	// handleAccesses is how many times the comm thread touches the data
	// handle's metadata per request; placing data and comm thread on
	// different NUMA nodes makes each touch a remote access (Fig 8).
	handleAccesses = 24
	// submitCycles is the scheduler push/pop cost for plain compute
	// tasks (no MPI involved).
	submitCycles = 3000
)

// New builds (but does not start) a runtime.
func New(cfg Config) *Runtime {
	if cfg.Node == nil {
		panic("taskrt: Config.Node is required")
	}
	if cfg.Backoff == (Backoff{}) {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.Rank != nil && cfg.CommCore == 0 {
		cfg.CommCore = cfg.Rank.CommCore
	}
	if len(cfg.WorkerCores) == 0 {
		for c := 0; c < cfg.Node.Spec.Cores(); c++ {
			if c != cfg.MainCore && c != cfg.CommCore {
				cfg.WorkerCores = append(cfg.WorkerCores, c)
			}
		}
	}
	k := cfg.Node.K()
	rt := &Runtime{
		cfg:         cfg,
		node:        cfg.Node,
		k:           k,
		queues:      make([]sim.Queue[*Task], cfg.Node.Spec.NUMANodes()+1),
		readySig:    sim.NewSignal(k),
		idleSig:     sim.NewSignal(k),
		pauseSig:    sim.NewSignal(k),
		queueNUMA:   cfg.Node.Spec.NUMAOfCore(cfg.MainCore),
		commSig:     sim.NewSignal(k),
		commIdleSig: sim.NewSignal(k),
	}
	rt.comm = chain{rt: rt, pc: commStart}
	rt.comm.cont = sim.MakeCont(rt.comm.wake)
	return rt
}

// Node returns the node the runtime runs on.
func (rt *Runtime) Node() *machine.Node { return rt.node }

// Start spawns the worker processes and, on a runtime with an MPI
// rank, starts the communication thread from an event of this instant.
func (rt *Runtime) Start() {
	rt.startWorkers()
	if rt.cfg.Rank != nil {
		rt.k.At(rt.k.Now(), rt.comm.wake)
	}
}

// startWorkers spawns the worker processes.
func (rt *Runtime) startWorkers() {
	if rt.started {
		panic("taskrt: Start called twice")
	}
	rt.started = true
	workers := make([]worker, len(rt.cfg.WorkerCores))
	for i, core := range rt.cfg.WorkerCores {
		w := &workers[i]
		*w = worker{rt: rt, idx: i, core: core, numa: rt.node.Spec.NUMAOfCore(core)}
		rt.k.Spawn(fmt.Sprintf("worker.n%d.c%d", rt.node.ID, core), w.run)
	}
}

// Shutdown stops workers and the communication thread. Any process may
// call it; running tasks finish first (inflight must be zero).
func (rt *Runtime) Shutdown() {
	rt.shutdown = true
	rt.readySig.Broadcast()
	rt.pauseSig.Broadcast()
	rt.commIdleSig.Broadcast()
	rt.commSig.Signal() // the communication thread stops
}

// PauseWorkers stops worker polling entirely (starpu_pause); paused
// workers generate no queue traffic (Fig 9's "paused" series).
func (rt *Runtime) PauseWorkers() {
	rt.paused = true
	rt.readySig.Broadcast() // kick pollers into the paused state
}

// ResumeWorkers restarts polling.
func (rt *Runtime) ResumeWorkers() {
	rt.paused = false
	rt.pauseSig.Broadcast()
}

// Submit hands a task graph root to the scheduler from process p
// running the application's main thread (on MainCore). Tasks with
// unresolved dependencies are held until their predecessors finish.
func (rt *Runtime) Submit(p *sim.Proc, tasks ...*Task) {
	for _, t := range tasks {
		if t.doneSig == nil {
			t.doneSig = sim.NewSignal(rt.k)
		}
		rt.node.ExecCycles(p, rt.cfg.MainCore, submitCycles)
		// Push touches the shared queue on its home NUMA node.
		rt.node.MemAccesses(p, rt.cfg.MainCore, rt.queueNUMA, 2)
		rt.inflight++
		t.submitted = true
		if t.ndeps == 0 {
			rt.push(t)
		}
	}
}

// push marks a task ready. Runs in any context.
func (rt *Runtime) push(t *Task) {
	rt.queues[rt.queueFor(t)].Push(t)
	rt.readySig.Broadcast()
}

// WaitAll blocks p until every submitted task has completed.
func (rt *Runtime) WaitAll(p *sim.Proc) {
	for rt.inflight > 0 {
		rt.idleSig.Wait(p)
	}
}

// WaitTask blocks p until t completes.
func (rt *Runtime) WaitTask(p *sim.Proc, t *Task) {
	if t.doneSig == nil {
		t.doneSig = sim.NewSignal(rt.k)
	}
	for !t.done {
		t.doneSig.Wait(p)
	}
}

// pollTarget is the NUMA node an idle worker's polling hammers: the
// central queue's home under EagerFIFO, the worker's own node under
// NUMALocal (its local list is checked most often).
func (rt *Runtime) pollTarget(core int) int {
	if rt.cfg.Scheduler == NUMALocal {
		return rt.node.Spec.NUMAOfCore(core)
	}
	return rt.queueNUMA
}

// pollPeriod returns the steady-state interval between two queue polls
// of an idle worker: the saturated backoff nop loop at the core's
// current frequency plus one queue access.
func (rt *Runtime) pollPeriod(core int) sim.Duration {
	f := rt.node.Freq.CoreGHz(core)
	nops := sim.DurationOfSeconds(float64(rt.cfg.Backoff.Max) / (f * 1e9))
	access := rt.node.AccessLatency(rt.node.Spec.NUMAOfCore(core), rt.pollTarget(core))
	return nops + access
}

// pollTrafficRate converts the poll period into sustained coherence
// traffic on the polled queue's home controller: each poll moves the
// queue head's cacheline and the lock's cacheline.
func (rt *Runtime) pollTrafficRate(core int) float64 {
	period := rt.pollPeriod(core)
	if period <= 0 {
		return 0
	}
	return 2 * 64 / period.Seconds()
}

// throttled reports whether a worker (by its index in WorkerCores)
// must park because communication requests are in flight.
func (rt *Runtime) throttled(workerIdx int) bool {
	return rt.cfg.CommThrottle > workerIdx && rt.commInflight > 0
}

// worker is one worker thread (§5.4): poll, execute, repeat. Its
// process runs the tasks it wins and blocks on pause, throttle and
// shutdown. The idle protocol, from going idle to winning or losing a
// pushed task, runs as the process's continuation (step) in the event
// slots where the process would have woken, so the process is switched
// into only once it holds a task or must block.
type worker struct {
	rt              *Runtime
	idx, core, numa int // index in WorkerCores, core, the core's NUMA node
	p               *sim.Proc
	cont            *sim.Cont // p's continuation, running step
	phase           idlePhase
	// polling is the polling traffic flow while the worker is idle;
	// pollName, its name, is built on the worker's first idle wait.
	polling  machine.Background
	pollName string
	// task is the task the worker popped and fromQ its ready list.
	task  *Task
	fromQ int
}

// idlePhase is the step of the idle protocol the worker's continuation
// takes on its next wakeup.
type idlePhase int

const (
	idleWoken  idlePhase = iota // a push (or pause, throttle, shutdown) woke the worker
	idleNotice                  // the worker notices the push at its next poll
	idleSteal                   // one more poll period, then it may steal
)

// run is the life of the worker's process.
func (w *worker) run(p *sim.Proc) {
	rt, node := w.rt, w.rt.node
	w.p = p
	w.cont = p.Cont(w.step)
	for !rt.shutdown {
		if rt.paused {
			node.Freq.SetIdle(w.core)
			rt.pauseSig.Wait(p)
			continue
		}
		if rt.throttled(w.idx) {
			// Communication phase: park until the request list drains
			// (§8 future work; disabled unless Config.CommThrottle > 0).
			node.Freq.SetIdle(w.core)
			rt.commIdleSig.Wait(p)
			continue
		}
		if !w.poll() {
			p.Park()
		}
		t := w.task
		if t == nil {
			continue // shutdown, pause or throttle
		}
		w.task = nil
		// Pop: lock + head update on the ready list's home NUMA node.
		node.MemAccesses(p, w.core, rt.queueHomeNUMA(w.fromQ), 2)
		start := p.Now()
		node.ExecCompute(p, w.core, t.Spec)
		rt.traceEvent(w.core, "task", t.Spec.Name, start, p.Now())
		rt.complete(t)
	}
	node.Freq.SetIdle(w.core)
}

// poll is the head of the worker loop past its blocking checks, in the
// process or its continuation: busy-wait on the ready lists. It reports
// whether the process must run, because the worker won a task (w.task)
// or must block on shutdown, pause or throttle. Otherwise the worker
// has gone idle: its polling traffic flows and its continuation waits
// for the next push.
func (w *worker) poll() bool {
	rt := w.rt
	if w.held() {
		return true
	}
	// Busy-waiting burns the core at full speed.
	rt.node.Freq.SetActive(w.core, topology.Scalar)
	if w.pop(true) {
		return true
	}
	// Idle: install the polling traffic flow and wait for work.
	if w.pollName == "" {
		w.pollName = fmt.Sprintf("poll.n%d.c%d", rt.node.ID, w.core)
	}
	w.polling = rt.node.BackgroundStream(w.pollName, w.numa, rt.pollTarget(w.core), rt.pollTrafficRate(w.core))
	w.phase = idleWoken
	rt.readySig.WaitCont(w.cont)
	return false
}

// held reports whether the worker must stop polling and block:
// shutdown, pause or throttle.
func (w *worker) held() bool {
	rt := w.rt
	return rt.shutdown || rt.paused || rt.throttled(w.idx)
}

// pop tries the worker's ready lists (see tryPop) and reports whether
// it won a task.
func (w *worker) pop(steal bool) bool {
	w.task, w.fromQ = w.rt.tryPop(w.numa, steal)
	return w.task != nil
}

// step is the idle protocol after the worker's wakeup, one phase per
// wakeup, in event context. The worker notices a push only at its next
// poll: half a period on average, plus the contended pop. Local and
// central tasks first; stealing waits one more period so the data-local
// worker wins its own tasks. A worker that lost the race polls again.
func (w *worker) step() {
	rt := w.rt
	switch w.phase {
	case idleWoken:
		w.polling.Stop()
		if w.held() {
			w.p.Resume()
			return
		}
		w.phase = idleNotice
		rt.k.SleepCont(w.cont, rt.pollPeriod(w.core)/2)
	case idleNotice:
		if w.pop(false) {
			w.p.Resume()
			return
		}
		w.phase = idleSteal
		rt.k.SleepCont(w.cont, rt.pollPeriod(w.core))
	case idleSteal:
		if w.pop(true) || w.poll() {
			w.p.Resume()
		}
	}
}

// complete marks t done, releases dependants, and fires callbacks.
func (rt *Runtime) complete(t *Task) {
	t.done = true
	rt.inflight--
	for _, child := range t.children {
		child.ndeps--
		// Children declared but not yet submitted stay parked until
		// their own Submit (which pushes ready tasks itself).
		if child.ndeps == 0 && child.submitted && !child.done {
			rt.push(child)
		}
	}
	if t.OnDone != nil {
		t.OnDone()
	}
	if t.doneSig != nil {
		t.doneSig.Broadcast()
	}
	if rt.inflight == 0 {
		rt.idleSig.Broadcast()
	}
}
