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
	// QueueNUMA is the NUMA node holding the shared task queue and its
	// lock; defaults to the main core's NUMA node (first touch by the
	// thread that initialises the runtime).
	QueueNUMA int
	// QueueNUMASet records whether QueueNUMA was set explicitly.
	QueueNUMASet bool
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

// commReq is a starpu_mpi request processed by the communication
// thread.
type commReq struct {
	send     bool
	peer     int
	tag      int
	buf      *machine.Buffer
	size     int64
	onDone   func()
	doneSig  *sim.Signal
	complete bool
	sentinel bool
	// ft routes the request through the fault-tolerant MPI operations
	// (SendFT/RecvFT); err records their outcome (nil, ErrPeerDead, or a
	// retransmission-budget failure) for CommHandle.Wait.
	ft  bool
	err error
}

// Runtime is one node's runtime instance.
type Runtime struct {
	cfg  Config
	node *machine.Node
	k    *sim.Kernel

	queues   []*sim.Queue[*Task] // per-NUMA ready lists + central list
	readySig *sim.Signal         // wakes polling workers
	inflight int                 // submitted but not completed tasks
	idleSig  *sim.Signal         // broadcast when inflight returns to 0
	commQ    *sim.Queue[*commReq]
	paused   bool
	pauseSig *sim.Signal
	shutdown bool
	started  bool

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
	if !cfg.QueueNUMASet {
		cfg.QueueNUMA = cfg.Node.Spec.NUMAOfCore(cfg.MainCore)
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
		readySig:    sim.NewSignal(k),
		idleSig:     sim.NewSignal(k),
		commQ:       sim.NewQueue[*commReq](k),
		pauseSig:    sim.NewSignal(k),
		commIdleSig: sim.NewSignal(k),
	}
	for i := 0; i <= cfg.Node.Spec.NUMANodes(); i++ {
		rt.queues = append(rt.queues, sim.NewQueue[*Task](k))
	}
	return rt
}

// Node returns the node the runtime runs on.
func (rt *Runtime) Node() *machine.Node { return rt.node }

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Start spawns the worker and communication-thread processes.
func (rt *Runtime) Start() {
	if rt.started {
		panic("taskrt: Start called twice")
	}
	rt.started = true
	for i, core := range rt.cfg.WorkerCores {
		i, core := i, core
		rt.k.Spawn(fmt.Sprintf("worker.n%d.c%d", rt.node.ID, core), func(p *sim.Proc) {
			rt.workerLoop(p, i, core)
		})
	}
	if rt.cfg.Rank != nil {
		rt.k.Spawn(fmt.Sprintf("commthread.n%d", rt.node.ID), func(p *sim.Proc) {
			rt.commLoop(p)
		})
	}
}

// Shutdown stops workers and the communication thread. Any process may
// call it; running tasks finish first (inflight must be zero).
func (rt *Runtime) Shutdown() {
	rt.shutdown = true
	rt.readySig.Broadcast()
	rt.pauseSig.Broadcast()
	rt.commIdleSig.Broadcast()
	rt.commQ.Push(&commReq{sentinel: true}) // unblock the comm thread
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
		rt.node.MemAccesses(p, rt.cfg.MainCore, rt.cfg.QueueNUMA, 2)
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
	return rt.cfg.QueueNUMA
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

// commStarted/commFinished maintain the communication-phase census.
func (rt *Runtime) commStarted() { rt.commInflight++ }

func (rt *Runtime) commFinished() {
	rt.commInflight--
	if rt.commInflight == 0 {
		rt.commIdleSig.Broadcast()
	}
}

// workerLoop is the life of one worker (§5.4): poll, execute, repeat.
func (rt *Runtime) workerLoop(p *sim.Proc, workerIdx, core int) {
	node := rt.node
	workerNUMA := node.Spec.NUMAOfCore(core)
	// The polling flow's name, built on the worker's first idle wait.
	var pollName string
	for !rt.shutdown {
		if rt.paused {
			node.Freq.SetIdle(core)
			rt.pauseSig.Wait(p)
			continue
		}
		if rt.throttled(workerIdx) {
			// Communication phase: park until the request list drains
			// (§8 future work; disabled unless Config.CommThrottle > 0).
			node.Freq.SetIdle(core)
			rt.commIdleSig.Wait(p)
			continue
		}
		// Busy-waiting burns the core at full speed.
		node.Freq.SetActive(core, topology.Scalar)
		t, fromQ, ok := rt.tryPop(workerNUMA, true)
		if !ok {
			// Idle: install the polling traffic flow and wait for work.
			if pollName == "" {
				pollName = fmt.Sprintf("poll.n%d.c%d", node.ID, core)
			}
			stop := node.BackgroundStream(pollName, workerNUMA, rt.pollTarget(core), rt.pollTrafficRate(core))
			rt.readySig.Wait(p)
			stop.Stop()
			if rt.shutdown || rt.paused || rt.throttled(workerIdx) {
				continue
			}
			// The worker notices the push only at its next poll:
			// half a period on average, plus the contended pop. Local and
			// central tasks first; stealing waits one more period so the
			// data-local worker wins its own tasks.
			p.Sleep(rt.pollPeriod(core) / 2)
			t, fromQ, ok = rt.tryPop(workerNUMA, false)
			if !ok {
				p.Sleep(rt.pollPeriod(core))
				t, fromQ, ok = rt.tryPop(workerNUMA, true)
			}
			if !ok {
				continue // another worker won the race
			}
		}
		// Pop: lock + head update on the ready list's home NUMA node.
		node.MemAccesses(p, core, rt.queueHomeNUMA(fromQ), 2)
		start := p.Now()
		node.ExecCompute(p, core, t.Spec)
		rt.traceEvent(core, "task", t.Spec.Name, start, p.Now())
		rt.complete(t)
	}
	node.Freq.SetIdle(core)
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
