package machine

import (
	"fmt"
	"strconv"

	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Buffer is a block of simulated memory pinned to a NUMA node.
type Buffer struct {
	Node *Node
	NUMA int
	Size int64
	// Registered tracks memory registration for RDMA (pin-down cache,
	// Tezuka et al.): the first rendezvous send of a buffer pays the
	// registration cost, recycled buffers do not.
	Registered bool
}

// Alloc allocates a buffer bound to the given NUMA node (the paper's
// explicit numactl-style allocation).
func (n *Node) Alloc(size int64, numa int) *Buffer {
	if size < 0 {
		panic(fmt.Sprintf("machine: negative buffer size %d", size))
	}
	n.NUMA(numa) // range check
	return &Buffer{Node: n, NUMA: numa, Size: size}
}

// AllocFirstTouch allocates a buffer on the NUMA node of the touching
// core (the default Linux policy, relevant for the StarPU study §5.3).
func (n *Node) AllocFirstTouch(size int64, core int) *Buffer {
	return n.Alloc(size, n.Spec.NUMAOfCore(core))
}

// ExecCycles burns a fixed number of CPU cycles on a core at its
// current frequency (software overheads, runtime costs). The caller is
// responsible for the core's active/idle census.
func (n *Node) ExecCycles(p *sim.Proc, core int, cycles float64) {
	if cycles <= 0 {
		return
	}
	n.gateUp(p)
	p.Sleep(n.startCycles(core, cycles))
}

// ExecCyclesCont is ExecCycles for a continuation, for cycles > 0: it
// reports false while the node is down, with c queued on its recovery
// to ask again, and otherwise arms c for the burn's end.
func (n *Node) ExecCyclesCont(c *sim.Cont, core int, cycles float64) bool {
	if n.down {
		n.upSig.WaitCont(c)
		return false
	}
	n.K().SleepCont(c, n.startCycles(core, cycles))
	return true
}

// startCycles accounts a burn of cycles > 0 on a core, starting now,
// and returns how long it takes.
func (n *Node) startCycles(core int, cycles float64) sim.Duration {
	d := sim.Duration(float64(n.Freq.Cycles(core, cycles)) * n.CoreSlowdown(core))
	n.Counters.AddExec(core, cycles, 0, 0, 0)
	return d
}

// MemAccesses blocks p for `count` serialized memory accesses from the
// core's NUMA node to memory on NUMA `to`, at the current load-dependent
// access latency. This is the building block of the small-message (PIO)
// software path.
func (n *Node) MemAccesses(p *sim.Proc, core int, to int, count float64) {
	if count <= 0 {
		return
	}
	n.gateUp(p)
	p.Sleep(sim.Duration(float64(n.AccessLatency(n.Spec.NUMAOfCore(core), to)) * count))
}

// MemAccessesCont is MemAccesses for a continuation, for count > 0, as
// ExecCyclesCont is ExecCycles.
func (n *Node) MemAccessesCont(c *sim.Cont, core, to int, count float64) bool {
	if n.down {
		n.upSig.WaitCont(c)
		return false
	}
	n.K().SleepCont(c, sim.Duration(float64(n.AccessLatency(n.Spec.NUMAOfCore(core), to))*count))
	return true
}

// ComputeSpec describes one execution slice of a compute kernel on a
// core, in roofline terms.
type ComputeSpec struct {
	// Flops to retire and Bytes to move from/to memory. Bytes == 0 means
	// a pure CPU-bound slice (no memory traffic at all).
	Flops, Bytes float64
	// Class selects the vector licence and flops/cycle throughput.
	Class topology.VecClass
	// MemNUMA is where the data lives (ignored when Bytes == 0).
	// A negative value means "local to the executing core's NUMA node"
	// (cache-blocked kernels with locality-aware placement, e.g. GEMM
	// tiles).
	MemNUMA int
	// StallExposure scales how much of the memory-wait time the PMU
	// observes as stall cycles (out-of-order overlap hides some of it);
	// 1 exposes everything, 0 hides everything. Zero value defaults to 1.
	// The effective exposure also grows with the crossed controller's
	// utilization: prefetchers hide latency well on a quiet bus and
	// poorly on a saturated one (this is what makes Fig 10's stall
	// fraction rise with the worker count).
	StallExposure float64
	// BaseStallFrac is the kernel-intrinsic stall floor (compulsory
	// cache misses at tile/block boundaries) observed even on an idle
	// memory bus.
	BaseStallFrac float64
	// Name labels the fluid flow for diagnostics.
	Name string
}

// ExecCompute runs one kernel slice on a core, blocking p until it
// completes. It marks the core active for the frequency model, runs the
// slice as a fluid flow (memory-bound slices share controller/link
// bandwidth; all slices are capped by the core's compute ceiling at its
// live frequency), updates the PMU counters, and idles the core again.
//
// Returns the elapsed duration. ExecCompute is one pass of ExecLoop.
func (n *Node) ExecCompute(p *sim.Proc, core int, spec ComputeSpec) sim.Duration {
	return n.execSlices(p, core, spec, nil).elapsed
}

// ExecLoop runs spec on a core slice after slice while next reports
// true — next is asked before every slice, like a loop condition — and
// returns the number of slices run. Each slice is an ExecCompute: the
// elapsed times, PMU counters (but for the stall estimate, below),
// energy and frequency trace are the ones a loop of ExecCompute calls
// produces. It is StartLoop with p parked until the loop ends.
//
// What the loop saves is fluid re-solves. next runs in event context at
// the instant a slice ends, in the slot where p would wake from that
// slice, once the slice has been accounted, with the core still active
// and its stream still counted; it must not block. When it asks for
// another slice, the slice's flow is usually still parked by its
// completion, and the loop renews it (fluid Model.Renew): no stream
// census update, no idle/active pair, no new flow, and one solve at
// most for all the slices that ended together. Otherwise — the flow was
// materialized, the node is down, its frequency trace is recording, or
// the core's rate cap moved — the slice ends and the next one starts
// under one fluid hold, one re-solve for the stream census update, the
// core's idle/active pair and the new flow.
//
// A memory-bound slice whose flow is still parked when it ends, or that
// was renewed, estimates its stall cycles from the controller load the
// renewal keeps rather than from the transient allocation around its
// end (see accountExec).
func (n *Node) ExecLoop(p *sim.Proc, core int, spec ComputeSpec, next func() bool) int {
	return n.execSlices(p, core, spec, next).iters
}

// execSlices runs a loop for p: p parks while the loop runs, and the
// loop's end resumes it in the same event. It returns the core's slot,
// whose iters and elapsed still hold the loop's results: nothing runs
// between the end and p.
func (n *Node) execSlices(p *sim.Proc, core int, spec ComputeSpec, next func() bool) *runningKernel {
	rk := n.slot(core)
	if rk.start(spec, next, nil) {
		rk.proc = p
		p.Park()
	}
	return rk
}

// LoopEnd is what a loop started by StartLoop reports when it ends.
type LoopEnd struct {
	Node *Node
	Spec ComputeSpec
	// Iters is the number of slices run, and Total the time from
	// StartLoop to the end of the last slice.
	Iters int
	Total sim.Duration
}

// StartLoop runs spec on a core slice after slice while next reports
// true, exactly as ExecLoop does, but with no process: every slice end
// runs as a continuation in the event slot where a process running
// ExecLoop from this instant would wake, and a down node holds the loop
// at a slice boundary on a continuation too. A nil next runs one slice,
// as ExecCompute does. done, when non-nil, runs in event context once
// the loop has ended — at once when it runs no slice — and the loop's
// core may start another loop from it. A core runs one loop at a time.
func (n *Node) StartLoop(core int, spec ComputeSpec, next func() bool, done func(LoopEnd)) {
	n.slot(core).start(spec, next, done)
}

// start begins the core's loop and reports whether it is still running:
// it returns false when it ended at once, having run no slice.
func (rk *runningKernel) start(spec ComputeSpec, next func() bool, done func(LoopEnd)) bool {
	n := rk.node
	if spec.Flops < 0 || spec.Bytes < 0 {
		panic(fmt.Sprintf("machine: negative work %+v", spec))
	}
	if rk.sig != nil {
		panic(fmt.Sprintf("machine: core %d of node %d already runs a loop", rk.core, n.ID))
	}
	rk.iters, rk.elapsed = 0, 0
	if spec.Flops == 0 && spec.Bytes == 0 {
		for next != nil && next() {
			rk.iters++
		}
		rk.end(done, spec, 0)
		return false
	}
	if next != nil && !next() {
		rk.end(done, spec, 0)
		return false
	}
	rk.spec, rk.next, rk.done = spec, next, done
	rk.memNUMA = spec.MemNUMA
	if rk.memNUMA < 0 {
		rk.memNUMA = n.Spec.NUMAOfCore(rk.core)
	}
	// Roofline parameters: a pure CPU slice's flow is denominated in
	// flops; a memory-bound one's in bytes, its cap translated through
	// the arithmetic intensity.
	rk.class = spec.Class
	rk.mem = spec.Bytes > 0
	rk.ai = 0
	if rk.mem {
		rk.ai = spec.Flops / spec.Bytes
	}
	rk.begun = n.cluster.K.Now()
	rk.sig = n.cluster.K.GetSignal()
	n.cluster.loops++
	n.cluster.Fluid.Hold()
	rk.top()
	return true
}

// top is the head of the slice loop, entered under a fluid hold: it
// starts the next slice, or holds the loop on the node's recovery while
// the node is down.
func (rk *runningKernel) top() {
	if rk.node.down {
		// No hold may span simulated time.
		rk.node.cluster.Fluid.Release()
		rk.gated = true
		rk.node.upSig.WaitCont(&rk.cont)
		return
	}
	rk.startSlice()
}

// step is the loop's continuation: the wakeup of a loop held by a down
// node, or the end of the slice in flight.
func (rk *runningKernel) step() {
	if !rk.gated {
		rk.endSlice()
		return
	}
	if rk.node.down {
		rk.node.upSig.WaitCont(&rk.cont)
		return
	}
	rk.gated = false
	rk.node.cluster.Fluid.Hold()
	rk.startSlice()
}

// startSlice starts a slice's flow under the hold top entered with,
// releases it, and waits for the flow's completion.
func (rk *runningKernel) startSlice() {
	n := rk.node
	fl := n.cluster.Fluid
	n.Freq.SetActive(rk.core, rk.class)
	rk.sliceStart = n.cluster.K.Now()
	fs := fluid.FlowSpec{Name: rk.spec.Name, OnDone: rk.sig.BroadcastFn(), Renewable: rk.next != nil}
	if fs.Name == "" {
		fs.Name = n.computeName(rk.core)
	}
	if !rk.mem {
		// Pure CPU: the flow is capped by the core's flop ceiling (which
		// tracks frequency changes).
		fs.Work = rk.spec.Flops
	} else {
		// Roofline: the flow shares the memory path fairly.
		n.addStream(rk.memNUMA)
		fs.Work = rk.spec.Bytes
		fs.Uses = n.memPath(n.Spec.NUMAOfCore(rk.core), rk.memNUMA)
	}
	fs.Cap = rk.cap()
	flow := fl.Start(fs)
	fl.Release()
	rk.flow = flow
	rk.rhoStart = 0
	if rk.mem {
		rk.rhoStart = n.NUMA(rk.memNUMA).Ctrl.Utilization()
	}
	rk.sig.WaitCont(&rk.cont)
}

// endSlice accounts the slice whose flow just completed, asks next, and
// renews the slice, starts the next one, or ends the loop.
func (rk *runningKernel) endSlice() {
	n := rk.node
	fl := n.cluster.Fluid
	flow := rk.flow
	now := n.cluster.K.Now()
	rk.elapsed = now.Sub(rk.sliceStart)
	n.accountExec(rk.core, rk.spec, rk.memNUMA, rk.rhoStart, rk.elapsed, flow.Parked())
	rk.iters++
	more := rk.next != nil && rk.next()
	if more && !n.down && !n.Freq.Tracing() && flow.Cap() == rk.cap() && fl.Renew(flow) {
		// Renewed: the core stays active and its stream counted, but the
		// energy integral splits here as the idle/active pair would
		// split it.
		n.Freq.AccrueEnergy()
		rk.sliceStart = now
		if rk.mem {
			rk.rhoStart = n.NUMA(rk.memNUMA).Ctrl.SteadyUtilization()
		}
		rk.sig.WaitCont(&rk.cont)
		return
	}
	// Nothing can reach the finished flow any more (the rescaling hooks
	// check rk.flow), so its storage goes back to the model; a flow
	// still parked is materialized first.
	rk.flow = nil
	fl.Recycle(flow)

	// Slice boundary: this slice's epilogue and the next slice's
	// prologue (in top), under one hold.
	fl.Hold()
	if rk.mem {
		n.removeStream(rk.memNUMA)
	}
	n.Freq.SetIdle(rk.core)
	if more {
		rk.top()
		return
	}
	fl.Release()
	n.cluster.K.PutSignal(rk.sig)
	rk.sig = nil
	n.cluster.loops--
	p, done := rk.proc, rk.done
	rk.proc, rk.done, rk.next = nil, nil, nil
	if p != nil {
		p.Resume()
		return
	}
	rk.end(done, rk.spec, now.Sub(rk.begun))
}

// end reports a loop that has ended to its StartLoop caller.
func (rk *runningKernel) end(done func(LoopEnd), spec ComputeSpec, total sim.Duration) {
	if done != nil {
		done(LoopEnd{Node: rk.node, Spec: spec, Iters: rk.iters, Total: total})
	}
}

// computeName returns the cached default flow name of a core's compute
// slice.
func (n *Node) computeName(core int) string {
	if n.computeNames == nil {
		n.computeNames = make([]string, n.Spec.Cores())
	}
	if n.computeNames[core] == "" {
		n.computeNames[core] = "n" + strconv.Itoa(n.ID) + ".c" + strconv.Itoa(core) + ".compute"
	}
	return n.computeNames[core]
}

// accountExec updates the PMU model for a completed slice: total busy
// cycles from wall time at the core's frequency, and stalled cycles
// from the gap between the achieved rate and the compute ceiling. The
// observed fraction is the kernel's intrinsic floor plus the exposed
// memory-wait share, weighted by how loaded the crossed controller is
// (an idle bus lets prefetchers hide most of the wait).
//
// steady reads the controller at the end without materializing the
// slice's parked flow (fluid Resource.SteadyUtilization): the load a
// renewal keeps, the slice's own stream included, instead of the
// allocation the other flows get for the instant once it has ended.
// Loops pass it while their flow is parked, and read rhoStart of a
// renewed slice the same way.
func (n *Node) accountExec(core int, spec ComputeSpec, memNUMA int, rhoStart float64, elapsed sim.Duration, steady bool) {
	fgHz := n.Freq.CoreGHz(core)
	secs := elapsed.Seconds()
	cycles := secs * fgHz * 1e9
	frac := spec.BaseStallFrac
	if secs > 0 && spec.Bytes > 0 {
		computeSecs := spec.Flops / n.Freq.FlopsRate(core, spec.Class)
		if computeSecs > secs {
			computeSecs = secs
		}
		raw := (secs - computeSecs) / secs
		// Bus utilization during the slice: the worse of the utilization
		// when the stream started (including itself) and the surviving
		// flows plus this slice's own average rate at the end.
		ctrl := n.NUMA(memNUMA).Ctrl
		var rho float64
		if steady {
			rho = ctrl.SteadyUtilization()
		} else {
			rho = ctrl.Utilization()
		}
		rho += spec.Bytes / secs / ctrl.Capacity()
		if rhoStart > rho {
			rho = rhoStart
		}
		if rho > 1 {
			rho = 1
		}
		exposure := spec.StallExposure
		if exposure == 0 {
			exposure = 1
		}
		frac += exposure * raw * (0.3 + 0.7*rho)
	}
	if frac > 0.95 {
		frac = 0.95
	}
	n.Counters.AddExec(core, cycles, frac*cycles, spec.Flops, spec.Bytes)
}

// BackgroundStream injects a continuous memory traffic flow (e.g. the
// cacheline traffic of polling workers hammering a shared task queue)
// from NUMA `from` to memory on NUMA `to` at the given rate in bytes/s.
// Stop it with the returned handle's Stop. Background streams do not
// count in the stream census (they model coherence traffic, not
// streaming reads), but they do consume controller bandwidth and raise
// utilization, which feeds the access-latency model.
func (n *Node) BackgroundStream(name string, from, to int, rate float64) Background {
	if rate <= 0 {
		return Background{}
	}
	const forever = 1e18 // effectively unbounded work
	m := n.cluster.Fluid
	return Background{m: m, flow: m.StartFlow(name, forever, rate, n.memPath(from, to), nil)}
}

// Background is a running background stream (see BackgroundStream). It
// is a plain value, so a caller can keep it on its stack; stop it
// through one variable.
type Background struct {
	m    *fluid.Model
	flow *fluid.Flow
}

// Stop cancels the stream and recycles its flow's storage for the next
// start. Stopping it again does nothing: the struct may be a later flow
// by then.
func (b *Background) Stop() {
	if b.flow == nil {
		return
	}
	b.m.Cancel(b.flow)
	b.m.Recycle(b.flow)
	b.flow = nil
}
