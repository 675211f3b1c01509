package machine

import (
	"fmt"

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
	d := sim.Duration(float64(n.Freq.Cycles(core, cycles)) * n.CoreSlowdown(core))
	n.Counters.AddExec(core, cycles, 0, 0, 0)
	p.Sleep(d)
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
	from := n.Spec.NUMAOfCore(core)
	lat := n.AccessLatency(from, to)
	p.Sleep(sim.Duration(float64(lat) * count))
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
	_, elapsed := n.execSlices(p, core, spec, nil)
	return elapsed
}

// ExecLoop runs spec on a core slice after slice while next reports
// true — next is asked before every slice, like a loop condition — and
// returns the number of slices run. Each slice is an ExecCompute: the
// elapsed times, PMU counters (but for the stall estimate, below),
// energy and frequency trace are the ones a loop of ExecCompute calls
// produces.
//
// What the loop saves is fluid re-solves. next runs in p as soon as a
// slice has been accounted, with the core still active and its stream
// still counted; it must not block. When it asks for another slice, the
// slice's flow is usually still parked by its completion, and the loop
// renews it (fluid Model.Renew): no stream census update, no
// idle/active pair, no new flow, and one solve at most for all the
// slices that ended together. Otherwise — the flow was materialized,
// the node is down, its frequency trace is recording, or the core's
// rate cap moved — the slice ends and the next one starts under one
// fluid hold, one re-solve for the stream census update, the core's
// idle/active pair and the new flow.
//
// A memory-bound slice whose flow is still parked when it ends, or that
// was renewed, estimates its stall cycles from the controller load the
// renewal keeps rather than from the transient allocation around its
// end (see accountExec).
func (n *Node) ExecLoop(p *sim.Proc, core int, spec ComputeSpec, next func() bool) int {
	iters, _ := n.execSlices(p, core, spec, next)
	return iters
}

// execSlices is ExecLoop, with a nil next standing for a single slice;
// it also returns the elapsed time of the last slice.
func (n *Node) execSlices(p *sim.Proc, core int, spec ComputeSpec, next func() bool) (iters int, elapsed sim.Duration) {
	if spec.Flops < 0 || spec.Bytes < 0 {
		panic(fmt.Sprintf("machine: negative work %+v", spec))
	}
	single := next == nil
	if spec.Flops == 0 && spec.Bytes == 0 {
		for !single && next() {
			iters++
		}
		return iters, 0
	}
	if !single && !next() {
		return 0, 0
	}
	exposure := spec.StallExposure
	if exposure == 0 {
		exposure = 1
	}
	name := spec.Name
	if name == "" {
		name = n.computeName(core)
	}
	coreNUMA := n.Spec.NUMAOfCore(core)
	memNUMA := spec.MemNUMA
	if memNUMA < 0 {
		memNUMA = coreNUMA
	}
	mem := spec.Bytes > 0
	var ctrl *fluid.Resource
	if mem {
		ctrl = n.NUMA(memNUMA).Ctrl
	}
	fl := n.cluster.Fluid
	rk := &n.coreFlow[core]
	done := n.cluster.K.GetSignal()

	fl.Hold()
	for {
		if n.down {
			// gateUp blocks: no hold may span simulated time.
			fl.Release()
			n.gateUp(p)
			fl.Hold()
		}
		n.Freq.SetActive(core, spec.Class)
		start := p.Now()
		rk.class = spec.Class
		fs := fluid.FlowSpec{Name: name, OnDone: done.BroadcastFn(), Renewable: !single}
		if !mem {
			// Pure CPU: the flow is denominated in flops, capped by the
			// core's flop ceiling (which tracks frequency changes).
			rk.mem = false
			rk.ai = 0
			fs.Work = spec.Flops
		} else {
			// Roofline: the flow is denominated in bytes; its rate is capped
			// by the compute ceiling translated through the arithmetic
			// intensity, and it shares the memory path fairly.
			rk.mem = true
			rk.ai = spec.Flops / spec.Bytes
			n.addStream(memNUMA)
			fs.Work = spec.Bytes
			fs.Uses = n.memPath(coreNUMA, memNUMA)
		}
		fs.Cap = rk.cap()
		flow := fl.Start(fs)
		fl.Release()
		rk.flow = flow
		rhoStart := 0.0
		if mem {
			rhoStart = ctrl.Utilization()
		}
		more := false
		for {
			done.Wait(p)
			elapsed = p.Now().Sub(start)
			n.accountExec(core, spec, memNUMA, exposure, rhoStart, elapsed, flow.Parked())
			iters++
			more = !single && next()
			if !more || n.down || n.Freq.Tracing() || flow.Cap() != rk.cap() || !fl.Renew(flow) {
				break
			}
			// Renewed: the core stays active and its stream counted, but
			// the energy integral splits here as the idle/active pair
			// would split it.
			n.Freq.AccrueEnergy()
			start = p.Now()
			if mem {
				rhoStart = ctrl.SteadyUtilization()
			}
		}
		// Nothing can reach the finished flow any more (the rescaling
		// hooks check rk.flow), so its storage goes back to the model;
		// a flow still parked is materialized first.
		rk.flow = nil
		fl.Recycle(flow)

		// Slice boundary: this slice's epilogue and the next slice's
		// prologue (at the top of the loop), under one hold.
		fl.Hold()
		if mem {
			n.removeStream(memNUMA)
		}
		n.Freq.SetIdle(core)
		if !more {
			break
		}
	}
	fl.Release()
	n.cluster.K.PutSignal(done)
	return iters, elapsed
}

// computeName returns the cached default flow name of a core's compute
// slice.
func (n *Node) computeName(core int) string {
	if n.computeNames == nil {
		n.computeNames = make([]string, len(n.coreFlow))
	}
	if n.computeNames[core] == "" {
		n.computeNames[core] = fmt.Sprintf("n%d.c%d.compute", n.ID, core)
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
func (n *Node) accountExec(core int, spec ComputeSpec, memNUMA int, exposure, rhoStart float64, elapsed sim.Duration, steady bool) {
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
