// Package net models the cluster interconnect: full-duplex links
// between nodes, the NIC's PIO path for small messages (doorbell +
// descriptor writes by the CPU, sensitive to core frequency, NUMA
// placement and memory-bus contention) and the NIC's DMA path for large
// messages (a fluid flow crossing the data's memory controller, the
// inter-NUMA link when the data is far from the NIC, PCIe and the
// wire, arbitrating against compute streams).
package net

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/fluid"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Network connects the nodes of a cluster over a fabric of directed
// links, one fluid resource per link. New builds the paper's network,
// the direct fabric of one full-duplex wire per node pair; NewOnFabric
// builds any fabric of internal/topology, switched ones included.
type Network struct {
	cluster *machine.Cluster
	// inj, when non-nil, is the fault injector bound to this network:
	// it scales link capacities (link degradation) and gates operations
	// on NIC stalls. Nil on healthy worlds — every consult below is
	// nil-guarded so the fault-free path is byte-identical to before the
	// fault subsystem existed.
	inj *fault.Injector

	// useBuf is scratch for assembling per-transfer fluid paths:
	// fluid.Start copies its Uses, so the transfer hot paths build the
	// path in place (the sim kernel never preempts between the build and
	// the Start that consumes it).
	useBuf []fluid.Use

	// Lazily cached flow names for the transfer hot paths, so repeated
	// transfers between the same endpoints don't rebuild them.
	memcpyNames []string
	dmaNames    map[int]string // key: src·nodes + dst
	eagerNames  map[int]string

	// freeTasks recycles the tasks of the software and transfer paths
	// (see task).
	freeTasks []*task

	fab      *topology.Fabric
	links    []*fluid.Resource // one per directed fabric link
	load     topology.LoadFunc // links[i].Utilization under adaptive routing, else nil
	routeBuf []int             // scratch for Route (same discipline as useBuf)
}

// New builds the paper's interconnect for a cluster: the direct fabric
// of one full-duplex wire per node pair (topology.ClusterFabric).
func New(c *machine.Cluster) *Network {
	return NewOnFabric(c, topology.ClusterFabric(len(c.Nodes)), false)
}

// Reset rewinds the network to its freshly built state against the
// cluster's (possibly re-bound) spec: the fault injector is unbound and
// every link gets its healthy capacity back, which a link that inherits
// the NIC wire rate takes from the current spec. Cached flow names
// survive — they depend only on node ids.
func (nw *Network) Reset() {
	nw.inj = nil
	rate := nw.linkRate()
	for _, r := range nw.links {
		nw.cluster.Fluid.SetCapacity(r, rate)
	}
}

// memcpyName / dmaName / eagerName return the cached flow names of the
// transfer hot paths.
func (nw *Network) memcpyName(id int) string {
	for len(nw.memcpyNames) <= id {
		nw.memcpyNames = append(nw.memcpyNames, "")
	}
	if nw.memcpyNames[id] == "" {
		nw.memcpyNames[id] = fmt.Sprintf("memcpy.n%d", id)
	}
	return nw.memcpyNames[id]
}

func (nw *Network) dmaName(src, dst int) string {
	return nw.pairName(&nw.dmaNames, "dma.n", src, dst)
}

func (nw *Network) eagerName(src, dst int) string {
	return nw.pairName(&nw.eagerNames, "eager.n", src, dst)
}

// pairName returns the name prefix+"<src>->n<dst>" from names, keyed by
// the pair's index in the node-count square, building and caching it on
// first use.
func (nw *Network) pairName(names *map[int]string, prefix string, src, dst int) string {
	key := src*len(nw.cluster.Nodes) + dst
	if name, ok := (*names)[key]; ok {
		return name
	}
	if *names == nil {
		*names = make(map[int]string)
	}
	var b [32]byte
	buf := append(b[:0], prefix...)
	buf = strconv.AppendInt(buf, int64(src), 10)
	buf = append(buf, "->n"...)
	buf = strconv.AppendInt(buf, int64(dst), 10)
	name := string(buf)
	(*names)[key] = name
	return name
}

// InstallFaults binds a fault injector to the network: LinkDegrade
// events scale link capacities (relative to their healthy capacity,
// see scaleLinks), NICStall events gate the PIO path and transfer
// starts, and the MPI layer above reads the injector back via Faults
// for loss, corruption and comm-thread hangs.
func (nw *Network) InstallFaults(inj *fault.Injector) {
	nw.inj = inj
	inj.BindWires(nw.scaleLinks)
}

// Faults returns the installed fault injector, or nil on healthy worlds.
func (nw *Network) Faults() *fault.Injector { return nw.inj }

// WireLatency returns the one-way hardware latency of the interconnect.
func (nw *Network) WireLatency() sim.Duration {
	return sim.Duration(nw.cluster.Spec.NIC.WireLatencyNs)
}

// PIO-path calibration. The software send/recv path performs
// load-dependent round-trips toward the NIC: doorbell/descriptor MMIO
// writes and CQ polling. Two contention couplings apply:
//
//   - the inter-NUMA interconnect toward the NIC: a communication
//     thread bound far from the NIC crosses the UPI, and once computing
//     cores on its socket saturate that link the accesses queue — the
//     mechanism behind Fig 4a's latency doubling from ≈25 cores;
//   - the NIC NUMA node's memory controller: descriptors and CQ entries
//     are DDIO-placed in the LLC, so DRAM pressure leaks into the path
//     only weakly (ddioCtrlCoupling of the controller's queueing).
const ddioCtrlCoupling = 0.15

// pioAccessTime returns the duration of the PIO access mix for one
// operation issued by commCore toward the NIC.
func pioAccessTime(n *machine.Node, commCore int, accesses float64) sim.Duration {
	from := n.Spec.NUMAOfCore(commCore)
	nic := n.Spec.NIC.NUMA
	base := n.Spec.Mem.LocalLatencyNs
	if from != nic {
		base = n.Spec.Mem.RemoteLatencyNs
	}
	f := n.Freq.UncoreGHz()
	base *= 1 + n.Spec.Mem.UncoreLatFactor*(n.Spec.Freq.UncoreMax/f-1)
	extra := ddioCtrlCoupling * n.CtrlContention(nic)
	if from != nic {
		extra += n.LinkContention(from, nic)
	}
	return sim.Duration(base * (1 + extra) * accesses)
}

// payloadAccessTime is the cost of touching the message payload (or
// its cache lines) on its home NUMA node: one access whose DRAM-side
// contention is DDIO-dampened but which queues on the inter-NUMA link
// when the buffer lives on another NUMA node than the communication
// thread. This is what makes "data far from the communication thread"
// visibly slower for small messages (Fig 5b, Fig 8).
func payloadAccessTime(n *machine.Node, commCore, bufNUMA int) sim.Duration {
	from := n.Spec.NUMAOfCore(commCore)
	base := n.Spec.Mem.LocalLatencyNs
	if from != bufNUMA {
		base = n.Spec.Mem.RemoteLatencyNs
	}
	f := n.Freq.UncoreGHz()
	base *= 1 + n.Spec.Mem.UncoreLatFactor*(n.Spec.Freq.UncoreMax/f-1)
	extra := ddioCtrlCoupling * n.CtrlContention(bufNUMA)
	if from != bufNUMA {
		extra += n.LinkContention(from, bufNUMA)
	}
	return sim.Duration(base * (1 + extra))
}

// SendOverhead blocks p for the software overhead (the LogP "o") of
// injecting one message on node n from commCore: fixed CPU cycles at
// the core's current frequency, the PIO access mix toward the NIC, and
// one payload touch on the buffer's NUMA node. It is StartSendOverhead
// with p parked until the overhead ends.
func (nw *Network) SendOverhead(p *sim.Proc, n *machine.Node, commCore, bufNUMA int) {
	nw.run(p, nw.overhead(taskSendOverhead, n, commCore, bufNUMA, nil))
}

// RecvOverhead blocks p for the software overhead of completing one
// message reception on node n from commCore: StartRecvOverhead with p
// parked until the overhead ends.
func (nw *Network) RecvOverhead(p *sim.Proc, n *machine.Node, commCore, bufNUMA int) {
	nw.run(p, nw.overhead(taskRecvOverhead, n, commCore, bufNUMA, nil))
}

// StartSendOverhead runs SendOverhead's steps without a process and
// calls then (with true) once they are over: in event context, or at
// once when the overhead ends within the call.
func (nw *Network) StartSendOverhead(n *machine.Node, commCore, bufNUMA int, then func(bool)) {
	nw.overhead(taskSendOverhead, n, commCore, bufNUMA, then).step()
}

// StartRecvOverhead runs RecvOverhead's steps without a process, as
// StartSendOverhead does.
func (nw *Network) StartRecvOverhead(n *machine.Node, commCore, bufNUMA int, then func(bool)) {
	nw.overhead(taskRecvOverhead, n, commCore, bufNUMA, then).step()
}

// overhead returns the task of a software overhead on node n: wait out
// a NIC stall, burn cycles on commCore once the node is up, then sleep
// the PIO access mix and one payload touch on bufNUMA.
func (nw *Network) overhead(kind taskKind, n *machine.Node, commCore, bufNUMA int, then func(bool)) *task {
	x := nw.task(kind, n, n, then)
	x.core, x.srcNUMA = commCore, bufNUMA
	return x
}

// ioScale is the uncore-frequency scaling of the NIC-to-memory I/O
// path (DDIO / IMC ingress queues are uncore-clocked): an uncore pinned
// below its maximum shaves a few percent off the achievable DMA
// throughput — the paper's 10.5 → 10.1 GB/s observation (Fig 1b). With
// the default demand-driven uncore, I/O activity keeps the domain fast
// and the path runs at full speed.
func ioScale(n *machine.Node) float64 {
	if !n.Freq.UncoreIsFixed() {
		return 1
	}
	f := n.Freq.UncoreGHz()
	return 1 - 0.04*(n.Spec.Freq.UncoreMax/f-1)
}

// dmaUses appends onto buf the fluid path of an RDMA transfer of a
// buffer on srcNUMA of node src to a buffer on dstNUMA of node dst:
// source controller (+ link to the NIC when the data is far from it),
// source PCIe, the routed links, destination PCIe and destination
// controller (+ link). The transfer paths pass the network's scratch.
func (nw *Network) dmaUses(buf []fluid.Use, src *machine.Node, srcNUMA int, dst *machine.Node, dstNUMA int) []fluid.Use {
	uses := append(buf, fluid.Use{Resource: src.NUMA(srcNUMA).Ctrl, Weight: 1})
	if srcNUMA != src.Spec.NIC.NUMA {
		uses = append(uses, fluid.Use{Resource: src.Link(srcNUMA, src.Spec.NIC.NUMA), Weight: 1})
	}
	uses = append(uses, fluid.Use{Resource: src.PCIeTx, Weight: 1})
	uses = nw.pathUses(uses, src.ID, dst.ID)
	uses = append(uses,
		fluid.Use{Resource: dst.PCIeRx, Weight: 1},
		fluid.Use{Resource: dst.NUMA(dstNUMA).Ctrl, Weight: 1},
	)
	if dstNUMA != dst.Spec.NIC.NUMA {
		uses = append(uses, fluid.Use{Resource: dst.Link(dstNUMA, dst.Spec.NIC.NUMA), Weight: 1})
	}
	return uses
}

// crashy reports whether the network's fault schedule crashes nodes.
func (nw *Network) crashy() bool { return nw.inj != nil && nw.inj.Crashy() }

// TransferDMA moves `bytes` from srcBuf to dstBuf as one zero-copy RDMA
// flow, blocking p until the last byte lands: StartDMA with p parked
// until the transfer ends. Reports false when a node crash at either
// end dropped the transfer mid-flight (crash schedules only).
func (nw *Network) TransferDMA(p *sim.Proc, src *machine.Node, srcBuf *machine.Buffer,
	dst *machine.Node, dstBuf *machine.Buffer, bytes int64) bool {
	return nw.run(p, nw.transfer(taskDMA, src, srcBuf.NUMA, dst, dstBuf.NUMA, bytes, nil))
}

// StartDMA begins TransferDMA's transfer without a process and calls
// then when it has ended — in event context, or at once if it ends
// within the call — with whether the payload landed. A stalled NIC at
// either end delays programming the RDMA engine. The flow's arbitration
// priority against core streams grows with the stream census on the
// crossed controllers (DESIGN.md §4).
func (nw *Network) StartDMA(src *machine.Node, srcBuf *machine.Buffer,
	dst *machine.Node, dstBuf *machine.Buffer, bytes int64, then func(landed bool)) {
	nw.transfer(taskDMA, src, srcBuf.NUMA, dst, dstBuf.NUMA, bytes, then).step()
}

// StartMemcpy moves `bytes` on node n from srcNUMA to dstNUMA through
// the memory system (read + write: weight 2 on a same-NUMA copy's
// controller), and calls then (with true) once the copy is done: in
// event context, or at once when there is nothing to copy. The rate cap
// is twice the streaming per-core bandwidth: eager staging buffers are
// small and LLC-resident, so the copy runs at cache speed while still
// consuming its share of a contended bus. The eager protocol's staging
// copies run here.
func (nw *Network) StartMemcpy(n *machine.Node, core int, srcNUMA, dstNUMA int, bytes int64, then func(bool)) {
	if bytes <= 0 {
		then(true)
		return
	}
	nw.copyTask(n, srcNUMA, dstNUMA, bytes, then).step()
}

// copyTask returns the task of a staging copy of bytes > 0 on node n.
func (nw *Network) copyTask(n *machine.Node, srcNUMA, dstNUMA int, bytes int64, then func(bool)) *task {
	x := nw.task(taskCopy, n, n, then)
	x.srcNUMA, x.dstNUMA, x.bytes = srcNUMA, dstNUMA, bytes
	x.phase = taskFlow
	return x
}

// StartEager begins moving `bytes` > 0 from src into dst's internal
// (pre-registered, NIC-NUMA) buffers, in event context or in a process,
// and calls then when the
// transfer has ended — in event context, or at once if it ends within
// the call — with whether the payload landed (false: a node crash
// dropped it). The flow crosses both PCIe links, the wire, and the
// NIC-NUMA controllers of both ends, as an RDMA transfer between
// buffers there would; the sender-side staging copy and the
// receiver-side delivery copy are performed by the caller (mpi) around
// it.
func (nw *Network) StartEager(src, dst *machine.Node, bytes int64, then func(landed bool)) {
	nw.transfer(taskEager, src, src.Spec.NIC.NUMA, dst, dst.Spec.NIC.NUMA, bytes, then).step()
}

// transfer returns the task of a payload crossing the network from
// srcNUMA on src to dstNUMA on dst.
func (nw *Network) transfer(kind taskKind, src *machine.Node, srcNUMA int, dst *machine.Node, dstNUMA int, bytes int64, then func(bool)) *task {
	x := nw.task(kind, src, dst, then)
	x.srcNUMA, x.dstNUMA, x.bytes = srcNUMA, dstNUMA, bytes
	return x
}

// task is one step of a message's path run without a process: a
// software overhead, a staging copy, or a payload crossing the wire
// (eager or RDMA). The steps a process would take between its blocking
// calls — wait out a NIC stall, burn cycles once the node is up, sleep
// the access mix, start a flow and wait for it, and on crash schedules
// watch both ends of a transfer and drop its frozen flow when one dies
// — run as a chain of continuations, each in the event slot where that
// process would have resumed (see sim.Cont). A process form parks on
// the same chain (see run). The network recycles tasks.
type task struct {
	nw   *Network
	kind taskKind
	// src is the node an overhead or a copy runs on and a transfer's
	// sending end; dst is a transfer's receiving end.
	src, dst *machine.Node
	// core is an overhead's; srcNUMA is the NUMA node of its buffer, and
	// the source of a copy or transfer, dstNUMA the destination of one.
	core             int
	srcNUMA, dstNUMA int
	bytes            int64
	// The owner: a then callback, or a process parked in run until
	// the task ends with ok.
	then      func(ok bool)
	proc      *sim.Proc
	ok, ended bool
	parked    bool
	phase     taskPhase
	flow      *fluid.Flow
	done      *sim.Signal
	cont      sim.Cont // runs step
}

// taskKind is what a task does.
type taskKind uint8

const (
	taskSendOverhead taskKind = iota
	taskRecvOverhead
	taskCopy
	taskEager
	taskDMA
)

// taskPhase is the step a task's continuation takes next.
type taskPhase uint8

const (
	taskGateSrc taskPhase = iota // wait out a NIC stall at the source
	taskGateDst                  // a transfer: then at the destination
	taskBurn                     // an overhead: burn its cycles
	taskAccess                   // then sleep its access mix
	taskFlow                     // a copy or transfer: start the flow
	taskWait                     // the flow is in flight
	taskEnd                      // an overhead: its last sleep is over
)

// task returns a recycled task of kind between src and dst, at its
// first phase.
func (nw *Network) task(kind taskKind, src, dst *machine.Node, then func(bool)) *task {
	var x *task
	if n := len(nw.freeTasks); n > 0 {
		x = nw.freeTasks[n-1]
		nw.freeTasks[n-1] = nil
		nw.freeTasks = nw.freeTasks[:n-1]
	} else {
		x = &task{nw: nw}
		x.cont = sim.MakeCont(x.step)
	}
	x.kind, x.src, x.dst, x.then = kind, src, dst, then
	x.phase = taskGateSrc
	return x
}

// run runs x for p: p parks until x ends, unless it ends within the
// call, and run returns x's outcome. The task ends by resuming p in the
// event where it ends, the slot where p would have woken from its last
// blocking call.
func (nw *Network) run(p *sim.Proc, x *task) bool {
	x.proc = p
	x.step()
	if !x.ended {
		x.parked = true
		p.Park()
	}
	ok := x.ok
	nw.recycle(x)
	return ok
}

// recycle returns an ended task to the network.
func (nw *Network) recycle(x *task) {
	x.src, x.dst, x.then, x.proc = nil, nil, nil, nil
	x.ended = false
	nw.freeTasks = append(nw.freeTasks, x)
}

// step advances the task by one wakeup. Every wait it arms is the last
// thing it does: a sleep that ends in place runs step again at once,
// one phase further.
func (x *task) step() {
	nw := x.nw
	k := nw.cluster.K
	for {
		switch x.phase {
		case taskGateSrc:
			if !nw.inj.WaitNIC(&x.cont, x.src.ID) {
				return
			}
			x.phase = taskGateDst
			if x.kind <= taskRecvOverhead {
				x.phase = taskBurn
			}
		case taskGateDst:
			if !nw.inj.WaitNIC(&x.cont, x.dst.ID) {
				return
			}
			x.phase = taskFlow
		case taskBurn:
			x.phase = taskAccess
			nic := &x.src.Spec.NIC
			cycles := nic.SendCycles
			if x.kind == taskRecvOverhead {
				cycles = nic.RecvCycles
			}
			if cycles > 0 {
				if !x.src.ExecCyclesCont(&x.cont, x.core, cycles) {
					x.phase = taskBurn
				}
				return
			}
		case taskAccess:
			x.phase = taskEnd
			accesses := x.src.Spec.NIC.SendMemAccesses
			if x.kind == taskRecvOverhead {
				accesses = x.src.Spec.NIC.RecvMemAccesses
			}
			k.SleepCont(&x.cont, pioAccessTime(x.src, x.core, accesses)+
				payloadAccessTime(x.src, x.core, x.srcNUMA))
			return
		case taskEnd:
			x.end(true)
			return
		case taskFlow:
			x.start()
			x.phase = taskWait
			if !x.watched() {
				x.done.WaitCont(&x.cont)
				return
			}
		case taskWait:
			if !x.watched() {
				x.end(true)
				return
			}
			landed := x.flow.Finished()
			if !landed {
				if !nw.inj.Crashed(x.src.ID) && !nw.inj.Crashed(x.dst.ID) {
					x.done.WaitCont(&x.cont)
					return
				}
				nw.cluster.Fluid.Cancel(x.flow)
			}
			nw.inj.UnwatchCrash(x.done)
			x.end(landed)
			return
		}
	}
}

// watched reports whether the task is a transfer on a crash schedule:
// its wait is then crash-aware, waking on every crash or recovery to
// re-check both ends, and a crash at either end drops the frozen flow.
func (x *task) watched() bool { return x.kind != taskCopy && x.nw.crashy() }

// start starts the flow of a copy or transfer. A watched transfer's
// completion signal is watched, so a crash or recovery wakes the
// transfer to re-check both ends.
func (x *task) start() {
	nw, src, dst := x.nw, x.src, x.dst
	x.done = nw.cluster.K.GetSignal()
	fs := fluid.FlowSpec{Work: float64(x.bytes), OnDone: x.done.BroadcastFn()}
	if x.kind == taskCopy {
		if x.srcNUMA == x.dstNUMA {
			nw.useBuf = append(nw.useBuf[:0], fluid.Use{Resource: src.NUMA(x.srcNUMA).Ctrl, Weight: 2})
		} else {
			nw.useBuf = append(nw.useBuf[:0],
				fluid.Use{Resource: src.NUMA(x.srcNUMA).Ctrl, Weight: 1},
				fluid.Use{Resource: src.NUMA(x.dstNUMA).Ctrl, Weight: 1},
				fluid.Use{Resource: src.Link(x.srcNUMA, x.dstNUMA), Weight: 1},
			)
		}
		fs.Name = nw.memcpyName(src.ID)
		fs.Cap = 2 * src.Spec.Mem.StreamPerCoreGBs * 1e9
	} else {
		if x.kind == taskDMA {
			fs.Name = nw.dmaName(src.ID, dst.ID)
		} else {
			fs.Name = nw.eagerName(src.ID, dst.ID)
		}
		fs.Priority = (src.DMAPriority(x.srcNUMA) + dst.DMAPriority(x.dstNUMA)) / 2
		fs.Cap = nw.cluster.Spec.NIC.WireGBs * 1e9 * min(ioScale(src), ioScale(dst))
		nw.useBuf = nw.dmaUses(nw.useBuf[:0], src, x.srcNUMA, dst, x.dstNUMA)
	}
	fs.Uses = nw.useBuf
	x.flow = nw.cluster.Fluid.Start(fs)
	if x.watched() {
		nw.inj.WatchCrash(x.done)
	}
}

// end finishes the task with outcome ok and hands it back to its owner:
// it resumes a parked process, or recycles the task and calls then.
func (x *task) end(ok bool) {
	nw := x.nw
	if x.flow != nil {
		if !x.watched() {
			// Only a crash schedule's watchers and frozen-wire bookkeeping
			// can still reach a finished flow or its completion signal.
			nw.cluster.K.PutSignal(x.done)
			nw.cluster.Fluid.Recycle(x.flow)
		}
		x.flow, x.done = nil, nil
	}
	x.ok, x.ended = ok, true
	if p := x.proc; p != nil {
		if x.parked {
			x.parked = false
			p.Resume()
		}
		return
	}
	then := x.then
	nw.recycle(x)
	then(ok)
}
