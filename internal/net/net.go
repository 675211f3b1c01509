// Package net models the cluster interconnect: full-duplex wires
// between nodes, the NIC's PIO path for small messages (doorbell +
// descriptor writes by the CPU, sensitive to core frequency, NUMA
// placement and memory-bus contention) and the NIC's DMA path for large
// messages (a fluid flow crossing the data's memory controller, the
// inter-NUMA link when the data is far from the NIC, PCIe and the
// wire, arbitrating against compute streams).
package net

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/fault"
	"repro/internal/fluid"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Network connects the nodes of a cluster with point-to-point
// full-duplex wires (one fluid resource per direction per pair).
type Network struct {
	cluster *machine.Cluster
	wires   map[[2]int]*fluid.Resource // key: [from, to]
	// inj, when non-nil, is the fault injector bound to this network:
	// it scales wire capacities (link degradation) and gates operations
	// on NIC stalls. Nil on healthy worlds — every consult below is
	// nil-guarded so the fault-free path is byte-identical to before the
	// fault subsystem existed.
	inj *fault.Injector

	// useBuf is scratch for assembling per-transfer fluid paths:
	// fluid.Start copies its Uses, so the transfer hot paths build the
	// path in place (the sim kernel never preempts between the build and
	// the Start that consumes it). The exported DMAUses keeps allocating
	// because callers may retain its result.
	useBuf []fluid.Use

	// Lazily cached flow names for the transfer hot paths, so repeated
	// transfers between the same endpoints don't rebuild them.
	memcpyNames []string
	dmaNames    map[int]string // key: src·nodes + dst
	eagerNames  map[int]string

	// freeEager recycles eager payload transfers (StartEager).
	freeEager []*eager

	// Fabric mode (NewOnFabric): transfers route over an explicit
	// switched topology instead of the dedicated per-pair wires above.
	fab      *topology.Fabric
	links    []*fluid.Resource // one per directed fabric link
	adaptive bool
	loadFn   topology.LoadFunc // links[i].Utilization, for adaptive routing
	routeBuf []int             // scratch for Route (same discipline as useBuf)
	linkBase float64           // healthy per-link capacity, B/s
	hopLat   float64           // per-switch-hop latency, ns
}

// New builds the interconnect for a cluster.
func New(c *machine.Cluster) *Network {
	nw := &Network{cluster: c, wires: make(map[[2]int]*fluid.Resource)}
	for i := range c.Nodes {
		for j := range c.Nodes {
			if i == j {
				continue
			}
			name := fmt.Sprintf("wire%d-%d", i, j)
			nw.wires[[2]int{i, j}] = c.Fluid.NewResource(name, c.Spec.NIC.WireGBs*1e9)
		}
	}
	return nw
}

// Reset rewinds the network to its freshly built state against the
// cluster's (possibly re-bound) spec: the fault injector is unbound and
// every wire or fabric link gets its healthy capacity back. Cached flow
// names survive — they depend only on node ids.
func (nw *Network) Reset() {
	nw.inj = nil
	if nw.fab != nil {
		for _, r := range nw.links {
			nw.cluster.Fluid.SetCapacity(r, nw.linkBase)
		}
		return
	}
	base := nw.cluster.Spec.NIC.WireGBs * 1e9
	for _, r := range nw.wires {
		nw.cluster.Fluid.SetCapacity(r, base)
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
// events scale wire capacities (relative to the spec's healthy
// capacity), NICStall events gate the PIO path and transfer starts, and
// the MPI layer above reads the injector back via Faults for loss,
// corruption and comm-thread hangs.
func (nw *Network) InstallFaults(inj *fault.Injector) {
	nw.inj = inj
	if nw.fab != nil {
		inj.BindWires(nw.scaleFabricLinks)
		return
	}
	base := nw.cluster.Spec.NIC.WireGBs * 1e9
	inj.BindWires(func(from, to int, factor float64) {
		if from < 0 { // every wire, in deterministic order
			keys := make([][2]int, 0, len(nw.wires))
			for key := range nw.wires {
				keys = append(keys, key)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i][0] != keys[j][0] {
					return keys[i][0] < keys[j][0]
				}
				return keys[i][1] < keys[j][1]
			})
			for _, key := range keys {
				nw.cluster.Fluid.SetCapacity(nw.wires[key], base*factor)
			}
			return
		}
		nw.cluster.Fluid.SetCapacity(nw.Wire(from, to), base*factor)
	})
}

// Faults returns the installed fault injector, or nil on healthy worlds.
func (nw *Network) Faults() *fault.Injector { return nw.inj }

// gateNIC blocks p while a NIC-stall fault is active on node id.
func (nw *Network) gateNIC(p *sim.Proc, id int) {
	if nw.inj != nil {
		nw.inj.GateNIC(p, id)
	}
}

// Wire returns the directed wire resource from node i to node j.
func (nw *Network) Wire(i, j int) *fluid.Resource {
	w, ok := nw.wires[[2]int{i, j}]
	if !ok {
		panic(fmt.Sprintf("net: no wire %d→%d", i, j))
	}
	return w
}

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
// one payload touch on the buffer's NUMA node.
func (nw *Network) SendOverhead(p *sim.Proc, n *machine.Node, commCore, bufNUMA int) {
	nw.gateNIC(p, n.ID)
	n.ExecCycles(p, commCore, n.Spec.NIC.SendCycles)
	p.Sleep(pioAccessTime(n, commCore, n.Spec.NIC.SendMemAccesses) +
		payloadAccessTime(n, commCore, bufNUMA))
}

// RecvOverhead blocks p for the software overhead of completing one
// message reception on node n from commCore.
func (nw *Network) RecvOverhead(p *sim.Proc, n *machine.Node, commCore, bufNUMA int) {
	nw.gateNIC(p, n.ID)
	n.ExecCycles(p, commCore, n.Spec.NIC.RecvCycles)
	p.Sleep(pioAccessTime(n, commCore, n.Spec.NIC.RecvMemAccesses) +
		payloadAccessTime(n, commCore, bufNUMA))
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

// DMAUses assembles the fluid path of an RDMA transfer of a buffer on
// srcNUMA of node src to a buffer on dstNUMA of node dst: source
// controller (+ link to the NIC when the data is far from it), source
// PCIe, the directed wire, destination PCIe and destination controller
// (+ link).
func (nw *Network) DMAUses(src *machine.Node, srcNUMA int, dst *machine.Node, dstNUMA int) []fluid.Use {
	return nw.dmaUses(make([]fluid.Use, 0, 7), src, srcNUMA, dst, dstNUMA)
}

// dmaUses is DMAUses appending into a caller-supplied buffer (the
// transfer paths pass the network's scratch).
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

// waitFlow blocks p until the flow completes. On crash-free worlds it
// is a plain signal wait (the historical event sequence). On worlds
// with a crash schedule the wait is crash-aware: if either endpoint
// dies, the frozen in-flight flow is cancelled (the NIC drops it) and
// waitFlow reports false.
func (nw *Network) waitFlow(p *sim.Proc, flow *fluid.Flow, done *sim.Signal, srcID, dstID int) bool {
	if !nw.crashy() {
		done.Wait(p)
		return true
	}
	unwatch := nw.inj.WatchCrash(done)
	defer unwatch()
	for !flow.Finished() {
		if nw.inj.Crashed(srcID) || nw.inj.Crashed(dstID) {
			nw.cluster.Fluid.Cancel(flow)
			return false
		}
		done.Wait(p)
	}
	return true
}

// crashy reports whether the network's fault schedule crashes nodes.
func (nw *Network) crashy() bool { return nw.inj != nil && nw.inj.Crashy() }

// TransferDMA moves `bytes` from srcBuf to dstBuf as one zero-copy RDMA
// flow, blocking p until the last byte lands. The flow's arbitration
// priority against core streams grows with the stream census on the
// crossed controllers (DESIGN.md §4). Reports false when a node crash
// at either end dropped the transfer mid-flight (crash schedules only).
func (nw *Network) TransferDMA(p *sim.Proc, src *machine.Node, srcBuf *machine.Buffer,
	dst *machine.Node, dstBuf *machine.Buffer, bytes int64) bool {
	// A stalled NIC at either end delays programming the RDMA engine.
	nw.gateNIC(p, src.ID)
	nw.gateNIC(p, dst.ID)
	pri := (src.DMAPriority(srcBuf.NUMA) + dst.DMAPriority(dstBuf.NUMA)) / 2
	cap := nw.cluster.Spec.NIC.WireGBs * 1e9 * min(ioScale(src), ioScale(dst))
	done := nw.cluster.K.GetSignal()
	nw.useBuf = nw.dmaUses(nw.useBuf[:0], src, srcBuf.NUMA, dst, dstBuf.NUMA)
	flow := nw.cluster.Fluid.Start(fluid.FlowSpec{
		Name:     nw.dmaName(src.ID, dst.ID),
		Work:     float64(bytes),
		Cap:      cap,
		Priority: pri,
		Uses:     nw.useBuf,
		OnDone:   done.BroadcastFn(),
	})
	ok := nw.waitFlow(p, flow, done, src.ID, dst.ID)
	if nw.inj == nil {
		// Healthy worlds: nothing else can reach the finished flow or its
		// completion signal (crashy worlds may still hold both through
		// watchers and frozen-wire bookkeeping, so they keep allocating).
		nw.cluster.K.PutSignal(done)
		nw.cluster.Fluid.Recycle(flow)
	}
	return ok
}

// Memcpy moves `bytes` on node n from srcNUMA to dstNUMA through the
// memory system (read + write: weight 2 on a same-NUMA copy's
// controller). The rate cap is twice the streaming per-core bandwidth:
// eager staging buffers are small and LLC-resident, so the copy runs at
// cache speed while still consuming its share of a contended bus. Used
// by the eager protocol's staging copies.
func (nw *Network) Memcpy(p *sim.Proc, n *machine.Node, core int, srcNUMA, dstNUMA int, bytes int64) {
	if bytes <= 0 {
		return
	}
	if srcNUMA == dstNUMA {
		nw.useBuf = append(nw.useBuf[:0], fluid.Use{Resource: n.NUMA(srcNUMA).Ctrl, Weight: 2})
	} else {
		nw.useBuf = append(nw.useBuf[:0],
			fluid.Use{Resource: n.NUMA(srcNUMA).Ctrl, Weight: 1},
			fluid.Use{Resource: n.NUMA(dstNUMA).Ctrl, Weight: 1},
			fluid.Use{Resource: n.Link(srcNUMA, dstNUMA), Weight: 1},
		)
	}
	done := nw.cluster.K.GetSignal()
	flow := nw.cluster.Fluid.Start(fluid.FlowSpec{
		Name:   nw.memcpyName(n.ID),
		Work:   float64(bytes),
		Cap:    2 * n.Spec.Mem.StreamPerCoreGBs * 1e9,
		Uses:   nw.useBuf,
		OnDone: done.BroadcastFn(),
	})
	done.Wait(p)
	nw.cluster.K.PutSignal(done)
	nw.cluster.Fluid.Recycle(flow)
}

// TransferEager moves `bytes` over the wire into the receiver's
// internal (pre-registered, NIC-NUMA) buffers, blocking p until the
// message has landed there: StartEager, with p parked until the
// transfer ends. Reports false when a node crash dropped the transfer
// mid-flight (crash schedules only).
func (nw *Network) TransferEager(p *sim.Proc, src, dst *machine.Node, bytes int64) bool {
	if bytes <= 0 {
		return true
	}
	landed, ended, parked := false, false, false
	nw.StartEager(src, dst, bytes, func(ok bool) {
		landed, ended = ok, true
		if parked {
			p.Resume()
		}
	})
	if !ended {
		parked = true
		p.Park()
	}
	return landed
}

// eager is one eager payload crossing the network into the receiver's
// internal buffers without a process: the steps a process would take
// between its blocking calls — wait out a NIC stall at either end,
// start the flow, wait for it, and on crash schedules watch both ends
// and drop the frozen flow when one dies — run as a chain of
// continuations, each in the event slot where that process would have
// resumed (see sim.Cont). The network recycles them.
type eager struct {
	nw       *Network
	src, dst *machine.Node
	bytes    int64
	then     func(landed bool)
	phase    eagerPhase
	flow     *fluid.Flow
	done     *sim.Signal
	unwatch  func()
	cont     sim.Cont // runs step
}

// eagerPhase is the step an eager transfer's continuation takes next.
type eagerPhase int

const (
	eagerGateSrc eagerPhase = iota // wait out a NIC stall at the source
	eagerGateDst                   // then at the destination
	eagerWait                      // the flow is in flight
)

// StartEager begins moving `bytes` > 0 from src into dst's internal
// buffers, in event context or in a process, and calls then when the
// transfer has ended — in event context, or at once if it ends within
// the call — with whether the payload landed (false: a node crash
// dropped it). The flow crosses both PCIe links, the wire, and the
// NIC-NUMA controllers of both ends; the sender-side staging copy and
// the receiver-side delivery copy are performed by the caller (mpi)
// around it.
func (nw *Network) StartEager(src, dst *machine.Node, bytes int64, then func(landed bool)) {
	var x *eager
	if n := len(nw.freeEager); n > 0 {
		x = nw.freeEager[n-1]
		nw.freeEager[n-1] = nil
		nw.freeEager = nw.freeEager[:n-1]
	} else {
		x = &eager{nw: nw}
		x.cont = sim.MakeCont(x.step)
	}
	x.src, x.dst, x.bytes, x.then = src, dst, bytes, then
	x.phase = eagerGateSrc
	x.step()
}

// step advances the transfer by one wakeup: past the NIC-stall gates it
// starts the flow and waits for it, like waitFlow.
func (x *eager) step() {
	nw := x.nw
	if x.phase != eagerWait {
		if !x.gate() {
			return
		}
		x.start()
		x.phase = eagerWait
		if !nw.crashy() {
			x.done.WaitCont(&x.cont)
			return
		}
	} else if !nw.crashy() {
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
	x.unwatch()
	x.unwatch = nil
	x.end(landed)
}

// gate waits out a NIC stall at the source, then at the destination —
// a stall that ends into another is waited out in turn, as
// fault.Injector.GateNIC does — and reports whether both ends are
// clear. Otherwise the continuation sleeps until the stall ends.
func (x *eager) gate() bool {
	for inj := x.nw.inj; inj != nil && x.phase < eagerWait; x.phase++ {
		node := x.src
		if x.phase == eagerGateDst {
			node = x.dst
		}
		if until, stalled := inj.NICStall(node.ID); stalled {
			k := x.nw.cluster.K
			k.SleepCont(&x.cont, until.Sub(k.Now()))
			return false
		}
	}
	return true
}

// end finishes the transfer, recycles it and calls then.
func (x *eager) end(landed bool) {
	nw, then := x.nw, x.then
	if nw.inj == nil {
		// Healthy worlds: nothing else can reach the finished flow or its
		// completion signal (crashy worlds may still hold both through
		// watchers and frozen-wire bookkeeping, so they keep allocating).
		nw.cluster.K.PutSignal(x.done)
		nw.cluster.Fluid.Recycle(x.flow)
	}
	x.flow, x.done, x.then = nil, nil, nil
	nw.freeEager = append(nw.freeEager, x)
	then(landed)
}

// start starts the payload's flow. On crash schedules its completion
// signal is watched, so a crash or recovery wakes the transfer to
// re-check both ends.
func (x *eager) start() {
	nw, src, dst := x.nw, x.src, x.dst
	pri := (src.DMAPriority(src.Spec.NIC.NUMA) + dst.DMAPriority(dst.Spec.NIC.NUMA)) / 2
	cap := nw.cluster.Spec.NIC.WireGBs * 1e9 * min(ioScale(src), ioScale(dst))
	nw.useBuf = append(nw.useBuf[:0],
		fluid.Use{Resource: src.NUMA(src.Spec.NIC.NUMA).Ctrl, Weight: 1},
		fluid.Use{Resource: src.PCIeTx, Weight: 1},
	)
	nw.useBuf = nw.pathUses(nw.useBuf, src.ID, dst.ID)
	nw.useBuf = append(nw.useBuf,
		fluid.Use{Resource: dst.PCIeRx, Weight: 1},
		fluid.Use{Resource: dst.NUMA(dst.Spec.NIC.NUMA).Ctrl, Weight: 1},
	)
	x.done = nw.cluster.K.GetSignal()
	x.flow = nw.cluster.Fluid.Start(fluid.FlowSpec{
		Name:     nw.eagerName(src.ID, dst.ID),
		Work:     float64(x.bytes),
		Cap:      cap,
		Priority: pri,
		Uses:     nw.useBuf,
		OnDone:   x.done.BroadcastFn(),
	})
	if nw.crashy() {
		x.unwatch = nw.inj.WatchCrash(x.done)
	}
}
