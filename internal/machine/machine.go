// Package machine assembles the simulated hardware of a cluster node:
// the topology spec, the frequency model, the fluid bandwidth-sharing
// model for memory controllers / inter-NUMA links / PCIe, NUMA memory
// allocation, load-dependent memory access latency, and the execution
// primitives (cycle burns, roofline compute flows, memory streams) that
// every higher layer builds on.
package machine

import (
	"fmt"
	"strconv"

	"repro/internal/counters"
	"repro/internal/fluid"
	"repro/internal/freq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Cluster is a set of identical nodes sharing one simulation kernel and
// one fluid model (so network flows can cross resources of both ends).
type Cluster struct {
	K     *sim.Kernel
	Fluid *fluid.Model
	Nodes []*Node
	Spec  *topology.NodeSpec
	// loops counts the compute loops in flight (see Node.StartLoop).
	loops int
}

// NewCluster builds n nodes of the given spec on a fresh kernel seeded
// with seed. The spec is validated; an invalid spec panics, since every
// experiment would be meaningless.
func NewCluster(spec *topology.NodeSpec, n int, seed int64) *Cluster {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("machine: invalid spec %q: %v", spec.Name, err))
	}
	k := sim.NewKernel(seed)
	c := &Cluster{K: k, Fluid: fluid.NewModel(k), Spec: spec, Nodes: make([]*Node, n)}
	c.Fluid.Reserve(n * nodeResources(spec))
	for i := range c.Nodes {
		c.Nodes[i] = newNode(c, i, spec)
	}
	return c
}

// Reset rewinds an idle cluster to the state NewCluster(spec, n, seed)
// returns, reusing every piece of simulation storage: the kernel (with
// its parked process coroutines), the fluid model (resources keep their
// dense ids and creation order, so solver arithmetic is bit-identical
// to a fresh cluster's), and the nodes. The spec must be reset-
// compatible with the one the cluster was built from (same core, NUMA
// and socket shape — see ShapeKey); capacities and frequency state are
// rebuilt from the new spec. The caller guarantees the cluster is
// quiescent: kernel idle, no live processes, no loop in flight, no
// active flows. Resetting a cluster with a loop in flight panics: a
// loop held by a down node would wake into the next simulation.
func (c *Cluster) Reset(spec *topology.NodeSpec, seed int64) {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("machine: invalid spec %q: %v", spec.Name, err))
	}
	if c.loops != 0 {
		panic("machine: Reset with loops in flight")
	}
	c.K.Reset(seed)
	c.Fluid.Reset()
	c.Spec = spec
	for _, n := range c.Nodes {
		n.reset(spec)
	}
}

// Loops returns the number of compute loops in flight: started by
// Node.StartLoop, ExecLoop or ExecCompute and not yet ended. A loop
// held by a down node has no pending event and, started by StartLoop,
// no process either, so an idle kernel with no live process may still
// have one.
func (c *Cluster) Loops() int { return c.loops }

// ShapeKey summarises the structural parameters that must match for a
// spec to be reset-compatible with an existing cluster: every resource,
// link and per-core slot is keyed by them.
type ShapeKey struct {
	Sockets, NUMAPerSocket, CoresPerNUMA int
}

// Shape returns the cluster's structural key.
func (c *Cluster) Shape() ShapeKey {
	return ShapeKey{c.Spec.Sockets, c.Spec.NUMAPerSocket, c.Spec.CoresPerNUMA}
}

// ShapeOf returns the structural key of a spec.
func ShapeOf(spec *topology.NodeSpec) ShapeKey {
	return ShapeKey{spec.Sockets, spec.NUMAPerSocket, spec.CoresPerNUMA}
}

// reset rewinds one node against a (possibly different but
// shape-compatible) spec: counters, stream census, straggler and crash
// state are cleared, the frequency model restarts from its defaults,
// and every resource capacity is re-derived from spec.
func (n *Node) reset(spec *topology.NodeSpec) {
	n.Spec = spec
	n.Counters.Reset()
	for _, nm := range n.numa {
		nm.streams = 0
	}
	for i := range n.coreFlow {
		n.coreFlow[i].flow = nil
	}
	n.slow = nil
	n.down = false
	// Freq.Reset notifies the node's listener, which re-derives the
	// controller capacities from the new spec and the cleared census.
	n.Freq.Reset(spec)
	n.updateCtrlCapacities()
	for a := 0; a < spec.NUMANodes(); a++ {
		for b := a + 1; b < spec.NUMANodes(); b++ {
			r := n.Link(a, b)
			if spec.SocketOfNUMA(a) == spec.SocketOfNUMA(b) {
				n.cluster.Fluid.SetCapacity(r, spec.Mem.MeshGBs*1e9)
			} else {
				n.cluster.Fluid.SetCapacity(r, spec.Mem.LinkGBs*1e9)
			}
		}
	}
	n.cluster.Fluid.SetCapacity(n.PCIeTx, spec.NIC.PCIeGBs*1e9)
	n.cluster.Fluid.SetCapacity(n.PCIeRx, spec.NIC.PCIeGBs*1e9)
}

// NUMA is one NUMA node: a memory controller plus stream bookkeeping.
type NUMA struct {
	ID      int
	Ctrl    *fluid.Resource
	streams int // concurrent core streams, drives C_eff and DMA priority
}

// Node is one simulated machine.
type Node struct {
	ID       int
	Spec     *topology.NodeSpec
	Freq     *freq.Model
	Counters *counters.Set
	cluster  *Cluster

	numa []*NUMA
	// links holds the inter-NUMA link of each unordered NUMA pair, in
	// the order of pairIndex.
	links []*fluid.Resource
	// PCIeTx and PCIeRx are the outbound and inbound halves of the
	// full-duplex PCIe link between the NIC and the memory system.
	PCIeTx, PCIeRx *fluid.Resource

	// coreFlow tracks the active compute flow per core so frequency
	// changes can rescale its rate cap: one slot per core, allocated by
	// the first compute slice (see slot), so a node that never computes
	// has none. A slot is live while its flow field is non-nil.
	coreFlow []runningKernel

	// computeNames caches the default per-core compute-flow names
	// ("n0.c3.compute"), built lazily so idle cores cost nothing.
	computeNames []string

	// slow holds per-core slowdown multipliers (straggler model: a
	// throttled or faulty core retires work slower by this factor);
	// nil means every core at its nominal speed.
	slow []float64

	// down marks a fail-stopped node (crash fault): every execution
	// primitive entered while down blocks on upSig until recovery.
	// In-flight fluid flows are the fault injector's concern (frozen
	// wires); this flag stops the node's processes and compute loops at
	// the next slice boundary — the fail-stop granularity of the crash
	// model.
	down  bool
	upSig *sim.Signal

	// pathBuf is the scratch behind memPath: fluid.Start copies its
	// Uses, so the per-slice execution paths build the memory path in
	// place instead of allocating one.
	pathBuf [2]fluid.Use
}

// runningKernel is a core's compute loop (see Node.StartLoop): a state
// machine advanced by its continuation, cont, at every slice end and on
// the node's recovery, and the bookkeeping of its in-flight flow. The
// node keeps one slot per core (see coreFlow), so running a loop
// allocates neither the state nor a cap closure: cap is a method over
// the stored roofline parameters.
type runningKernel struct {
	node  *Node
	core  int
	flow  *fluid.Flow // nil when the core runs no slice
	class topology.VecClass
	// Roofline parameters of the current slice: mem says whether the
	// flow is denominated in bytes (memory-bound) or flops (pure CPU);
	// ai is flops/byte for the memory case.
	mem bool
	ai  float64

	// cont runs step; it is bound once, when the slot is made.
	cont sim.Cont
	// sig is the loop's slice-done signal, nil when the core runs no
	// loop; gated says cont waits on the node's recovery, not on sig.
	sig   *sim.Signal
	gated bool
	// The loop: its spec, its condition (nil: one slice), its owner — a
	// parked process or a done callback — and the NUMA node its memory
	// traffic goes to.
	spec    ComputeSpec
	next    func() bool
	proc    *sim.Proc
	done    func(LoopEnd)
	memNUMA int
	// begun is the loop's start and sliceStart the current slice's;
	// rhoStart is the controller's utilization when the slice started.
	begun, sliceStart sim.Time
	rhoStart          float64
	// iters counts the slices run, and elapsed is the last one's
	// duration; both outlive the loop until the core's next one starts.
	iters   int
	elapsed sim.Duration
}

// cap recomputes the flow's rate cap at the core's current frequency
// and straggler slowdown.
func (rk *runningKernel) cap() float64 {
	n := rk.node
	slow := n.CoreSlowdown(rk.core)
	if !rk.mem {
		return n.Freq.FlopsRate(rk.core, rk.class) / slow
	}
	if rk.ai == 0 {
		return n.Spec.Mem.StreamPerCoreGBs * 1e9 / slow
	}
	byteRate := n.Freq.FlopsRate(rk.core, rk.class) / rk.ai
	if limit := n.Spec.Mem.StreamPerCoreGBs * 1e9; byteRate > limit {
		byteRate = limit
	}
	return byteRate / slow
}

// nodeResources returns how many fluid resources newNode creates for a
// node of spec: a controller per NUMA node, a mesh link per
// intra-socket NUMA pair, a UPI link per socket pair, and PCIe's two
// halves.
func nodeResources(spec *topology.NodeSpec) int {
	mesh := spec.Sockets * spec.NUMAPerSocket * (spec.NUMAPerSocket - 1) / 2
	upi := spec.Sockets * (spec.Sockets - 1) / 2
	return spec.NUMANodes() + mesh + upi + 2
}

func newNode(c *Cluster, id int, spec *topology.NodeSpec) *Node {
	n := &Node{
		ID:       id,
		Spec:     spec,
		Freq:     freq.NewModel(c.K, spec),
		Counters: counters.NewSet(spec.Cores()),
		cluster:  c,
		upSig:    sim.NewSignal(c.K),
	}
	prefix := "n" + strconv.Itoa(id) + "."
	// Controllers start at their idle capacity: no stream, the uncore at
	// its initial clock (updateCtrlCapacities with an empty census).
	ctrl := spec.Mem.CtrlGBs * 1e9 * n.Freq.UncoreScale()
	n.numa = make([]*NUMA, spec.NUMANodes())
	for i := range n.numa {
		n.numa[i] = &NUMA{ID: i, Ctrl: c.Fluid.NewResource(prefix+"ctrl"+strconv.Itoa(i), ctrl)}
	}
	// Intra-socket NUMA pairs (sub-NUMA clustering halves) get private
	// mesh links; every cross-socket pair shares the single UPI/xGMI
	// resource of the socket pair — that is the physical bus computing
	// cores saturate once they spill onto the far socket (Fig 4a). The
	// socket pair's resource is made for its first NUMA pair, the first
	// NUMA nodes of the two sockets, and looked up there for the others.
	nn, per := spec.NUMANodes(), spec.NUMAPerSocket
	n.links = make([]*fluid.Resource, 0, nn*(nn-1)/2)
	for a := 0; a < nn; a++ {
		for b := a + 1; b < nn; b++ {
			sa, sb := spec.SocketOfNUMA(a), spec.SocketOfNUMA(b)
			var r *fluid.Resource
			switch {
			case sa == sb:
				name := prefix + "mesh" + strconv.Itoa(a) + "-" + strconv.Itoa(b)
				r = c.Fluid.NewResource(name, spec.Mem.MeshGBs*1e9)
			case a == sa*per && b == sb*per:
				name := prefix + "upi" + strconv.Itoa(sa) + "-" + strconv.Itoa(sb)
				r = c.Fluid.NewResource(name, spec.Mem.LinkGBs*1e9)
			default:
				r = n.links[pairIndex(sa*per, sb*per, nn)]
			}
			n.links = append(n.links, r)
		}
	}
	n.PCIeTx = c.Fluid.NewResource(prefix+"pcie-tx", spec.NIC.PCIeGBs*1e9)
	n.PCIeRx = c.Fluid.NewResource(prefix+"pcie-rx", spec.NIC.PCIeGBs*1e9)
	n.Freq.OnChange(n.onFreqChange)
	return n
}

// slot returns core's compute-flow slot, allocating the node's slots on
// its first compute slice.
func (n *Node) slot(core int) *runningKernel {
	if n.coreFlow == nil {
		n.coreFlow = make([]runningKernel, n.Spec.Cores())
		for i := range n.coreFlow {
			rk := &n.coreFlow[i]
			rk.node = n
			rk.core = i
			rk.cont = sim.MakeCont(rk.step)
		}
	}
	return &n.coreFlow[core]
}

// Cluster returns the cluster the node belongs to.
func (n *Node) Cluster() *Cluster { return n.cluster }

// K returns the simulation kernel.
func (n *Node) K() *sim.Kernel { return n.cluster.K }

// NUMA returns NUMA node i.
func (n *Node) NUMA(i int) *NUMA {
	if i < 0 || i >= len(n.numa) {
		panic(fmt.Sprintf("machine: NUMA %d out of range [0,%d)", i, len(n.numa)))
	}
	return n.numa[i]
}

// Link returns the inter-NUMA link between a and b (a != b).
func (n *Node) Link(a, b int) *fluid.Resource {
	if a == b {
		panic("machine: no self-link")
	}
	a, b = n.NUMA(a).ID, n.NUMA(b).ID // range checks
	if a > b {
		a, b = b, a
	}
	return n.links[pairIndex(a, b, len(n.numa))]
}

// pairIndex is the position of the NUMA pair a < b among the pairs of
// nn NUMA nodes listed a-major: (0,1), (0,2), …, (1,2), …
func pairIndex(a, b, nn int) int {
	return a*(2*nn-a-1)/2 + b - a - 1
}

// onFreqChange rescales uncore-clocked controller capacities and the
// rate caps of running compute flows, under one fluid hold: a single
// re-solve covers them all.
func (n *Node) onFreqChange() {
	fl := n.cluster.Fluid
	fl.Hold()
	n.updateCtrlCapacities()
	for i := range n.coreFlow {
		rk := &n.coreFlow[i]
		if rk.flow != nil && !rk.flow.Finished() {
			fl.SetCap(rk.flow, rk.cap())
		}
	}
	fl.Release()
}

// updateCtrlCapacities applies uncore scaling and multi-stream
// efficiency loss to every controller.
func (n *Node) updateCtrlCapacities() {
	scale := n.Freq.UncoreScale()
	for _, nm := range n.numa {
		eff := 1.0
		if nm.streams > 1 {
			eff = 1 / (1 + n.Spec.Mem.StreamEfficiency*float64(nm.streams-1))
		}
		n.cluster.Fluid.SetCapacity(nm.Ctrl, n.Spec.Mem.CtrlGBs*1e9*scale*eff)
	}
}

// addStream / removeStream maintain the concurrent-stream census that
// drives controller efficiency and DMA arbitration priority.
func (n *Node) addStream(numa int) {
	n.NUMA(numa).streams++
	n.updateCtrlCapacities()
}

func (n *Node) removeStream(numa int) {
	nm := n.NUMA(numa)
	if nm.streams == 0 {
		panic("machine: stream census underflow")
	}
	nm.streams--
	n.updateCtrlCapacities()
}

// Streams returns the current number of core streams on a NUMA node's
// controller.
func (n *Node) Streams(numa int) int { return n.NUMA(numa).streams }

// DMAPriority returns the NIC DMA engine's arbitration priority against
// the current stream census on the crossed controller (DESIGN.md §4).
func (n *Node) DMAPriority(numa int) float64 {
	return n.Spec.NIC.DMAPriority + n.Spec.NIC.DMAPriorityPerStream*float64(n.NUMA(numa).streams)
}

// MemPath returns the fluid resources a memory stream crosses when a
// core (or the NIC) on NUMA `from` accesses memory on NUMA `to`.
func (n *Node) MemPath(from, to int) []fluid.Use {
	uses := []fluid.Use{{Resource: n.NUMA(to).Ctrl, Weight: 1}}
	if from != to {
		uses = append(uses, fluid.Use{Resource: n.Link(from, to), Weight: 1})
	}
	return uses
}

// memPath is MemPath into the node's scratch buffer — only valid until
// the next memPath call, so it must be consumed immediately by
// fluid.Start (which copies its Uses). The exported MemPath keeps
// allocating because callers may retain its result.
func (n *Node) memPath(from, to int) []fluid.Use {
	uses := append(n.pathBuf[:0], fluid.Use{Resource: n.NUMA(to).Ctrl, Weight: 1})
	if from != to {
		uses = append(uses, fluid.Use{Resource: n.Link(from, to), Weight: 1})
	}
	return uses
}

// contentionFactor is the extra latency multiplier contributed by one
// resource at utilization rho: K·rho²/(1−rho), capped.
func (n *Node) contentionFactor(r *fluid.Resource) float64 {
	rho := r.Utilization()
	maxExtra := n.Spec.Mem.ContentionMaxFactor - 1
	if rho >= 1 {
		return maxExtra
	}
	extra := n.Spec.Mem.ContentionK * rho * rho / (1 - rho)
	if extra > maxExtra {
		extra = maxExtra
	}
	return extra
}

// LinkContention returns the extra-latency factor currently contributed
// by queueing on the inter-NUMA link between a and b (0 when a == b or
// the link is idle). Exposed for the PIO path, which crosses the link
// but not the DRAM controller.
func (n *Node) LinkContention(a, b int) float64 {
	if a == b {
		return 0
	}
	return n.contentionFactor(n.Link(a, b))
}

// CtrlContention returns the extra-latency factor currently contributed
// by queueing on a NUMA node's memory controller.
func (n *Node) CtrlContention(numa int) float64 {
	return n.contentionFactor(n.NUMA(numa).Ctrl)
}

// AccessLatency returns the current latency of one memory access from
// NUMA `from` to memory on NUMA `to`: the uncontended local/remote
// latency, scaled by the uncore frequency, inflated by queueing on each
// crossed resource at its current utilization.
func (n *Node) AccessLatency(from, to int) sim.Duration {
	base := n.Spec.Mem.LocalLatencyNs
	if from != to {
		base = n.Spec.Mem.RemoteLatencyNs
	}
	// Uncore frequency scaling (partial: UncoreLatFactor of the path is
	// uncore-clocked).
	f := n.Freq.UncoreGHz()
	base *= 1 + n.Spec.Mem.UncoreLatFactor*(n.Spec.Freq.UncoreMax/f-1)
	// Contention on each crossed resource.
	extra := n.contentionFactor(n.NUMA(to).Ctrl)
	if from != to {
		extra += n.contentionFactor(n.Link(from, to))
	}
	return sim.Duration(base * (1 + extra))
}

// CoreSlowdown returns the straggler multiplier of a core (1 = nominal
// speed). Cycle burns take CoreSlowdown times longer and compute-flow
// rate caps are divided by it.
func (n *Node) CoreSlowdown(core int) float64 {
	if n.slow == nil {
		return 1
	}
	return n.slow[core]
}

// SetCoreSlowdown sets a core's straggler multiplier (≥ some positive
// value; 1 restores nominal speed) and rescales the core's running
// compute flow, mirroring what a frequency change does.
func (n *Node) SetCoreSlowdown(core int, f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("machine: non-positive slowdown %g", f))
	}
	n.Spec.NUMAOfCore(core) // range check
	if n.slow == nil {
		n.slow = make([]float64, n.Spec.Cores())
		for i := range n.slow {
			n.slow[i] = 1
		}
	}
	n.slow[core] = f
	if n.coreFlow == nil {
		return // no slice has run yet: the first one starts at the slowed cap
	}
	if rk := &n.coreFlow[core]; rk.flow != nil && !rk.flow.Finished() {
		n.cluster.Fluid.SetCap(rk.flow, rk.cap())
	}
}

// SetDown flips the node's crash state. Bringing the node back up wakes
// every process and loop gated on an execution primitive. Safe to call from
// event context (the fault injector's crash/recover transitions).
func (n *Node) SetDown(down bool) {
	if n.down == down {
		return
	}
	n.down = down
	if !down {
		n.upSig.Broadcast()
	}
}

// gateUp blocks p while the node is down. Called at the top of every
// execution primitive: a crashed node's processes stop at the next
// slice boundary and resume only on recovery.
func (n *Node) gateUp(p *sim.Proc) {
	for n.down {
		n.upSig.Wait(p)
	}
}

// Jitter applies multiplicative measurement noise of relative amplitude
// frac to d, drawn from the cluster's deterministic RNG.
func (n *Node) Jitter(d sim.Duration, frac float64) sim.Duration {
	if frac <= 0 {
		return d
	}
	u := n.cluster.K.Rand().Float64()*2 - 1
	out := float64(d) * (1 + frac*u)
	if out < 0 {
		out = 0
	}
	return sim.Duration(out)
}
