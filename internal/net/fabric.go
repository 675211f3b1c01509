package net

// The interconnect as a fabric. Every network routes over an explicit
// fabric from internal/topology: every directed fabric link becomes one
// fluid resource, and each transfer's path is routed hop by hop, so
// transfers contend exactly on the links their routes share. The
// paper's two-node network is the two-host direct fabric that New
// builds: links "wire0-1" and "wire1-0", each a one-link route with no
// switch — TestFabricTwoNodeWireModel pins its names, capacity, latency
// and transfer completion instants.

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// NewOnFabric builds the interconnect of cluster c over a fabric built
// from its spec (topology.FabricSpec.Build). The fabric's host count
// must equal the cluster's node count (hosts and nodes are identified
// one-to-one). When adaptive is true, transfer routing picks the
// least-loaded up-link at each decision, falling back to the minimal
// choice on ties; minimal routing otherwise. The network only reads
// fab, so the worlds of one fabric may share a single build instead of
// each expanding the spec again.
func NewOnFabric(c *machine.Cluster, fab *topology.Fabric, adaptive bool) *Network {
	if fab.NHosts != len(c.Nodes) {
		panic(fmt.Sprintf("net: fabric has %d hosts, cluster has %d nodes", fab.NHosts, len(c.Nodes)))
	}
	nw := &Network{cluster: c, fab: fab}
	rate := nw.linkRate()
	nw.links = make([]*fluid.Resource, len(fab.Links))
	c.Fluid.Reserve(len(fab.Links))
	for i := range fab.Links {
		nw.links[i] = c.Fluid.NewResource(fab.LinkName(i), rate)
	}
	if adaptive {
		nw.load = func(li int) float64 { return nw.links[li].Utilization() }
	}
	return nw
}

// linkRate is the healthy capacity of every link in B/s: the fabric
// spec's LinkGBs, or else the NIC wire rate of the cluster's current
// spec.
func (nw *Network) linkRate() float64 {
	if gbs := nw.fab.Spec.LinkGBs; gbs != 0 {
		return gbs * 1e9
	}
	return nw.cluster.Spec.NIC.WireGBs * 1e9
}

// Link returns the fluid resource of fabric link i.
func (nw *Network) Link(i int) *fluid.Resource { return nw.links[i] }

// scaleLinks is the fault injector's wire-scaling callback. from < 0
// scales every link (in enumeration order — deterministic); a directed
// host pair scales the links of the pair's minimal route, the
// deterministic path a healthy world would use.
func (nw *Network) scaleLinks(from, to int, factor float64) {
	rate := nw.linkRate() * factor
	if from < 0 {
		for _, r := range nw.links {
			nw.cluster.Fluid.SetCapacity(r, rate)
		}
		return
	}
	nw.routeBuf = nw.fab.Route(from, to, nil, nw.routeBuf)
	for _, li := range nw.routeBuf {
		nw.cluster.Fluid.SetCapacity(nw.links[li], rate)
	}
}

// pathUses appends the routed link sequence of a transfer path from
// host src to host dst. Adaptive routing reads each candidate link's
// current fluid utilization at decision time — the simulation is
// single-threaded and deterministic, so the load snapshot (and hence
// the route) is a pure function of simulated history.
func (nw *Network) pathUses(uses []fluid.Use, src, dst int) []fluid.Use {
	nw.routeBuf = nw.fab.Route(src, dst, nw.load, nw.routeBuf)
	for _, li := range nw.routeBuf {
		uses = append(uses, fluid.Use{Resource: nw.links[li], Weight: 1})
	}
	return uses
}

// PathLatency returns the one-way hardware latency from host src to
// host dst: the wire latency plus one hop latency per switch traversed
// on the minimal route (none on a direct fabric's one-link route).
// Minimal and adaptive routes of a family traverse the same number of
// switches, so latency does not depend on the policy.
func (nw *Network) PathLatency(src, dst int) sim.Duration {
	hop := nw.fab.Spec.HopLatencyNs
	if hop == 0 {
		hop = topology.DefaultHopLatencyNs
	}
	nw.routeBuf = nw.fab.Route(src, dst, nil, nw.routeBuf)
	switches := len(nw.routeBuf) - 1
	return nw.WireLatency() + sim.Duration(float64(switches)*hop)
}
