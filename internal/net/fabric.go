package net

// Fabric-backed interconnects. NewFabric replaces the legacy full mesh
// of dedicated wires with an explicit switched fabric from
// internal/topology: every directed fabric link becomes one fluid
// resource, and each transfer's path is routed hop by hop, so
// transfers of different jobs contend exactly on the links their
// routes share. A "direct" two-host fabric creates the same resources
// in the same order with the same names and capacities as the legacy
// New — the differential battery in internal/runner holds the two
// byte-identical.

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// NewFabric builds the interconnect of cluster c over the given fabric
// spec. The spec must validate and its host count must equal the
// cluster's node count (hosts and nodes are identified one-to-one).
// When adaptive is true, transfer routing picks the least-loaded
// up-link at each decision, falling back to the minimal choice on ties;
// minimal routing otherwise.
func NewFabric(c *machine.Cluster, spec *topology.FabricSpec, adaptive bool) *Network {
	fab, err := spec.Build()
	if err != nil {
		panic(fmt.Sprintf("net: invalid fabric spec: %v", err))
	}
	return NewOnFabric(c, fab, adaptive)
}

// NewOnFabric is NewFabric over a fabric already built from its spec.
// The network only reads fab, so the worlds of one fabric may share a
// single build instead of each expanding the spec again.
func NewOnFabric(c *machine.Cluster, fab *topology.Fabric, adaptive bool) *Network {
	spec := &fab.Spec
	if fab.NHosts != len(c.Nodes) {
		panic(fmt.Sprintf("net: fabric has %d hosts, cluster has %d nodes", fab.NHosts, len(c.Nodes)))
	}
	nw := &Network{cluster: c, fab: fab, adaptive: adaptive}
	nw.linkBase = spec.LinkGBs * 1e9
	if spec.LinkGBs == 0 {
		nw.linkBase = c.Spec.NIC.WireGBs * 1e9
	}
	nw.hopLat = spec.HopLatencyNs
	if nw.hopLat == 0 {
		nw.hopLat = topology.DefaultHopLatencyNs
	}
	nw.links = make([]*fluid.Resource, len(fab.Links))
	for i, l := range fab.Links {
		name := fab.LinkName(i)
		if spec.Kind == topology.FabricDirect {
			// The legacy wire names, in the legacy enumeration order.
			name = fmt.Sprintf("wire%d-%d", l.From, l.To)
		}
		nw.links[i] = c.Fluid.NewResource(name, nw.linkBase)
	}
	nw.loadFn = func(li int) float64 { return nw.links[li].Utilization() }
	return nw
}

// Fabric returns the routed fabric, or nil on a legacy full-mesh
// network.
func (nw *Network) Fabric() *topology.Fabric { return nw.fab }

// Link returns the fluid resource of fabric link i (fabric networks
// only).
func (nw *Network) Link(i int) *fluid.Resource { return nw.links[i] }

// Adaptive reports whether transfers route adaptively.
func (nw *Network) Adaptive() bool { return nw.adaptive }

// scaleFabricLinks is the fault injector's wire-scaling callback on
// fabric networks. from < 0 scales every link (in enumeration order —
// deterministic); a directed host pair scales the links of the pair's
// minimal route, the deterministic path a healthy world would use.
func (nw *Network) scaleFabricLinks(from, to int, factor float64) {
	if from < 0 {
		for _, r := range nw.links {
			nw.cluster.Fluid.SetCapacity(r, nw.linkBase*factor)
		}
		return
	}
	nw.routeBuf = nw.fab.Route(from, to, nil, nw.routeBuf)
	for _, li := range nw.routeBuf {
		nw.cluster.Fluid.SetCapacity(nw.links[li], nw.linkBase*factor)
	}
}

// pathUses appends the wire segment of a transfer path from host src
// to host dst: the single dedicated wire on legacy networks, the
// routed multi-hop link sequence on fabrics. Adaptive routing reads
// each candidate link's current fluid utilization at decision time —
// the simulation is single-threaded and deterministic, so the load
// snapshot (and hence the route) is a pure function of simulated
// history.
func (nw *Network) pathUses(uses []fluid.Use, src, dst int) []fluid.Use {
	if nw.fab == nil {
		return append(uses, fluid.Use{Resource: nw.Wire(src, dst), Weight: 1})
	}
	var load topology.LoadFunc
	if nw.adaptive {
		load = nw.loadFn
	}
	nw.routeBuf = nw.fab.Route(src, dst, load, nw.routeBuf)
	for _, li := range nw.routeBuf {
		uses = append(uses, fluid.Use{Resource: nw.links[li], Weight: 1})
	}
	return uses
}

// PathLatency returns the one-way hardware latency from host src to
// host dst: the wire latency on legacy and direct networks, plus one
// hop latency per switch traversed on the minimal route of a switched
// fabric. (Minimal and adaptive routes of a family traverse the same
// number of switches, so latency does not depend on the policy.)
func (nw *Network) PathLatency(src, dst int) sim.Duration {
	if nw.fab == nil || nw.fab.Spec.Kind == topology.FabricDirect {
		return nw.WireLatency()
	}
	nw.routeBuf = nw.fab.Route(src, dst, nil, nw.routeBuf)
	switches := len(nw.routeBuf) - 1
	return nw.WireLatency() + sim.Duration(float64(switches)*nw.hopLat)
}
