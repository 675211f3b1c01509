package net

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fluid"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// --- The paper's two-node network ----------------------------------------
//
// New builds the two-host direct fabric: one full-duplex wire, whose
// names, capacity, latency and transfer timings every paper experiment
// depends on.

// newFabric builds the interconnect of c over the fabric spec, which
// must validate.
func newFabric(c *machine.Cluster, spec *topology.FabricSpec, adaptive bool) *Network {
	fab, err := spec.Build()
	if err != nil {
		panic(fmt.Sprintf("net: invalid fabric spec: %v", err))
	}
	return NewOnFabric(c, fab, adaptive)
}

// transferScript runs a fixed mix of DMA and eager transfers and
// returns every completion instant.
func transferScript(c *machine.Cluster, nw *Network) []sim.Time {
	a, b := c.Nodes[0], c.Nodes[1]
	bufA0 := a.Alloc(8<<20, 0)
	bufA3 := a.Alloc(8<<20, 3)
	bufB0 := b.Alloc(8<<20, 0)
	bufB3 := b.Alloc(8<<20, 3)
	var times []sim.Time
	c.K.Spawn("fwd", func(p *sim.Proc) {
		nw.SendOverhead(p, a, 0, 0)
		nw.TransferDMA(p, a, bufA0, b, bufB3, 8<<20)
		times = append(times, p.Now())
		nw.StartEager(a, b, 1<<16, func(bool) { times = append(times, c.K.Now()) })
	})
	c.K.Spawn("rev", func(p *sim.Proc) {
		nw.TransferDMA(p, b, bufB0, a, bufA3, 8<<20)
		times = append(times, p.Now())
		nw.RecvOverhead(p, b, 2, 0)
		times = append(times, p.Now())
	})
	c.K.Run()
	return times
}

// TestFabricTwoNodeWireModel pins New's two-node network: links
// "wire0-1" and "wire1-0" in that order, at the NIC wire rate, each a
// one-link route with the bare wire latency. The transfer script's
// completion instants are the ones the dedicated per-pair wires gave
// before the direct fabric replaced them, so the test fails if the
// two-node wire model moves.
func TestFabricTwoNodeWireModel(t *testing.T) {
	c := machine.NewCluster(topology.Henri(), 2, 1)
	nw := New(c)
	if len(nw.links) != 2 {
		t.Fatalf("two-node network has %d links, want 2", len(nw.links))
	}
	for i, want := range []string{"wire0-1", "wire1-0"} {
		if got := nw.Link(i).Name(); got != want {
			t.Fatalf("link %d named %q, want %q", i, got, want)
		}
		if got, want := nw.Link(i).Capacity(), c.Spec.NIC.WireGBs*1e9; got != want {
			t.Fatalf("link %d capacity %v, want the NIC wire rate %v", i, got, want)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}} {
		if got, want := nw.PathLatency(pair[0], pair[1]), nw.WireLatency(); got != want {
			t.Fatalf("path latency %d→%d is %v, want the wire latency %v", pair[0], pair[1], got, want)
		}
	}
	want := []sim.Time{769598, 771048, 771048, 777061} // ns
	if got := transferScript(c, nw); !slices.Equal(got, want) {
		t.Fatalf("transfers completed at %v, want %v", got, want)
	}
}

// A fabric world's resources are its nodes' and then one per link, in
// link order, named "fl<index>.<from>-<to>". The worlds of a cell build
// concurrently from one shared Fabric, and share its names.
func TestFabricWorldLinkNames(t *testing.T) {
	fab := topology.FabricPreset("fattree-k4").MustBuild()
	worlds := make([]*machine.Cluster, 2)
	done := make(chan struct{})
	for w := range worlds {
		go func() {
			defer func() { done <- struct{}{} }()
			worlds[w] = machine.NewCluster(topology.Henri(), fab.NHosts, 1)
			NewOnFabric(worlds[w], fab, w == 1)
		}()
	}
	for range worlds {
		<-done
	}
	for _, c := range worlds {
		res := c.Fluid.Resources()
		nodeRes := len(res) - len(fab.Links)
		if nodeRes <= 0 || !strings.HasPrefix(res[nodeRes-1].Name(), fmt.Sprintf("n%d.", fab.NHosts-1)) {
			t.Fatalf("%d resources for %d links: the nodes' do not come first", len(res), len(fab.Links))
		}
		for i, l := range fab.Links {
			if got, want := res[nodeRes+i].Name(), fmt.Sprintf("fl%d.%d-%d", i, l.From, l.To); got != want {
				t.Fatalf("link %d named %q, want %q", i, got, want)
			}
		}
	}
}

// --- Routing independence ------------------------------------------------
//
// A single job on an idle fabric must be byte-identical under minimal
// and adaptive routing: with every link idle at each decision point,
// adaptive's strict-improvement rule always keeps the minimal choice.

func sequentialTransfers(t *testing.T, preset string, adaptive bool) []sim.Time {
	t.Helper()
	spec := topology.FabricPreset(preset)
	fab := spec.MustBuild()
	c := machine.NewCluster(topology.Henri(), fab.NHosts, 1)
	nw := newFabric(c, spec, adaptive)
	rng := rand.New(rand.NewSource(7))
	type pair struct{ src, dst int }
	var pairs []pair
	for i := 0; i < 20; i++ {
		s, d := rng.Intn(fab.NHosts), rng.Intn(fab.NHosts)
		if s != d {
			pairs = append(pairs, pair{s, d})
		}
	}
	var times []sim.Time
	c.K.Spawn("job", func(p *sim.Proc) {
		for _, pr := range pairs {
			src, dst := c.Nodes[pr.src], c.Nodes[pr.dst]
			srcBuf := src.Alloc(4<<20, 0)
			dstBuf := dst.Alloc(4<<20, 0)
			p.Sleep(nw.PathLatency(pr.src, pr.dst))
			nw.TransferDMA(p, src, srcBuf, dst, dstBuf, 4<<20)
			times = append(times, p.Now())
		}
	})
	c.K.Run()
	return times
}

func TestFabricRoutingIndependenceOnIdleFabric(t *testing.T) {
	for _, preset := range []string{"fattree-k4", "dflyplus-small"} {
		t.Run(preset, func(t *testing.T) {
			minimal := sequentialTransfers(t, preset, false)
			adaptive := sequentialTransfers(t, preset, true)
			if len(minimal) != len(adaptive) {
				t.Fatalf("transfer counts differ: %d vs %d", len(minimal), len(adaptive))
			}
			for i := range minimal {
				if minimal[i] != adaptive[i] {
					t.Fatalf("transfer %d: minimal at %v, adaptive at %v", i, minimal[i], adaptive[i])
				}
			}
		})
	}
}

// --- Link sharing --------------------------------------------------------

// Two concurrent transfers from different hosts under the same edge
// switch, routed through the same up-link, must each get about half of
// it — the inter-job interference mechanism at its smallest.
func TestFabricSharedUpLinkHalvesThroughput(t *testing.T) {
	spec := topology.FabricPreset("fattree-k4")
	fab := spec.MustBuild()
	c := machine.NewCluster(topology.Henri(), fab.NHosts, 1)
	nw := newFabric(c, spec, false)
	// Hosts 0 and 1 share edge(0,0); destinations 4 and 6 both hash to
	// aggregation position 0, so both routes cross the same edge→agg
	// up-link (asserted, not assumed).
	r0 := fab.Route(0, 4, nil, nil)
	r1 := fab.Route(1, 6, nil, nil)
	if r0[1] != r1[1] {
		t.Fatalf("routes do not share the up-link: %v vs %v", r0, r1)
	}
	durations := make([]sim.Duration, 2)
	for i, pr := range [][2]int{{0, 4}, {1, 6}} {
		i, pr := i, pr
		src, dst := c.Nodes[pr[0]], c.Nodes[pr[1]]
		srcBuf := src.Alloc(64<<20, 0)
		dstBuf := dst.Alloc(64<<20, 0)
		c.K.Spawn("xfer", func(p *sim.Proc) {
			start := p.Now()
			nw.TransferDMA(p, src, srcBuf, dst, dstBuf, 64<<20)
			durations[i] = p.Now().Sub(start)
		})
	}
	c.K.Run()
	for i, d := range durations {
		gbps := float64(64<<20) / d.Seconds() / 1e9
		if math.Abs(gbps-10.9/2) > 0.3 {
			t.Fatalf("transfer %d ran at %.2f GB/s, want ~%.2f (half the shared up-link)", i, gbps, 10.9/2)
		}
	}
}

func TestFabricPathLatencyCountsSwitches(t *testing.T) {
	spec := topology.FabricPreset("fattree-k4")
	fab := spec.MustBuild()
	c := machine.NewCluster(topology.Henri(), fab.NHosts, 1)
	nw := newFabric(c, spec, false)
	// Cross-pod: 6 links, 5 switches.
	want := nw.WireLatency() + sim.Duration(5*topology.DefaultHopLatencyNs)
	if got := nw.PathLatency(0, 15); got != want {
		t.Fatalf("cross-pod latency %v, want %v", got, want)
	}
	// Same-edge: 2 links, 1 switch.
	want = nw.WireLatency() + sim.Duration(topology.DefaultHopLatencyNs)
	if got := nw.PathLatency(0, 1); got != want {
		t.Fatalf("same-edge latency %v, want %v", got, want)
	}
}

// --- Property storm (satellite: random fabrics × random flow churn) ------
//
// Drives the fluid model over routed multi-hop paths on random fabrics
// and checks, at every step, per-link bandwidth conservation (own
// bookkeeping of which flows cross each link, never the model's) and
// the max-min optimality of every unfinished flow. This is the
// multi-hop extension of internal/fluid's in-package property storm,
// run entirely through the exported API.

type stormFlow struct {
	flow *fluid.Flow
	path []int // link indices
	cap  float64
}

func randomFabricSpec(rng *rand.Rand) *topology.FabricSpec {
	switch rng.Intn(3) {
	case 0:
		return &topology.FabricSpec{Kind: topology.FabricDirect, Hosts: 2 + rng.Intn(10)}
	case 1:
		return topology.FatTreeFabric(2 * (1 + rng.Intn(3))) // k ∈ {2,4,6}
	default:
		return topology.DflyFabric(2+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(3))
	}
}

// checkFabricMaxMin asserts feasibility and bottleneck optimality of
// the current allocation over the fabric links.
func checkFabricMaxMin(t *testing.T, links []*fluid.Resource, flows []*stormFlow) {
	t.Helper()
	load := make([]float64, len(links))
	for _, sf := range flows {
		if sf.flow.Finished() {
			continue
		}
		rate := sf.flow.Rate()
		if rate < 0 || math.IsNaN(rate) {
			t.Fatalf("flow %q has invalid rate %v", sf.flow.Name(), rate)
		}
		if sf.cap > 0 && rate > sf.cap*(1+1e-6) {
			t.Fatalf("flow %q rate %v above its cap %v", sf.flow.Name(), rate, sf.cap)
		}
		for _, li := range sf.path {
			load[li] += rate
		}
	}
	for li, l := range load {
		if cap := links[li].Capacity(); l > cap*(1+1e-6) {
			t.Fatalf("link %q over capacity: routed flows sum to %v > %v", links[li].Name(), l, cap)
		}
	}
	for _, sf := range flows {
		if sf.flow.Finished() {
			continue
		}
		rate := sf.flow.Rate()
		if sf.cap > 0 && rate >= sf.cap*(1-1e-6) {
			continue // cap-limited
		}
		saturated := false
		for _, li := range sf.path {
			if load[li] >= links[li].Capacity()*(1-1e-6) {
				saturated = true
				break
			}
		}
		if !saturated {
			t.Fatalf("flow %q (rate %v, cap %v) neither cap-limited nor bottlenecked on a saturated link",
				sf.flow.Name(), rate, sf.cap)
		}
	}
}

func TestFabricPropertyStorm(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomFabricSpec(rng)
		fab := spec.MustBuild()
		k := sim.NewKernel(seed)
		m := fluid.NewModel(k)
		links := make([]*fluid.Resource, len(fab.Links))
		for i := range fab.Links {
			links[i] = m.NewResource(fab.LinkName(i), (1+rng.Float64()*10)*1e9)
		}
		loadOf := func(li int) float64 { return links[li].Utilization() }
		var flows []*stormFlow
		start := func() {
			src, dst := rng.Intn(fab.NHosts), rng.Intn(fab.NHosts)
			if src == dst {
				return
			}
			var load topology.LoadFunc
			if rng.Intn(2) == 0 {
				load = loadOf
			}
			path := fab.Route(src, dst, load, nil)
			spec := fluid.FlowSpec{
				Name: "storm",
				Work: 1e6 + rng.Float64()*1e9,
			}
			if rng.Intn(3) == 0 {
				spec.Cap = (0.5 + rng.Float64()*5) * 1e9
			}
			for _, li := range path {
				spec.Uses = append(spec.Uses, fluid.Use{Resource: links[li], Weight: 1})
			}
			flows = append(flows, &stormFlow{flow: m.Start(spec), path: path, cap: spec.Cap})
		}
		for i := 0; i < 5; i++ {
			start()
		}
		checkFabricMaxMin(t, links, flows)
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0:
				start()
			case 1:
				if len(flows) > 0 {
					i := rng.Intn(len(flows))
					if !flows[i].flow.Finished() {
						m.Cancel(flows[i].flow)
					}
					flows = append(flows[:i], flows[i+1:]...)
				}
			case 2:
				m.SetCapacity(links[rng.Intn(len(links))], (1+rng.Float64()*10)*1e9)
			case 3:
				k.RunUntil(k.Now().Add(sim.Duration(rng.Intn(int(20 * sim.Millisecond)))))
			}
			checkFabricMaxMin(t, links, flows)
		}
	}
}

// --- Fault binding -------------------------------------------------------

func TestFabricInstallFaultsScalesLinks(t *testing.T) {
	spec := topology.FabricPreset("fattree-k4")
	fab := spec.MustBuild()
	c := machine.NewCluster(topology.Henri(), fab.NHosts, 1)
	nw := newFabric(c, spec, false)
	base := nw.Link(0).Capacity()

	// Exercise the callback InstallFaults binds, through the same
	// signature the injector drives it with.
	nw.scaleLinks(-1, -1, 0.5)
	for i := 0; i < len(fab.Links); i++ {
		if got := nw.Link(i).Capacity(); got != base*0.5 {
			t.Fatalf("link %d capacity %v after all-links degrade, want %v", i, got, base*0.5)
		}
	}
	nw.scaleLinks(-1, -1, 1)
	// Per-pair degrade hits exactly the minimal route's links.
	nw.scaleLinks(0, 15, 0.25)
	route := fab.Route(0, 15, nil, nil)
	onRoute := make(map[int]bool, len(route))
	for _, li := range route {
		onRoute[li] = true
	}
	for i := 0; i < len(fab.Links); i++ {
		want := base
		if onRoute[i] {
			want = base * 0.25
		}
		if got := nw.Link(i).Capacity(); got != want {
			t.Fatalf("link %d capacity %v after pair degrade, want %v", i, got, want)
		}
	}
}

// --- Reset ---------------------------------------------------------------

// fluidRows lists a model's resources in id order, one "id name
// capacity" row each, the capacity in exact bits.
func fluidRows(m *fluid.Model) []string {
	rows := make([]string, len(m.Resources()))
	for i, r := range m.Resources() {
		rows[i] = fmt.Sprintf("%d %s %x", i, r.Name(), math.Float64bits(r.Capacity()))
	}
	return rows
}

// A rewound fabric world must hold the resources a fresh build creates:
// the same ids, names and capacities. The rewound world first ran a
// transfer under an all-links degrade, which Cluster.Reset and
// Network.Reset must undo — the links included. Every preset is
// checked, the direct fabric New builds at 1, 2 and 4 hosts, and a
// two-node henri world rewound onto a spec with a faster NIC wire, as
// the arena rebinds pooled worlds: its links must take the new rate.
func TestFabricResetMatchesFresh(t *testing.T) {
	sched, err := fault.ParseSpec("degrade:factor=0.5")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	henri := topology.Henri()
	fastWire := henri.Clone()
	fastWire.NIC.WireGBs *= 2
	type world struct {
		name   string
		fab    *topology.Fabric
		rewind *topology.NodeSpec // the spec the world is rewound onto
	}
	var worlds []world
	for _, name := range topology.FabricPresetNames() {
		worlds = append(worlds, world{name, topology.FabricPreset(name).MustBuild(), henri})
	}
	for _, hosts := range []int{1, 2, 4} {
		worlds = append(worlds, world{fmt.Sprintf("direct-%d", hosts), topology.ClusterFabric(hosts), henri})
	}
	worlds = append(worlds, world{"direct-2 onto a faster wire", topology.ClusterFabric(2), fastWire})
	for _, w := range worlds {
		fab := w.fab
		fresh := machine.NewCluster(w.rewind, fab.NHosts, seed)
		NewOnFabric(fresh, fab, false)
		want := fluidRows(fresh.Fluid)

		c := machine.NewCluster(henri, fab.NHosts, seed)
		nw := NewOnFabric(c, fab, false)
		nw.InstallFaults(fault.NewInjector(c, sched, seed))
		if len(fab.Links) > 0 {
			src, dst := c.Nodes[0], c.Nodes[fab.NHosts-1]
			c.K.Spawn("xfer", func(p *sim.Proc) {
				nw.TransferDMA(p, src, src.Alloc(1<<20, 0), dst, dst.Alloc(1<<20, 0), 1<<20)
			})
		}
		c.K.Run()
		if len(fab.Links) > 0 && nw.Link(0).Capacity() == henri.NIC.WireGBs*1e9 {
			t.Fatalf("%s: the degrade left link 0 at its healthy capacity", w.name)
		}
		c.Reset(w.rewind, seed)
		nw.Reset()
		got := fluidRows(c.Fluid)
		if len(got) != len(want) {
			t.Fatalf("%s: %d resources after Reset, a fresh build has %d", w.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s after Reset: resource %s, want %s", w.name, got[i], want[i])
			}
		}
		for i := range fab.Links {
			if got, want := nw.Link(i).Capacity(), w.rewind.NIC.WireGBs*1e9; got != want {
				t.Fatalf("%s after Reset: link %d at %v, want the rewind spec's wire rate %v", w.name, i, got, want)
			}
		}
	}
}
