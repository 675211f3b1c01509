package topology

// Fabric topologies. The original model connects every pair of nodes
// with a dedicated full-duplex wire (a "direct" fabric); real machines
// route traffic through a switched interconnect whose links are shared
// between jobs. This file describes such fabrics as data — a FabricSpec
// names a topology family plus its parameters, Build expands it into an
// explicit directed link graph, and Route maps a host pair onto a
// multi-hop link path under minimal or adaptive routing. The network
// layer (internal/net) turns each link into one fluid resource, so
// transfers of different jobs interfere exactly where their routed
// paths overlap.
//
// Two families beyond direct are provided:
//
//   - fat-tree: the k-ary three-level Clos of Al-Fares et al.: k pods
//     of k/2 edge and k/2 aggregation switches, (k/2)² core switches,
//     k³/4 hosts. Minimal routing uses the classic destination-hash
//     ("D-mod-k") up-path; adaptive routing picks the least-loaded
//     up-link at each level, falling back to the minimal choice on
//     ties — so on an idle fabric adaptive and minimal coincide.
//
//   - dragonfly+: groups of leaf and spine routers in a complete
//     bipartite graph (Shpiner et al.; the topology of the Kang et al.
//     inter-job interference study). Spines form per-index global
//     "rails": spine s of every group is all-to-all connected with
//     spine s of every other group. Minimal routing hashes the rail by
//     destination; adaptive picks the rail whose first up-link is
//     least loaded.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Fabric kind names accepted in FabricSpec.Kind.
const (
	// FabricDirect is a dedicated full-duplex wire per host pair — the
	// paper's original two-node model generalised to n hosts.
	FabricDirect = "direct"
	// FabricFatTree is the k-ary three-level fat-tree.
	FabricFatTree = "fat-tree"
	// FabricDragonflyPlus is the leaf/spine dragonfly+ of groups joined
	// by per-spine global rails.
	FabricDragonflyPlus = "dragonfly+"
)

// FabricSpec parameterises a fabric topology. Exactly the fields of
// the chosen Kind are consulted; the rest must be zero (Validate
// enforces this, so a spec file cannot silently carry dead knobs).
type FabricSpec struct {
	Kind string `json:"kind"`
	// Hosts is the host count of a direct fabric.
	Hosts int `json:"hosts,omitempty"`
	// K is the fat-tree arity (even); the fabric has k³/4 hosts.
	K int `json:"k,omitempty"`
	// Groups/RoutersPerGroup/HostsPerRouter shape a dragonfly+: each
	// group has RoutersPerGroup leaves and as many spines, each leaf
	// carries HostsPerRouter hosts.
	Groups          int `json:"groups,omitempty"`
	RoutersPerGroup int `json:"routersPerGroup,omitempty"`
	HostsPerRouter  int `json:"hostsPerRouter,omitempty"`
	// LinkGBs is the per-link capacity in GB/s; 0 inherits the node
	// spec's NIC wire bandwidth (every link tier shares one capacity —
	// tapered fabrics are out of scope).
	LinkGBs float64 `json:"linkGBs,omitempty"`
	// HopLatencyNs is the added one-way latency per switch hop beyond
	// the baseline NIC-to-NIC wire latency; 0 means DefaultHopLatencyNs.
	HopLatencyNs float64 `json:"hopLatencyNs,omitempty"`
}

// DefaultHopLatencyNs is the per-switch-hop latency used when a spec
// leaves HopLatencyNs zero (a port-to-port cut-through traversal).
const DefaultHopLatencyNs = 110

// Sanity ceilings for fabric shapes: generous for the target scale
// (O(1k–10k) hosts) while keeping link counts far from overflowing
// anything downstream. Direct fabrics are quadratic in links, so their
// host ceiling is much lower.
const (
	maxDirectHosts     = 256
	maxFatTreeK        = 32 // k=32 → 8192 hosts
	maxDflyGroups      = 64
	maxDflyRouters     = 32
	maxDflyHostsPerRtr = 64
	maxFabricHosts     = 1 << 14
)

// Validate checks the spec's internal consistency. Like NodeSpec's
// Validate it collects every violation rather than stopping at the
// first.
func (s *FabricSpec) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	zero := func(field string, v int) {
		check(v == 0, "%s is not a %s parameter (got %d)", field, s.Kind, v)
	}
	switch s.Kind {
	case FabricDirect:
		check(s.Hosts >= 2 && s.Hosts <= maxDirectHosts, "direct hosts = %d (want 2..%d)", s.Hosts, maxDirectHosts)
		zero("k", s.K)
		zero("groups", s.Groups)
		zero("routersPerGroup", s.RoutersPerGroup)
		zero("hostsPerRouter", s.HostsPerRouter)
	case FabricFatTree:
		check(s.K >= 2 && s.K <= maxFatTreeK && s.K%2 == 0, "fat-tree k = %d (want even, 2..%d)", s.K, maxFatTreeK)
		zero("hosts", s.Hosts)
		zero("groups", s.Groups)
		zero("routersPerGroup", s.RoutersPerGroup)
		zero("hostsPerRouter", s.HostsPerRouter)
	case FabricDragonflyPlus:
		check(s.Groups >= 2 && s.Groups <= maxDflyGroups, "dragonfly+ groups = %d (want 2..%d)", s.Groups, maxDflyGroups)
		check(s.RoutersPerGroup >= 1 && s.RoutersPerGroup <= maxDflyRouters,
			"dragonfly+ routers/group = %d (want 1..%d)", s.RoutersPerGroup, maxDflyRouters)
		check(s.HostsPerRouter >= 1 && s.HostsPerRouter <= maxDflyHostsPerRtr,
			"dragonfly+ hosts/router = %d (want 1..%d)", s.HostsPerRouter, maxDflyHostsPerRtr)
		if s.Groups > 0 && s.RoutersPerGroup > 0 && s.HostsPerRouter > 0 {
			check(s.Groups*s.RoutersPerGroup*s.HostsPerRouter <= maxFabricHosts,
				"dragonfly+ has %d hosts (max %d)", s.Groups*s.RoutersPerGroup*s.HostsPerRouter, maxFabricHosts)
		}
		zero("hosts", s.Hosts)
		zero("k", s.K)
	default:
		check(false, "unknown fabric kind %q (have %s, %s, %s)",
			s.Kind, FabricDirect, FabricFatTree, FabricDragonflyPlus)
	}
	check(s.LinkGBs >= 0 && !math.IsNaN(s.LinkGBs) && !math.IsInf(s.LinkGBs, 0), "link bandwidth %v", s.LinkGBs)
	check(s.HopLatencyNs >= 0 && !math.IsNaN(s.HopLatencyNs) && !math.IsInf(s.HopLatencyNs, 0),
		"hop latency %v", s.HopLatencyNs)
	return errors.Join(errs...)
}

// String renders the spec compactly for experiment keys and tables
// ("fat-tree/k=4", "dragonfly+/g=4xr=2xh=2", "direct/hosts=2").
func (s *FabricSpec) String() string {
	switch s.Kind {
	case FabricFatTree:
		return fmt.Sprintf("fat-tree/k=%d", s.K)
	case FabricDragonflyPlus:
		return fmt.Sprintf("dragonfly+/g=%dxr=%dxh=%d", s.Groups, s.RoutersPerGroup, s.HostsPerRouter)
	case FabricDirect:
		return fmt.Sprintf("direct/hosts=%d", s.Hosts)
	}
	return fmt.Sprintf("fabric(%q)", s.Kind)
}

// FabricLink is one directed link of the built graph. From/To are graph
// node ids: hosts occupy [0, NHosts), switches [NHosts, NHosts+NSwitches).
type FabricLink struct {
	From, To int
}

// Fabric is a built fabric: the explicit link graph plus the routing
// tables. It is immutable after Build, so concurrent experiments may
// share one (internal/net keeps its own per-world scratch).
type Fabric struct {
	Spec      FabricSpec
	NHosts    int
	NSwitches int
	Links     []FabricLink

	// linkAt[from] maps a graph node to the indices of its outgoing
	// links in neighbor order (routing tables below index into it).
	linkAt [][]int

	// fat-tree shape (half = k/2; switch layout documented in build).
	half int

	// dragonfly+ shape.
	routers, perLeaf int

	// linkNames holds LinkName's strings, built by Build before the
	// fabric is shared, so that its worlds share them and read them
	// without a lock.
	linkNames []string
}

// Build expands the spec into an explicit fabric. The spec is validated
// first; an invalid spec returns an error, never a panic.
func (s *FabricSpec) Build() (*Fabric, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.build(), nil
}

// build expands a spec that needs no validation.
func (s *FabricSpec) build() *Fabric {
	f := &Fabric{Spec: *s}
	switch s.Kind {
	case FabricDirect:
		f.buildDirect(s.Hosts)
	case FabricFatTree:
		f.buildFatTree(s.K)
	case FabricDragonflyPlus:
		f.buildDfly(s.Groups, s.RoutersPerGroup, s.HostsPerRouter)
	}
	f.nameLinks()
	return f
}

// ClusterFabric returns the direct fabric of a cluster of hosts nodes:
// the paper's network of one full-duplex wire per node pair, the
// network net.New builds. Unlike a direct spec file, which Validate
// holds to at least 2 hosts, it accepts a single host, which has no
// links.
func ClusterFabric(hosts int) *Fabric {
	return (&FabricSpec{Kind: FabricDirect, Hosts: hosts}).build()
}

// MustBuild is Build for specs known statically (presets, tests).
func (s *FabricSpec) MustBuild() *Fabric {
	f, err := s.Build()
	if err != nil {
		panic(fmt.Sprintf("topology: invalid fabric spec: %v", err))
	}
	return f
}

// addLink appends a directed link and registers it with its origin.
func (f *Fabric) addLink(from, to int) int {
	idx := len(f.Links)
	f.Links = append(f.Links, FabricLink{From: from, To: to})
	f.linkAt[from] = append(f.linkAt[from], idx)
	return idx
}

// addPair appends both directions of a full-duplex link. A fat-tree
// adds only pairs, and a dragonfly+ adds its g·r·(g-1) global links,
// an even number, between its pairs, so the two directions of a pair
// sit at indices li and li^1 (see down).
func (f *Fabric) addPair(a, b int) {
	f.addLink(a, b)
	f.addLink(b, a)
}

// LinkName names a link for fluid-resource debugging: "wire3-1" on a
// direct fabric, "fl12.3-17" on a switched one.
func (f *Fabric) LinkName(i int) string { return f.linkNames[i] }

// nameLinks names every link once, for the worlds built on the fabric
// to share.
func (f *Fabric) nameLinks() {
	f.linkNames = make([]string, len(f.Links))
	direct := f.Spec.Kind == FabricDirect
	for i, l := range f.Links {
		if direct {
			f.linkNames[i] = "wire" + strconv.Itoa(l.From) + "-" + strconv.Itoa(l.To)
		} else {
			f.linkNames[i] = "fl" + strconv.Itoa(i) + "." + strconv.Itoa(l.From) + "-" + strconv.Itoa(l.To)
		}
	}
}

// buildDirect wires every ordered host pair in (i, j) order, so the
// link from i to j has index i·(hosts-1) + j, less one past the self
// slot (Route). The paper's two-node network is the two-host case:
// links 0→1 and 1→0, in that order (DESIGN.md §12).
func (f *Fabric) buildDirect(hosts int) {
	f.NHosts = hosts
	f.linkAt = make([][]int, hosts)
	for i := 0; i < hosts; i++ {
		for j := 0; j < hosts; j++ {
			if i != j {
				f.addLink(i, j)
			}
		}
	}
}

// Fat-tree layout: half = k/2.
//
//	hosts:  h in [0, k·half²); pod p = h/half², edge e = (h/half)%half,
//	        port = h%half.
//	edges:  NHosts + p·half + e
//	aggs:   NHosts + k·half + p·half + a
//	cores:  NHosts + 2·k·half + c, c in [0, half²); core c attaches to
//	        aggregation switch a = c/half of every pod as that switch's
//	        (c%half)-th up-neighbor.
//
// Up-link ordering in linkAt: a host's single up-link is its first
// link; an edge switch's up-links to aggs 0..half-1 precede its down
// links; likewise for aggs to cores. Build order guarantees this.
func (f *Fabric) buildFatTree(k int) {
	half := k / 2
	f.half = half
	f.NHosts = k * half * half
	f.NSwitches = 2*k*half + half*half
	f.linkAt = make([][]int, f.NHosts+f.NSwitches)
	edge := func(p, e int) int { return f.NHosts + p*half + e }
	agg := func(p, a int) int { return f.NHosts + k*half + p*half + a }
	core := func(c int) int { return f.NHosts + 2*k*half + c }
	// Up-links must be registered first at every switch (Route's up()
	// depends on it): agg→core before edge→agg before host links.
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for i := 0; i < half; i++ {
				f.addPair(agg(p, a), core(a*half+i))
			}
		}
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				f.addPair(edge(p, e), agg(p, a))
			}
		}
	}
	for h := 0; h < f.NHosts; h++ {
		p, e := h/(half*half), (h/half)%half
		f.addPair(h, edge(p, e))
	}
}

// Dragonfly+ layout:
//
//	hosts:  h in [0, g·r·perLeaf); group gi = h/(r·perLeaf),
//	        leaf li = (h/perLeaf)%r.
//	leaves: NHosts + gi·r + li
//	spines: NHosts + g·r + gi·r + si
//
// Intra-group leaves and spines form a complete bipartite graph; spine
// s of every group is all-to-all connected with spine s of every other
// group (the per-index global rail). linkAt[leaf] begins with the r
// up-links in spine order; linkAt[spine] begins with the r down-links
// in leaf order, followed by the global links in ascending peer-group
// order.
func (f *Fabric) buildDfly(g, r, perLeaf int) {
	f.routers, f.perLeaf = r, perLeaf
	f.NHosts = g * r * perLeaf
	f.NSwitches = 2 * g * r
	f.linkAt = make([][]int, f.NHosts+f.NSwitches)
	leaf := func(gi, li int) int { return f.NHosts + gi*r + li }
	spine := func(gi, si int) int { return f.NHosts + g*r + gi*r + si }
	for gi := 0; gi < g; gi++ {
		for li := 0; li < r; li++ {
			for si := 0; si < r; si++ {
				f.addPair(leaf(gi, li), spine(gi, si))
			}
		}
	}
	for gi := 0; gi < g; gi++ {
		for si := 0; si < r; si++ {
			for gj := 0; gj < g; gj++ {
				if gj != gi {
					f.addLink(spine(gi, si), spine(gj, si))
				}
			}
		}
	}
	for h := 0; h < f.NHosts; h++ {
		gi, li := h/(r*perLeaf), (h/perLeaf)%r
		f.addPair(h, leaf(gi, li))
	}
}

// Diameter returns the hop count of the longest minimal route (host
// links included): 1 for direct, 6 for a fat-tree, 5 for dragonfly+.
func (f *Fabric) Diameter() int {
	switch f.Spec.Kind {
	case FabricFatTree:
		return 6
	case FabricDragonflyPlus:
		return 5
	}
	return 1
}

// LoadFunc reports the current congestion of a link (any monotone
// measure works; internal/net passes fluid utilization). Adaptive
// routing consults it at each up-path decision; a nil LoadFunc selects
// pure minimal routing.
type LoadFunc func(link int) float64

// pick returns the up-neighbor choice for a routing decision: the
// minimal (destination-hashed) candidate unless load reports a strictly
// less congested one. Candidates are evaluated in ascending order with
// strict improvement required, so ties — an idle fabric in particular —
// always resolve to the minimal choice: a single job on an otherwise
// quiet fabric takes byte-identical paths under both policies.
func pick(n int, minimal int, load LoadFunc, linkOf func(choice int) int) int {
	if load == nil || n <= 1 {
		return minimal
	}
	best, bestLoad := minimal, load(linkOf(minimal))
	for c := 0; c < n; c++ {
		if c == minimal {
			continue
		}
		if l := load(linkOf(c)); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}

// Route appends the link indices of a path from host src to host dst
// onto buf[:0] and returns it. load drives adaptive up-path choices
// (nil = minimal routing). Down-paths are deterministic in all three
// families, so the chosen up-path fixes the whole route. src and dst
// must be distinct valid hosts.
func (f *Fabric) Route(src, dst int, load LoadFunc, buf []int) []int {
	if src < 0 || src >= f.NHosts || dst < 0 || dst >= f.NHosts || src == dst {
		panic(fmt.Sprintf("topology: bad route %d→%d on %d hosts", src, dst, f.NHosts))
	}
	buf = buf[:0]
	switch f.Spec.Kind {
	case FabricDirect:
		// Link enumeration order: src*(hosts-1) skips the self slot.
		idx := src*(f.NHosts-1) + dst
		if dst > src {
			idx--
		}
		return append(buf, idx)
	case FabricFatTree:
		return f.routeFatTree(src, dst, load, buf)
	case FabricDragonflyPlus:
		return f.routeDfly(src, dst, load, buf)
	}
	panic(fmt.Sprintf("topology: unroutable fabric kind %q", f.Spec.Kind))
}

// up returns node n's i-th up-link (linkAt orders up-links first).
func (f *Fabric) up(n, i int) int { return f.linkAt[n][i] }

// down returns the link into node n from its i-th up-neighbor: the
// reverse of n's i-th up-link, which addPair put beside it.
func (f *Fabric) down(n, i int) int { return f.up(n, i) ^ 1 }

func (f *Fabric) routeFatTree(src, dst int, load LoadFunc, buf []int) []int {
	half := f.half
	sp, se := src/(half*half), (src/half)%half
	dp, de := dst/(half*half), (dst/half)%half
	srcEdge := f.NHosts + sp*half + se
	dstEdge := f.NHosts + dp*half + de
	buf = append(buf, f.up(src, 0)) // host → edge
	if srcEdge == dstEdge {
		return append(buf, f.down(dst, 0))
	}
	// Up to an aggregation switch: D-mod-k hash, adaptive override.
	a := pick(half, dst%half, load, func(c int) int { return f.up(srcEdge, c) })
	aggUp := f.up(srcEdge, a)
	srcAgg := f.Links[aggUp].To
	buf = append(buf, aggUp)
	if sp == dp {
		return append(buf, f.down(dstEdge, a), f.down(dst, 0))
	}
	// Up to a core switch of srcAgg's column; it lands on the same
	// aggregation position a in the destination pod.
	i := pick(half, (dst/half)%half, load, func(c int) int { return f.up(srcAgg, c) })
	dstAgg := f.NHosts + f.Spec.K*half + dp*half + a
	return append(buf,
		f.up(srcAgg, i),
		f.down(dstAgg, i), // the core is dstAgg's i-th up-neighbor too
		f.down(dstEdge, a),
		f.down(dst, 0),
	)
}

func (f *Fabric) routeDfly(src, dst int, load LoadFunc, buf []int) []int {
	r, perLeaf := f.routers, f.perLeaf
	sg, sl := src/(r*perLeaf), (src/perLeaf)%r
	dg, dl := dst/(r*perLeaf), (dst/perLeaf)%r
	srcLeaf := f.NHosts + sg*r + sl
	dstLeaf := f.NHosts + dg*r + dl
	buf = append(buf, f.up(src, 0)) // host → leaf
	if srcLeaf == dstLeaf {
		return append(buf, f.down(dst, 0))
	}
	// Choose a spine rail: destination hash, adaptive override on the
	// leaf's up-link loads.
	s := pick(r, dst%r, load, func(c int) int { return f.up(srcLeaf, c) })
	spineUp := f.up(srcLeaf, s)
	buf = append(buf, spineUp)
	if sg == dg {
		return append(buf, f.down(dstLeaf, s), f.down(dst, 0))
	}
	// The global rail hop: srcSpine's links are its r down-links, then
	// one per other group in ascending order.
	srcSpine := f.Links[spineUp].To
	rail := r + dg
	if dg > sg {
		rail--
	}
	return append(buf,
		f.linkAt[srcSpine][rail],
		f.down(dstLeaf, s),
		f.down(dst, 0),
	)
}

// Fabric presets: the shapes the experiments and the fuzz corpus use.

// TwoNodeFabric is the spec of the paper's own network: two hosts, one
// full-duplex wire — the fabric net.New builds for a two-node cluster
// (ClusterFabric(2)).
func TwoNodeFabric() *FabricSpec { return &FabricSpec{Kind: FabricDirect, Hosts: 2} }

// FatTreeFabric returns the k-ary fat-tree spec (k³/4 hosts).
func FatTreeFabric(k int) *FabricSpec { return &FabricSpec{Kind: FabricFatTree, K: k} }

// DflyFabric returns a dragonfly+ spec of g groups, r leaf and r spine
// routers per group, h hosts per leaf (g·r·h hosts).
func DflyFabric(g, r, h int) *FabricSpec {
	return &FabricSpec{Kind: FabricDragonflyPlus, Groups: g, RoutersPerGroup: r, HostsPerRouter: h}
}

// FabricPreset returns a named fabric spec, or nil if unknown.
func FabricPreset(name string) *FabricSpec {
	switch name {
	case "two-node":
		return TwoNodeFabric()
	case "fattree-k4":
		return FatTreeFabric(4) // 16 hosts — the golden experiments
	case "fattree-k8":
		return FatTreeFabric(8) // 128 hosts
	case "fattree-k16":
		return FatTreeFabric(16) // 1024 hosts — the scale benchmark
	case "dflyplus-small":
		return DflyFabric(4, 2, 2) // 16 hosts — the golden experiments
	case "dflyplus-medium":
		return DflyFabric(8, 4, 4) // 128 hosts
	}
	return nil
}

// FabricPresetNames lists the named fabric presets in a stable order.
func FabricPresetNames() []string {
	return []string{"two-node", "fattree-k4", "fattree-k8", "fattree-k16", "dflyplus-small", "dflyplus-medium"}
}

// ReadFabricSpec parses and validates a fabric spec from JSON.
func ReadFabricSpec(r io.Reader) (*FabricSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := new(FabricSpec)
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("topology: parsing fabric spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("topology: invalid fabric spec: %w", err)
	}
	return s, nil
}

// WriteFabricSpec serialises a fabric spec to w.
func WriteFabricSpec(w io.Writer, s *FabricSpec) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// LoadFabricSpecFile reads a validated fabric spec from a JSON file.
func LoadFabricSpecFile(path string) (*FabricSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFabricSpec(f)
}
