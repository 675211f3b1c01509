package topology

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestFabricShapes(t *testing.T) {
	cases := []struct {
		name  string
		spec  *FabricSpec
		hosts int
		sw    int
		links int
		diam  int
	}{
		// direct n: n(n-1) directed links.
		{"two-node", TwoNodeFabric(), 2, 0, 2, 1},
		{"direct-4", &FabricSpec{Kind: FabricDirect, Hosts: 4}, 4, 0, 12, 1},
		// fat-tree k: k³/4 hosts, 5k²/4 switches, full-duplex links:
		// hosts (k³/4) + edge-agg (k·(k/2)²) + agg-core (k·(k/2)²),
		// each counted twice for both directions.
		{"fattree-k4", FatTreeFabric(4), 16, 20, 2 * (16 + 16 + 16), 6},
		{"fattree-k8", FatTreeFabric(8), 128, 80, 2 * (128 + 128 + 128), 6},
		{"fattree-k16", FatTreeFabric(16), 1024, 320, 2 * (1024 + 1024 + 1024), 6},
		// dfly+ g·r·h hosts, 2gr switches; links: hosts + leaf-spine
		// (g·r²) full-duplex, plus g·r·(g-1) directed globals.
		{"dflyplus-small", DflyFabric(4, 2, 2), 16, 16, 2*(16+4*4) + 4*2*3, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := c.spec.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if f.NHosts != c.hosts || f.NSwitches != c.sw || len(f.Links) != c.links {
				t.Fatalf("shape = %d hosts, %d switches, %d links; want %d, %d, %d",
					f.NHosts, f.NSwitches, len(f.Links), c.hosts, c.sw, c.links)
			}
			if d := f.Diameter(); d != c.diam {
				t.Fatalf("Diameter = %d, want %d", d, c.diam)
			}
			for i, l := range f.Links {
				if l.From < 0 || l.From >= f.NHosts+f.NSwitches || l.To < 0 || l.To >= f.NHosts+f.NSwitches || l.From == l.To {
					t.Fatalf("link %d = %+v out of range", i, l)
				}
			}
		})
	}
}

// checkRoute verifies a returned path is a connected host-to-host walk.
func checkRoute(t *testing.T, f *Fabric, src, dst int, path []int) {
	t.Helper()
	if len(path) == 0 {
		t.Fatalf("route %d→%d: empty path", src, dst)
	}
	at := src
	for _, li := range path {
		if li < 0 || li >= len(f.Links) {
			t.Fatalf("route %d→%d: link index %d out of range", src, dst, li)
		}
		l := f.Links[li]
		if l.From != at {
			t.Fatalf("route %d→%d: link %d starts at %d, cursor at %d", src, dst, li, l.From, at)
		}
		at = l.To
	}
	if at != dst {
		t.Fatalf("route %d→%d: ends at %d", src, dst, at)
	}
	if len(path) > f.Diameter() {
		t.Fatalf("route %d→%d: %d hops exceeds diameter %d", src, dst, len(path), f.Diameter())
	}
}

func TestFabricRoutesAllPairs(t *testing.T) {
	for _, name := range []string{"two-node", "fattree-k4", "fattree-k8", "dflyplus-small", "dflyplus-medium"} {
		t.Run(name, func(t *testing.T) {
			f := FabricPreset(name).MustBuild()
			var buf []int
			for s := 0; s < f.NHosts; s++ {
				for d := 0; d < f.NHosts; d++ {
					if s == d {
						continue
					}
					buf = f.Route(s, d, nil, buf)
					checkRoute(t, f, s, d, buf)
				}
			}
		})
	}
}

// Minimal routing is a pure function of (src, dst); and with every link
// equally loaded, adaptive must agree with it (ties resolve minimal).
func TestFabricRoutingDeterministicAndTieBreak(t *testing.T) {
	flat := func(int) float64 { return 0.5 }
	for _, name := range []string{"fattree-k4", "dflyplus-small"} {
		t.Run(name, func(t *testing.T) {
			f := FabricPreset(name).MustBuild()
			for s := 0; s < f.NHosts; s++ {
				for d := 0; d < f.NHosts; d++ {
					if s == d {
						continue
					}
					a := f.Route(s, d, nil, nil)
					b := f.Route(s, d, nil, nil)
					c := f.Route(s, d, flat, nil)
					if fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("minimal route %d→%d unstable: %v vs %v", s, d, a, b)
					}
					if fmt.Sprint(a) != fmt.Sprint(c) {
						t.Fatalf("uniform-load adaptive route %d→%d = %v, minimal %v", s, d, c, a)
					}
				}
			}
		})
	}
}

// Adaptive routing must steer around a loaded link when an idle
// alternative exists, and the detour must still be a valid route.
func TestFabricAdaptiveAvoidsLoad(t *testing.T) {
	f := FabricPreset("fattree-k4").MustBuild()
	src, dst := 0, 15 // cross-pod: two adaptive decisions (agg, core)
	min := f.Route(src, dst, nil, nil)
	loaded := map[int]float64{min[1]: 0.9} // congest the minimal edge→agg up-link
	load := func(li int) float64 { return loaded[li] }
	adaptive := f.Route(src, dst, load, nil)
	checkRoute(t, f, src, dst, adaptive)
	for _, li := range adaptive {
		if li == min[1] {
			t.Fatalf("adaptive route %v kept the congested link %d (minimal %v)", adaptive, min[1], min)
		}
	}
}

// Direct fabrics must enumerate links in the legacy full-mesh order:
// (0,1), (0,2), ..., (1,0), ... — the two-node byte-identity argument
// leans on this.
func TestDirectFabricLinkOrder(t *testing.T) {
	f := (&FabricSpec{Kind: FabricDirect, Hosts: 3}).MustBuild()
	want := []FabricLink{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}
	for i, l := range f.Links {
		if l != want[i] {
			t.Fatalf("link %d = %+v, want %+v", i, l, want[i])
		}
	}
	for s := 0; s < 3; s++ {
		for d := 0; d < 3; d++ {
			if s == d {
				continue
			}
			path := f.Route(s, d, nil, nil)
			if len(path) != 1 || f.Links[path[0]] != (FabricLink{s, d}) {
				t.Fatalf("direct route %d→%d = %v", s, d, path)
			}
		}
	}
}

func TestFabricSpecValidateRejects(t *testing.T) {
	bad := []*FabricSpec{
		{Kind: "mesh"},
		{Kind: FabricDirect, Hosts: 1},
		{Kind: FabricDirect, Hosts: maxDirectHosts + 1},
		{Kind: FabricDirect, Hosts: 2, K: 4},
		{Kind: FabricFatTree, K: 3},
		{Kind: FabricFatTree, K: 0},
		{Kind: FabricFatTree, K: maxFatTreeK + 2},
		{Kind: FabricFatTree, K: 4, Groups: 2},
		{Kind: FabricDragonflyPlus, Groups: 1, RoutersPerGroup: 2, HostsPerRouter: 2},
		{Kind: FabricDragonflyPlus, Groups: 64, RoutersPerGroup: 32, HostsPerRouter: 64},
		{Kind: FabricDragonflyPlus, Groups: 4, RoutersPerGroup: 2, HostsPerRouter: 2, Hosts: 2},
		{Kind: FabricFatTree, K: 4, LinkGBs: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted", i, *s)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("case %d (%+v): Build accepted", i, *s)
		}
	}
}

func TestFabricPresetsValid(t *testing.T) {
	for _, name := range FabricPresetNames() {
		s := FabricPreset(name)
		if s == nil {
			t.Fatalf("preset %q missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
		if _, err := s.Build(); err != nil {
			t.Fatalf("preset %q failed to build: %v", name, err)
		}
	}
	if FabricPreset("no-such-fabric") != nil {
		t.Fatal("unknown preset did not return nil")
	}
}

// Build names every link "fl<index>.<from>-<to>" once, for LinkName to
// hand out.
func TestFabricLinkNames(t *testing.T) {
	for _, name := range FabricPresetNames() {
		f := FabricPreset(name).MustBuild()
		for i, l := range f.Links {
			if got, want := f.LinkName(i), fmt.Sprintf("fl%d.%d-%d", i, l.From, l.To); got != want {
				t.Fatalf("%s: link %d named %q, want %q", name, i, got, want)
			}
		}
	}
}

func TestFabricSpecJSONRoundTrip(t *testing.T) {
	for _, name := range FabricPresetNames() {
		s := FabricPreset(name)
		var buf bytes.Buffer
		if err := WriteFabricSpec(&buf, s); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadFabricSpec(&buf)
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if *got != *s {
			t.Fatalf("%s: round trip %+v != %+v", name, *got, *s)
		}
	}
}

// Random valid specs all build routable fabrics — a light in-process
// complement to FuzzFabricSpec.
func TestFabricRandomSpecsRoutable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		var s *FabricSpec
		switch rng.Intn(3) {
		case 0:
			s = &FabricSpec{Kind: FabricDirect, Hosts: 2 + rng.Intn(14)}
		case 1:
			s = FatTreeFabric(2 * (1 + rng.Intn(4)))
		default:
			s = DflyFabric(2+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(3))
		}
		f, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		var buf []int
		for trial := 0; trial < 50; trial++ {
			src := rng.Intn(f.NHosts)
			dst := rng.Intn(f.NHosts)
			if src == dst {
				continue
			}
			buf = f.Route(src, dst, nil, buf)
			checkRoute(t, f, src, dst, buf)
		}
	}
}
