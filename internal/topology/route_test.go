package topology

import (
	"fmt"
	"slices"
	"testing"
)

// Route computes every down hop from the link layout instead of looking
// it up. These tests hold it to a copy of the router that scanned a
// switch's links for each down hop, and check the layout it relies on.

// TestFabricLinkPairs: on every fat-tree each link's reverse sits at
// index li^1, and on every dragonfly+ each leaf-spine and host link's
// does. Route's down hops take that reverse of an up-link.
func TestFabricLinkPairs(t *testing.T) {
	for _, name := range FabricPresetNames() {
		f := FabricPreset(name).MustBuild()
		if f.Spec.Kind == FabricDirect {
			continue
		}
		spines := f.NHosts + f.Spec.Groups*f.routers // a dragonfly+'s first spine id
		t.Run(name, func(t *testing.T) {
			for li, l := range f.Links {
				if f.Spec.Kind == FabricDragonflyPlus && l.From >= spines && l.To >= spines {
					continue // a global rail hop: one direction per link
				}
				if rev := f.Links[li^1]; rev.From != l.To || rev.To != l.From {
					t.Fatalf("link %d %d→%d: link %d is %d→%d, want its reverse", li, l.From, l.To, li^1, rev.From, rev.To)
				}
			}
		})
	}
}

// TestFabricRouteMatchesScan: Route returns the scanning router's path
// for every ordered host pair of fat-trees k = 4, 8 and 16 and of every
// dragonfly+ preset, under minimal routing and under a fixed load.
func TestFabricRouteMatchesScan(t *testing.T) {
	specs := []*FabricSpec{FatTreeFabric(4), FatTreeFabric(8), FatTreeFabric(16)}
	for _, name := range FabricPresetNames() {
		if s := FabricPreset(name); s.Kind == FabricDragonflyPlus {
			specs = append(specs, s)
		}
	}
	// Uneven, with ties, so adaptive choices leave the minimal one.
	fixed := func(li int) float64 { return float64(li * 7919 % 13) }
	for _, spec := range specs {
		f := spec.MustBuild()
		t.Run(spec.String(), func(t *testing.T) {
			var got, want []int
			for _, load := range []LoadFunc{nil, fixed} {
				for s := 0; s < f.NHosts; s++ {
					for d := 0; d < f.NHosts; d++ {
						if s == d {
							continue
						}
						got = f.Route(s, d, load, got)
						want = scanRoute(f, s, d, load, want)
						if !slices.Equal(got, want) {
							t.Fatalf("route %d→%d (load %v): %v, scanning router %v", s, d, load != nil, got, want)
						}
					}
				}
			}
		})
	}
}

// scanRoute is the router as it was before down hops were computed: it
// finds each down hop by scanning the switch's links for the neighbor.
func scanRoute(f *Fabric, src, dst int, load LoadFunc, buf []int) []int {
	buf = buf[:0]
	downTo := func(sw, to int) int {
		for _, li := range f.linkAt[sw] {
			if f.Links[li].To == to {
				return li
			}
		}
		panic(fmt.Sprintf("no link %d→%d", sw, to))
	}
	if f.Spec.Kind == FabricFatTree {
		half := f.half
		sp, se := src/(half*half), (src/half)%half
		dp, de := dst/(half*half), (dst/half)%half
		srcEdge := f.NHosts + sp*half + se
		dstEdge := f.NHosts + dp*half + de
		buf = append(buf, f.up(src, 0))
		if srcEdge == dstEdge {
			return append(buf, downTo(srcEdge, dst))
		}
		a := pick(half, dst%half, load, func(c int) int { return f.up(srcEdge, c) })
		aggUp := f.up(srcEdge, a)
		srcAgg := f.Links[aggUp].To
		buf = append(buf, aggUp)
		if sp == dp {
			return append(buf, downTo(srcAgg, dstEdge), downTo(dstEdge, dst))
		}
		i := pick(half, (dst/half)%half, load, func(c int) int { return f.up(srcAgg, c) })
		coreUp := f.up(srcAgg, i)
		core := f.Links[coreUp].To
		dstAgg := f.NHosts + f.Spec.K*half + dp*half + a
		return append(buf, coreUp, downTo(core, dstAgg), downTo(dstAgg, dstEdge), downTo(dstEdge, dst))
	}
	g, r, perLeaf := f.Spec.Groups, f.routers, f.perLeaf
	sg, sl := src/(r*perLeaf), (src/perLeaf)%r
	dg, dl := dst/(r*perLeaf), (dst/perLeaf)%r
	srcLeaf := f.NHosts + sg*r + sl
	dstLeaf := f.NHosts + dg*r + dl
	buf = append(buf, f.up(src, 0))
	if srcLeaf == dstLeaf {
		return append(buf, downTo(srcLeaf, dst))
	}
	s := pick(r, dst%r, load, func(c int) int { return f.up(srcLeaf, c) })
	spineUp := f.up(srcLeaf, s)
	srcSpine := f.Links[spineUp].To
	buf = append(buf, spineUp)
	if sg == dg {
		return append(buf, downTo(srcSpine, dstLeaf), downTo(dstLeaf, dst))
	}
	dstSpine := f.NHosts + g*r + dg*r + s
	return append(buf, downTo(srcSpine, dstSpine), downTo(dstSpine, dstLeaf), downTo(dstLeaf, dst))
}
