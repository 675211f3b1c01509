package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/topology"
)

// resourceRows lists a model's resources in id order, one "name
// capacity" row each, the capacity in exact bits.
func resourceRows(m *fluid.Model) []string {
	var rows []string
	for _, r := range m.Resources() {
		rows = append(rows, fmt.Sprintf("%s %x", r.Name(), math.Float64bits(r.Capacity())))
	}
	return rows
}

// sameRows fails at the first resource where got and want differ.
func sameRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s: resource %d is %q, want %q", what, i, g, w)
		}
	}
}

// A fresh build must create the resources a rewind leaves behind: the
// same ids, names and capacities. The rewound cluster first ran a
// slice, which allocated its slots and moved the uncore, and had a
// capacity scrambled, all of which Reset must undo.
func TestFreshBuildMatchesReset(t *testing.T) {
	for _, name := range []string{"henri", "bora", "billy", "pyxis"} {
		spec := topology.Preset(name)
		const nodes, seed = 3, 7
		fresh := resourceRows(NewCluster(spec, nodes, seed).Fluid)
		if want := nodes * nodeResources(spec); len(fresh) != want {
			t.Fatalf("%s: %d resources, nodeResources counts %d", name, len(fresh), want)
		}

		c := NewCluster(spec, nodes, seed)
		c.K.Spawn("work", func(p *sim.Proc) {
			c.Nodes[1].ExecCompute(p, 0, ComputeSpec{Flops: 1e6, Bytes: 1e6, MemNUMA: -1})
		})
		c.K.Run()
		c.Fluid.SetCapacity(c.Nodes[2].PCIeTx, 1)
		c.Reset(spec, seed)
		sameRows(t, name+" after Reset", resourceRows(c.Fluid), fresh)
	}
}

// A node that never computes has no per-core state, and reads zero from
// every counter.
func TestIdleNodeReadsZero(t *testing.T) {
	c := henriCluster(t)
	idle, busy := c.Nodes[0], c.Nodes[1]
	c.K.Spawn("busy", func(p *sim.Proc) {
		busy.ExecCompute(p, 2, ComputeSpec{Flops: 1e8, Bytes: 1e7, MemNUMA: -1, Class: topology.AVX2})
	})
	c.K.Run()
	if busy.coreFlow == nil || busy.Counters.TotalFlops() == 0 {
		t.Fatal("the busy node recorded no slice")
	}
	if idle.coreFlow != nil {
		t.Fatal("a node that never computed has compute slots")
	}
	s := idle.Counters
	if s.StallFraction() != 0 || s.TotalFlops() != 0 || s.TotalMemBytes() != 0 || s.SendBandwidth() != 0 {
		t.Fatalf("idle node sums: stall %v, flops %v, bytes %v, send %v",
			s.StallFraction(), s.TotalFlops(), s.TotalMemBytes(), s.SendBandwidth())
	}
	for i := 0; i < idle.Spec.Cores(); i++ {
		if got := *s.Core(i); got != (counters.Core{}) {
			t.Fatalf("idle core %d counters %+v", i, got)
		}
	}
}

// A slowdown set before the node's first slice applies to that slice.
func TestSlowdownBeforeFirstCompute(t *testing.T) {
	c := henriCluster(t)
	n := c.Nodes[0]
	n.SetCoreSlowdown(0, 2)
	if n.coreFlow != nil {
		t.Fatal("SetCoreSlowdown allocated the compute slots")
	}
	var d sim.Duration
	c.K.Spawn("t", func(p *sim.Proc) {
		// 10 Gflop/s halved: 1e9 flops take 0.2 s.
		d = n.ExecCompute(p, 0, ComputeSpec{Flops: 1e9, Class: topology.Scalar})
	})
	c.K.Run()
	if math.Abs(d.Seconds()-0.2) > 1e-6 {
		t.Fatalf("slowed slice took %v, want 0.2s", d)
	}
}

// partialWorkload runs compute on nodes 0 and 1 only: slices and a loop,
// a slowdown set before node 1's first slice and another mid-slice, and
// a frequency step under a running flow. It returns a log of everything
// the run can observe, floats in exact bits, with the solves and events
// counted from its start.
func partialWorkload(c *Cluster) string {
	var log strings.Builder
	solves, steps := c.Fluid.Solves(), c.K.Steps()
	n0, n1 := c.Nodes[0], c.Nodes[1]
	n1.SetCoreSlowdown(3, 1.5)
	c.K.Spawn("n0", func(p *sim.Proc) {
		d := n0.ExecCompute(p, 0, ComputeSpec{Flops: 4e8, Bytes: 2e8, MemNUMA: 1, Class: topology.AVX2})
		fmt.Fprintf(&log, "n0 slice %d\n", d)
		left := 3
		n0.StartLoop(5, ComputeSpec{Flops: 1e7, Bytes: 4e6, MemNUMA: -1}, func() bool { left--; return left >= 0 }, func(end LoopEnd) {
			fmt.Fprintf(&log, "n0 loop %d at %d\n", end.Iters, c.K.Now())
		})
	})
	c.K.Spawn("n1", func(p *sim.Proc) {
		d := n1.ExecCompute(p, 3, ComputeSpec{Flops: 5e8, Class: topology.Scalar})
		fmt.Fprintf(&log, "n1 slice %d\n", d)
	})
	c.K.At(sim.Time(10*sim.Millisecond), func() { n1.Freq.SetUserspace(1.5) })
	c.K.At(sim.Time(20*sim.Millisecond), func() { n1.SetCoreSlowdown(3, 1) })
	c.K.Run()
	for _, n := range c.Nodes {
		for i := 0; i < n.Spec.Cores(); i++ {
			k := n.Counters.Core(i)
			fmt.Fprintf(&log, "n%d.c%d %x %x %x %x\n", n.ID, i, math.Float64bits(k.Cycles),
				math.Float64bits(k.StallCycles), math.Float64bits(k.Flops), math.Float64bits(k.MemBytes))
		}
	}
	fmt.Fprintf(&log, "end %d, %d solves, %d events\n", c.K.Now(), c.Fluid.Solves()-solves, c.K.Steps()-steps)
	for _, row := range resourceRows(c.Fluid) {
		fmt.Fprintln(&log, row)
	}
	return log.String()
}

// A world where only some nodes ever computed replays, once reset, the
// run of a fresh world byte for byte: nodes that got their per-core
// state in the first life and nodes that get it only now behave alike.
func TestPartialComputeResetReplays(t *testing.T) {
	spec := topology.Henri()
	want := partialWorkload(NewCluster(spec, 3, 5))

	c := NewCluster(spec, 3, 5)
	c.K.Spawn("first", func(p *sim.Proc) {
		c.Nodes[0].ExecCompute(p, 7, ComputeSpec{Flops: 1e8, Bytes: 1e8, MemNUMA: 2})
		c.Nodes[2].ExecCompute(p, 1, ComputeSpec{Flops: 1e8, Class: topology.AVX512})
	})
	c.Nodes[2].SetCoreSlowdown(1, 3)
	c.K.Run()
	if c.Nodes[1].coreFlow != nil {
		t.Fatal("node 1 computed in the first life")
	}
	c.Reset(spec, 5)
	if got := partialWorkload(c); got != want {
		t.Fatalf("reset world diverged from a fresh one:\n%s\nfresh:\n%s", got, want)
	}
}
