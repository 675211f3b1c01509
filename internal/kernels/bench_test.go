package kernels

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/topology"
)

// startLoop runs spec on a core of n while next holds, as a compute
// loop started from an event of this instant, and stores its result in
// out when it ends.
func startLoop(c *machine.Cluster, n *machine.Node, core int, spec machine.ComputeSpec, next func() bool, out *LoopResult) {
	c.K.At(c.K.Now(), func() {
		n.StartLoop(core, spec, next, func(end machine.LoopEnd) {
			*out = NewLoopResult(end.Iters, end.Total, end.Spec.Bytes)
		})
	})
}

// loopN is startLoop for iters slices.
func loopN(c *machine.Cluster, n *machine.Node, core int, spec machine.ComputeSpec, iters int, out *LoopResult) {
	i := 0
	startLoop(c, n, core, spec, func() bool { i++; return i <= iters }, out)
}

// streamLoop runs Fig 4's contention shape on c's first node: 35 STREAM
// TRIAD cores looping over data on NUMA 0, iters slices each. It
// returns the number of slices run.
func streamLoop(c *machine.Cluster, iters int) int {
	const cores = 35
	n := c.Nodes[0]
	var res LoopResult
	for core := 0; core < cores; core++ {
		loopN(c, n, core, StreamTriad(DefaultStreamElems, 0), iters, &res)
	}
	c.K.Run()
	return cores * iters
}

// TestStreamLoopSolvesPerSlice bounds the fluid solves a memory-bound
// loop slice costs. Slices that end together are parked by their
// completion and renewed: no solve at all while the loop runs on, the
// slices being the whole flow list. What is left is the start of each loop, the completions of slices
// ending alone, and the end of each loop (the completion's re-solve and
// the held census update), about 0.2 of a solve per slice over 10
// slices.
func TestStreamLoopSolvesPerSlice(t *testing.T) {
	c := machine.NewCluster(topology.Henri(), 1, 1)
	before := c.Fluid.Solves()
	slices := streamLoop(c, 10)
	per := float64(c.Fluid.Solves()-before) / float64(slices)
	if per > 0.25 {
		t.Fatalf("%.3f fluid solves per loop slice, want <= 0.25", per)
	}
}

// BenchmarkStreamLoop times the loop slices of streamLoop on a pooled
// (reset) henri node. solves/slice is a deterministic count, the figure
// CI ratchets; ns/slice is the wall cost of one simulated slice.
func BenchmarkStreamLoop(b *testing.B) {
	spec := topology.Henri()
	c := machine.NewCluster(spec, 1, 1)
	var solves uint64
	slices := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(spec, 1)
		before := c.Fluid.Solves()
		slices += streamLoop(c, 10)
		solves += c.Fluid.Solves() - before
	}
	b.ReportMetric(float64(solves)/float64(slices), "solves/slice")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slices), "ns/slice")
}
